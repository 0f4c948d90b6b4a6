from __future__ import annotations

import errno
import http.client
import io
import json
import socket
import statistics
import struct
import sys
import tarfile
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep.archive import pack_tree
from attestrep.bundle import parse_bundle
from attestrep.portal.audit import AuditEntry
from attestrep.portal.core import Portal
from attestrep.portal.http import CONNECTION_TIMEOUT_S, PortalRequestHandler, make_server
from attestrep.verifier import verify_bundle
from conftest import PROVIDER_SEED, make_package
from test_bundle_schema import HOSTILE


@pytest.fixture
def portal(tmp_path: Path) -> Portal:
    return Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)


@pytest.fixture
def base_url(portal: Portal):
    server = make_server(portal, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def archive(tmp_path: Path) -> bytes:
    return pack_tree(make_package(tmp_path / "answer42"))


def _submit(base_url: str, archive: bytes, author: str = "alice") -> str:
    response = requests.post(
        f"{base_url}/v1/submissions", data=archive, headers={"X-Author-Id": author}, timeout=10
    )
    assert response.status_code == 201, response.text
    return response.json()["submission_id"]


def test_submission_lifecycle(base_url: str, archive: bytes, portal: Portal) -> None:
    submission_id = _submit(base_url, archive)

    state = requests.get(f"{base_url}/v1/submissions/{submission_id}", timeout=10).json()
    assert state["state"] == "Received"

    processed = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()
    assert processed["state"] == "Proved"
    token = processed["token"]

    proof = requests.get(f"{base_url}/v1/proofs/{token}", timeout=10)
    assert proof.status_code == 200
    assert proof.headers["Content-Type"] == "application/octet-stream"
    bundle = parse_bundle(proof.content)
    assert bundle.token == token
    assert verify_bundle(proof.content, [portal.provider.root_public_key], now=portal.clock()).accepted


def test_verify_endpoint_by_token(base_url: str, archive: bytes) -> None:
    submission_id = _submit(base_url, archive)
    token = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()["token"]

    verdict = requests.post(f"{base_url}/v1/verify", json={"token": token}, timeout=10).json()
    assert verdict["verdict"] == "Accept"
    assert verdict["token"] == token


def test_verify_endpoint_by_bundle_bytes(base_url: str, archive: bytes) -> None:
    submission_id = _submit(base_url, archive)
    token = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()["token"]
    bundle_bytes = requests.get(f"{base_url}/v1/proofs/{token}", timeout=10).content

    verdict = requests.post(f"{base_url}/v1/verify", data=bundle_bytes, timeout=10).json()
    assert verdict["verdict"] == "Accept"

    garbage = requests.post(f"{base_url}/v1/verify", data=b"junk", timeout=10).json()
    assert garbage["verdict"] == "Reject"
    assert garbage["reason"] == "ParseError"


def test_audit_log_endpoint(base_url: str, archive: bytes) -> None:
    submission_id = _submit(base_url, archive)
    requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30)

    everything = requests.get(f"{base_url}/v1/audit-log", timeout=10).json()["entries"]
    assert [entry["seq"] for entry in everything] == list(range(len(everything)))
    assert len(everything) == 4

    tail = requests.get(f"{base_url}/v1/audit-log?from_seq=2", timeout=10).json()["entries"]
    assert [entry["seq"] for entry in tail] == [2, 3]


def test_error_statuses(base_url: str, archive: bytes) -> None:
    # malformed archive
    bad = requests.post(f"{base_url}/v1/submissions", data=b"nope", timeout=10)
    assert bad.status_code == 400
    assert bad.json()["error"] == "ArchiveMalformed"

    # duplicate
    _submit(base_url, archive)
    duplicate = requests.post(
        f"{base_url}/v1/submissions", data=archive, headers={"X-Author-Id": "alice"}, timeout=10
    )
    assert duplicate.status_code == 409
    assert duplicate.json()["error"] == "DuplicateSubmission"

    # unknown ids
    assert requests.get(f"{base_url}/v1/submissions/{'0' * 64}", timeout=10).status_code == 404
    assert requests.get(f"{base_url}/v1/proofs/{'0' * 64}", timeout=10).status_code == 404
    assert requests.post(f"{base_url}/v1/verify", json={"token": "0" * 64}, timeout=10).status_code == 404

    # wrong state
    submission_id = _submit(base_url, archive, author="bob")
    requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30)
    again = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30)
    assert again.status_code == 409
    assert again.json()["error"] == "WrongState"

    # unknown route
    assert requests.get(f"{base_url}/v1/nope", timeout=10).status_code == 404


def test_ambiguous_archive_is_400(base_url: str) -> None:
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        for name in ("a", "a/b"):
            info = tarfile.TarInfo(name=name)
            info.size = 1
            tar.addfile(info, io.BytesIO(b"x"))
    response = requests.post(f"{base_url}/v1/submissions", data=buffer.getvalue(), timeout=10)
    assert response.status_code == 400
    assert response.json()["error"] == "ArchiveMalformed"


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_verify_body_is_a_parse_error(base_url: str, name: str) -> None:
    response = requests.post(f"{base_url}/v1/verify", data=HOSTILE[name], timeout=10)
    assert response.status_code == 200, response.text
    assert (response.json()["verdict"], response.json()["reason"]) == ("Reject", "ParseError")


def test_verify_by_token_with_missing_package_blob(base_url: str, archive: bytes, portal: Portal) -> None:
    submission_id = _submit(base_url, archive)
    done = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()
    portal.blobs.path(done["archive_blob"]).unlink()
    response = requests.post(f"{base_url}/v1/verify", json={"token": done["token"]}, timeout=10)
    assert response.status_code == 200, response.text
    assert response.json()["reason"] == "DigestMismatch"


@pytest.mark.parametrize(
    ("blob", "reason"), [("bundle_blob", "BundleIdMismatch"), ("archive_blob", "DigestMismatch")]
)
def test_proof_its_recheck_rejects_is_409_not_served(
    base_url: str, archive: bytes, portal: Portal, blob: str, reason: str
) -> None:
    submission_id = _submit(base_url, archive)
    done = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()
    path = portal.blobs.path(done[blob])
    data = path.read_bytes()
    at = data.index(b'"bundle_id":"') + len(b'"bundle_id":"') if blob == "bundle_blob" else data.index(b"42\n")
    path.write_bytes(data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:])

    proof = requests.get(f"{base_url}/v1/proofs/{done['token']}", timeout=10)
    assert proof.status_code == 409, proof.content[:200]
    assert proof.headers["Content-Type"] == "application/json"
    assert proof.json()["error"] == "ProofRejected"
    assert proof.json()["detail"].startswith(f"{reason}: ")
    verify = requests.post(f"{base_url}/v1/verify", json={"token": done["token"]}, timeout=10).json()
    assert (verify["verdict"], verify["reason"]) == ("Reject", reason)


def test_changed_audit_log_is_503_and_not_extended(base_url: str, archive: bytes, portal: Portal) -> None:
    submission_id = _submit(base_url, archive)
    token = requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30).json()["token"]
    path = portal.audit_log.path
    changed = path.read_bytes().replace(b'"seq":2', b'"seq":9')
    path.write_bytes(changed)

    read = requests.get(f"{base_url}/v1/audit-log?from_seq=1", timeout=10)
    assert (read.status_code, read.json()["error"]) == (503, "AuditLogBroken")
    verify = requests.post(f"{base_url}/v1/verify", json={"token": token}, timeout=10)
    assert (verify.status_code, verify.json()["error"]) == (503, "AuditLogBroken")
    assert path.read_bytes() == changed


def test_rewritten_audit_line_is_503_and_not_extended(base_url: str, archive: bytes, portal: Portal) -> None:
    # a line rewritten into another canonical entry of the same length that keeps its seq
    for i in range(3):
        portal.audit_log.append({"type": "tick", "i": i})
    path = portal.audit_log.path
    changed = path.read_bytes().replace(b'"i":1', b'"i":7')
    path.write_bytes(changed)

    read = requests.get(f"{base_url}/v1/audit-log?from_seq=0", timeout=10)
    assert (read.status_code, read.json()["error"]) == (503, "AuditLogBroken")
    submit = requests.post(f"{base_url}/v1/submissions", data=archive, headers={"X-Author-Id": "alice"}, timeout=10)
    assert (submit.status_code, submit.json()["error"]) == (503, "AuditLogBroken")
    assert path.read_bytes() == changed


def test_audit_log_body_is_the_stored_lines(base_url: str, archive: bytes, portal: Portal) -> None:
    submission_id = _submit(base_url, archive)
    requests.post(f"{base_url}/v1/submissions/{submission_id}/process", timeout=30)
    portal.audit_log.append({"type": "note", "text": "zoë \u2028 \"q\" \\", "n": [1, None, True]})
    lines = portal.audit_log.path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    for k in range(len(lines) + 2):
        response = requests.get(f"{base_url}/v1/audit-log?from_seq={k}", timeout=10)
        assert response.status_code == 200
        assert response.content == b'{"entries":[' + b",".join(lines[k:]) + b"]}"
        before = json.dumps({"entries": [AuditEntry.from_dict(json.loads(line)).to_dict() for line in lines[k:]]})
        assert json.loads(response.content) == json.loads(before)


def _raw_exchange(base_url: str, head: bytes) -> tuple[int, dict]:
    """Send a request head with no body and read the answer to the server's close.

    The 2 s timeout turns a handler still waiting for body bytes into a failure.
    """
    url = urlparse(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=2) as sock:
        sock.sendall(head)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    status_line, _, rest = data.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def test_client_reset_is_a_close_not_a_traceback(base_url: str, capfd) -> None:
    url = urlparse(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=2) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(b"GET /v1/audit-log HTTP/1.1\r\nHost: t\r\n\r\n")
        time.sleep(0.3)  # answered; the handler now waits for the next request on this connection
    # closed with a linger of 0 and the answer unread: the server's next read gets a reset
    time.sleep(0.3)
    assert requests.get(f"{base_url}/v1/audit-log", timeout=10).status_code == 200
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize(
    ("head", "status", "error"),
    [
        (b"GET /v1/audit-log?from_seq=abc HTTP/1.1\r\nHost: t\r\n\r\n", 400, "BadRequest"),
        (b"POST /v1/verify HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n", 400, "BadRequest"),
        (b"POST /v1/verify HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n", 400, "BadRequest"),
        (b"POST /v1/submissions HTTP/1.1\r\nHost: t\r\n\r\n", 411, "LengthRequired"),
        (b"POST /v1/submissions HTTP/1.1\r\nHost: t\r\nContent-Length: 1073741825\r\n\r\n", 413, "PayloadTooLarge"),
    ],
    ids=["from-seq-not-a-number", "length-not-a-number", "length-negative", "length-missing", "length-over-cap"],
)
def test_malformed_request_fails_closed(base_url: str, head: bytes, status: int, error: str) -> None:
    answered, body = _raw_exchange(base_url, head)
    assert (answered, body["error"]) == (status, error)


_SHORT_TIMEOUT_S = 0.5
_CLOSE_MARGIN_S = 2.0


def _handler_threads() -> int:
    return sum(thread.name.endswith("(process_request_thread)") for thread in threading.enumerate())


@pytest.mark.parametrize(
    ("sent", "answer"),
    [
        (b"", b""),
        (b"GET /v1/audit-log HTTP/1.1\r\nHost: t\r\n", b""),
        (b"POST /v1/verify HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n" + b"{" * 10, b"HTTP/1.1 408 "),
    ],
    ids=["idle", "partial-header-block", "short-body"],
)
def test_a_stalled_client_is_closed_within_the_timeout(base_url: str, monkeypatch, sent: bytes, answer: bytes) -> None:
    assert CONNECTION_TIMEOUT_S >= 60  # far above a keep-alive client's idle time between requests
    monkeypatch.setattr(PortalRequestHandler, "timeout", _SHORT_TIMEOUT_S)
    url = urlparse(base_url)
    before = _handler_threads()
    with socket.create_connection((url.hostname, url.port), timeout=_SHORT_TIMEOUT_S + _CLOSE_MARGIN_S) as sock:
        start = time.monotonic()
        sock.sendall(sent)
        data = b""
        while chunk := sock.recv(65536):  # a socket timeout here fails the test: the server kept the connection
            data += chunk
        elapsed = time.monotonic() - start
    assert data.startswith(answer) and (answer or not data)
    if answer:
        assert json.loads(data.partition(b"\r\n\r\n")[2])["error"] == "RequestTimeout"
        assert b"Connection: close\r\n" in data
    assert elapsed < _SHORT_TIMEOUT_S + _CLOSE_MARGIN_S
    deadline = time.monotonic() + _CLOSE_MARGIN_S
    while _handler_threads() > before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert _handler_threads() <= before


@pytest.mark.parametrize(
    "head",
    [
        b"POST /v1/submissions/" + b"ff" * 32 + b"/process HTTP/1.1\r\nHost: t\r\n",
        b"GET /v1/audit-log HTTP/1.1\r\nHost: t\r\n",
        b"POST /v1/nowhere HTTP/1.1\r\nHost: t\r\n",
    ],
    ids=["process", "get", "not-found"],
)
@pytest.mark.parametrize("framing", ["Content-Length", "Transfer-Encoding"])
def test_unread_body_is_not_a_second_request(base_url: str, head: bytes, framing: str) -> None:
    smuggled = b"GET /v1/audit-log HTTP/1.1\r\nHost: t\r\n\r\n"
    if framing == "Content-Length":
        request = head + b"Content-Length: %d\r\n\r\n" % len(smuggled) + smuggled
    else:
        request = head + b"Transfer-Encoding: chunked\r\n\r\n%x\r\n" % len(smuggled) + smuggled + b"\r\n0\r\n\r\n"
    url = urlparse(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=2) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):  # one response, then the server's close; a second request times out
            data += chunk
    assert data.count(b"HTTP/1.1 ") == 1
    assert b"Connection: close\r\n" in data


def test_keep_alive_requests_are_not_delayed(base_url: str, archive: bytes) -> None:
    # a response written as two sends must not wait for the client's delayed ACK
    _submit(base_url, archive)
    connection = http.client.HTTPConnection(urlparse(base_url).netloc, timeout=10)
    elapsed = []
    try:
        for _ in range(10):
            start = time.perf_counter()
            connection.request("GET", "/v1/audit-log?from_seq=0")
            response = connection.getresponse()
            response.read()
            elapsed.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(elapsed) < 0.020


def test_concurrent_submissions(base_url: str, tmp_path: Path) -> None:
    archives = [
        pack_tree(make_package(tmp_path / f"pkg{i}", extra_files={"id.txt": f"{i}\n"}))
        for i in range(6)
    ]
    ids: list[str] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def worker(data: bytes) -> None:
        try:
            submission_id = _submit(base_url, data)
            with lock:
                ids.append(submission_id)
        except Exception as exc:  # pragma: no cover - surfaced via assertion below
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker, args=(data,)) for data in archives]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(set(ids)) == 6


_HEX = "ab" * 32
_TARGETS = st.sampled_from([
    "/v1/submissions", f"/v1/submissions/{_HEX}", f"/v1/submissions/{_HEX}/process", f"/v1/proofs/{_HEX}",
    "/v1/verify", "/v1/audit-log", "/v1/audit-log?from_seq=1", "/v1/audit-log?from_seq=-1&from_seq=2",
    "*", "/", "//[", "http://[", "http://h/v1/audit-log", "/v1/submissions/../verify", "/%zz?%zz=%zz",
]) | st.text(max_size=40).map(lambda text: "/" + text)
_HEADER_NAMES = st.sampled_from(
    ["Content-Length", "Transfer-Encoding", "X-Author-Id", "Host", "Connection", "Expect", "Content-Type"]
) | st.text(st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters=":"), min_size=1, max_size=12)
_LENGTHS = st.integers(min_value=-3, max_value=2**70).map(str) | st.sampled_from(
    ["", " 4", "+4", "4_0", "0x10", "1e3", "\u0663", "4, 4", "00", "chunked"]
)
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/2.0", "HTTP/1.1.1", "HTTP/x", "FTP/1.0", ""])
_METHODS = st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE", "get"]) | st.text(max_size=6)


def _responses(data: bytes) -> tuple[list[tuple[int, dict, bytes]], bytes]:
    """The final responses in what the server sent before its close, and any incomplete rest."""
    out = []
    while True:
        head, separator, rest = data.partition(b"\r\n\r\n")
        if not separator:
            return out, data
        status_line, *lines = head.split(b"\r\n")
        version, status, _ = status_line.split(b" ", 2)
        assert version == b"HTTP/1.1", status_line
        headers = {name.lower(): value for name, _, value in (line.partition(b": ") for line in lines)}
        if int(status) < 200:  # 100 Continue
            data = rest
            continue
        length = int(headers[b"content-length"])
        if len(rest) < length:
            return out, data
        out.append((int(status), headers, rest[:length]))
        data = rest[length:]


def test_fuzzed_requests_end_in_a_named_status(tmp_path: Path, archive: bytes) -> None:
    portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
    server = make_server(portal, host="127.0.0.1", port=0)
    faults: list[BaseException] = []
    server.handle_error = lambda request, client_address: faults.append(sys.exc_info()[1])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address[:2]
    # named, not inlined: a failing example's report would otherwise print the whole archive
    named_bodies = {"archive": archive, "token": b'{"token": "' + _HEX.encode() + b'"}'}

    @settings(max_examples=300, deadline=None)
    @given(
        method=_METHODS,
        target=_TARGETS,
        version=_VERSIONS,
        headers=st.lists(st.tuples(_HEADER_NAMES, st.text(max_size=30) | _LENGTHS), max_size=5),
        length=st.none() | _LENGTHS,
        body=st.sampled_from(sorted(named_bodies)) | st.binary(max_size=64),
    )
    def exchange(method: str, target: str, version: str, headers, length, body: str | bytes) -> None:
        faults.clear()
        body = named_bodies.get(body, body)
        if length is not None:
            headers = [*headers, ("Content-Length", length)]
        lines = [" ".join(part for part in (method, target, version) if part)]
        lines += [f"{name}: {value}" for name, value in headers]
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8", "surrogatepass") + body
        data, reset = b"", False
        with socket.create_connection(address, timeout=10) as sock:
            try:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)  # the server sees the end of input, never waits for more
                while chunk := sock.recv(65536):
                    data += chunk
            except OSError as exc:
                # a server that answers and closes before reading all of the input resets the connection
                assert exc.errno in (errno.ECONNRESET, errno.EPIPE, errno.ENOTCONN), exc
                reset = True
        responses, rest = _responses(data)
        assert reset or rest == b"", rest[:200]
        for status, response_headers, response_body in responses:
            assert status != 500, response_body
            if status >= 400:
                assert response_headers[b"content-type"] == b"application/json"
                assert json.loads(response_body)["error"]
        assert faults == []
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            connection.request("GET", "/v1/audit-log")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        finally:
            connection.close()

    try:
        exchange()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
