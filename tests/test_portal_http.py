from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import tarfile
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

import pytest
import requests

from attestrep.archive import pack_tree
from attestrep.bundle import parse_bundle
from attestrep.portal import Portal, make_server
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
