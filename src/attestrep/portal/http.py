"""Thin HTTP front end over a Portal.

JSON in and out except for archive upload and proof download, which are
raw bytes. Domain failures map to 4xx with ``{"error": name, "detail":
message}``, and an audit log changed under the portal to 503
``AuditLogBroken``; nothing portal-internal leaks into responses. A proof
is served only if its re-check on that read accepts it; otherwise the answer
is 409 ``ProofRejected`` with the verdict's reason and detail. The
audit-log body is ``{"entries":[...]}`` around the log's stored lines joined
by commas: each element is one ``AuditEntry`` line exactly as the log file
holds it, checked against its leaf hash and neither decoded nor encoded
again. What ``http.server`` refuses itself (request line, headers, method)
is named JSON with a status line too, even for an HTTP/0.9 request. A body
is read only to its declared ``Content-Length``: a missing one is 411, one
that is not a decimal number is 400, one over ``MAX_ARCHIVE_BYTES`` (1 GiB)
is 413, each answered before any of the body is read and followed by
closing the connection. A route that reads no body (``process``, every GET,
404) closes the connection after a request that declares one. A client that
resets the connection has closed it: its handler ends quietly. A connection
waits at most ``CONNECTION_TIMEOUT_S`` for each read from its client: an idle
one, or one that stops inside its header block, is closed without an answer;
one that stops inside its body gets 408 ``RequestTimeout`` and a close.
"""

from __future__ import annotations

import json
import logging
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from attestrep.archive import MAX_ARCHIVE_BYTES, ArchiveMalformed
from attestrep.package_model import PackageError
from attestrep.portal.audit import AuditLogBroken
from attestrep.portal.core import (
    DuplicateSubmission,
    Portal,
    UnknownSubmission,
    UnknownToken,
    WrongState,
)

logger = logging.getLogger(__name__)

AUTHOR_HEADER = "X-Author-Id"

# seconds a handler waits on one read from its client (a request line, a header line, body
# bytes) before it closes the connection and its thread ends; a keep-alive client that idles
# between requests for far less keeps its connection
CONNECTION_TIMEOUT_S = 60

# a client that resets or stops reading its connection has closed it; that is not a server fault
_CLIENT_GONE = (ConnectionResetError, BrokenPipeError)

_STATUS = {
    ArchiveMalformed: 400,
    PackageError: 400,
    DuplicateSubmission: 409,
    WrongState: 409,
    UnknownSubmission: 404,
    UnknownToken: 404,
    AuditLogBroken: 503,
}


class RequestRefused(Exception):
    """A request the front end answers itself, before the portal sees it."""

    def __init__(self, status: int, name: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.name = name


def _count(text: str, what: str) -> int:
    """A decimal count of at most 18 digits; ``int`` alone would take a sign, spaces and ``_``."""
    if text.isascii() and text.isdigit() and len(text) <= 18:
        return int(text)
    raise RequestRefused(400, "BadRequest", f"{what} is not a decimal count: {text[:40]!r}")


def _route(target: str) -> tuple[list[str], str]:
    """The path segments and the query of a request target; one ``urlparse`` refuses is a 400."""
    try:
        url = urlparse(target)
    except ValueError as exc:  # "http://[" is an invalid IPv6 host
        raise RequestRefused(400, "BadRequest", f"request target does not parse: {exc}") from None
    return [part for part in url.path.split("/") if part], url.query


def _error_status(exc: Exception) -> int:
    for klass, status in _STATUS.items():
        if isinstance(exc, klass):
            return status
    return 500


class PortalRequestHandler(BaseHTTPRequestHandler):
    server: "PortalHTTPServer"
    protocol_version = "HTTP/1.1"
    # headers and body are two sends: with Nagle on, each waits for the client's delayed ACK
    disable_nagle_algorithm = True
    timeout = CONNECTION_TIMEOUT_S  # the base class times out a request line or header as a close

    @property
    def portal(self) -> Portal:
        return self.server.portal

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except _CLIENT_GONE:
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def parse_request(self) -> bool:
        ok = super().parse_request()
        # a body the route does not read must not be parsed as the next request: _send closes after it
        self._body_unread = ok and ("Transfer-Encoding" in self.headers or self.headers.get("Content-Length", "0") != "0")
        return ok

    def _read_body(self) -> bytes:
        self._body_unread = "Transfer-Encoding" in self.headers  # read by Content-Length, never to a chunked end
        header = self.headers.get("Content-Length")
        if header is None:
            raise RequestRefused(411, "LengthRequired", "a body needs a Content-Length")
        length = _count(header, "Content-Length")
        if length > MAX_ARCHIVE_BYTES:
            raise RequestRefused(413, "PayloadTooLarge", f"body of {length} bytes is over the limit")
        try:
            return self.rfile.read(length)
        except TimeoutError:
            raise RequestRefused(408, "RequestTimeout", f"no body bytes for {self.timeout} s") from None

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self._body_unread:
            self.close_connection = True
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def send_response_only(self, code: int, message: str | None = None) -> None:
        # an HTTP/0.9 answer has no status line or headers, so no name: answer such a request as 1.0
        if self.request_version == "HTTP/0.9":
            self.request_version = "HTTP/1.0"
        super().send_response_only(code, message)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """The base class's own refusals (request line, headers, method) as named JSON, then a close."""
        self.log_error("code %d, message %s", code, message)
        phrase = HTTPStatus(code).phrase
        self.close_connection = True
        self._send_json(code, {"error": "".join(ch for ch in phrase if ch.isalnum()), "detail": message or phrase})

    def _send_error_json(self, exc: Exception) -> None:
        if isinstance(exc, _CLIENT_GONE):  # nothing more can be sent: handle_one_request closes
            raise exc
        if isinstance(exc, RequestRefused):
            # an unread or unframed body must not be parsed as the next request
            self.close_connection = True
            self._send_json(exc.status, {"error": exc.name, "detail": str(exc)})
            return
        status = _error_status(exc)
        if status == 500:
            logger.exception("internal error handling %s %s", self.command, self.path)
            self._send_json(500, {"error": "InternalError", "detail": "internal error"})
        else:
            self._send_json(status, {"error": type(exc).__name__, "detail": str(exc)})

    def do_POST(self) -> None:
        try:
            parts, _ = _route(self.path)
            if parts == ["v1", "submissions"]:
                author = self.headers.get(AUTHOR_HEADER, "anonymous")
                submission = self.portal.submit(self._read_body(), author_id=author)
                self._send_json(201, {"submission_id": submission.submission_id})
            elif len(parts) == 4 and parts[:2] == ["v1", "submissions"] and parts[3] == "process":
                submission = self.portal.process(parts[2])
                self._send_json(200, submission.to_dict())
            elif parts == ["v1", "verify"]:
                self._handle_verify(self._read_body())
            else:
                self._send_json(404, {"error": "NotFound", "detail": self.path})
        except Exception as exc:  # noqa: BLE001 - every failure becomes a JSON response
            self._send_error_json(exc)

    def do_GET(self) -> None:
        try:
            parts, query = _route(self.path)
            if len(parts) == 3 and parts[:2] == ["v1", "submissions"]:
                self._send_json(200, self.portal.get_submission(parts[2]).to_dict())
            elif len(parts) == 3 and parts[:2] == ["v1", "proofs"]:
                result = self.portal.public_verify(parts[2])
                verdict = result.verdict
                if verdict.accepted:
                    self._send(200, result.bundle_bytes, content_type="application/octet-stream")
                else:
                    self._send_json(409, {"error": "ProofRejected", "detail": f"{verdict.reason}: {verdict.detail}"})
            elif parts == ["v1", "audit-log"]:
                from_seq = _count(parse_qs(query).get("from_seq", ["0"])[0], "from_seq")
                lines = [entry.line for entry in self.portal.audit_entries(from_seq=from_seq)]
                self._send(200, b'{"entries":[' + b",".join(lines) + b"]}")
            else:
                self._send_json(404, {"error": "NotFound", "detail": self.path})
        except Exception as exc:  # noqa: BLE001
            self._send_error_json(exc)

    def _handle_verify(self, body: bytes) -> None:
        token = None
        try:
            payload = json.loads(body.decode("utf-8"))
            if isinstance(payload, dict) and "token" in payload:
                token = payload["token"]
        except (ValueError, RecursionError):  # not a token request: the bundle parser names the fault
            pass
        if token is not None:
            result = self.portal.public_verify(str(token))
            self._send_json(200, result.to_dict())
        else:
            verdict = self.portal.verify_bundle_bytes(body)
            self._send_json(200, verdict.to_dict())


class PortalHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], portal: Portal) -> None:
        super().__init__(address, PortalRequestHandler)
        self.portal = portal


def make_server(portal: Portal, host: str = "127.0.0.1", port: int = 0) -> PortalHTTPServer:
    """Bind a threaded HTTP server for the portal; port 0 picks a free port."""
    return PortalHTTPServer((host, port), portal)
