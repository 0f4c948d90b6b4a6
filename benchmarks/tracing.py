"""Spans around the calls into each attestrep layer, recorded from outside ``src/``.

Each public function is wrapped where its caller looks it up: a function
that ``attestrep.portal.core`` imported by name is replaced in that module's
namespace, a method is replaced on its class. A span has an id, a parent
(the span open on the same thread when it started), a request id, a name,
a start and an end; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# The timed functions of each layer, as ``<layer>.<function>``.
FUNCTIONS = [
    "package_model.digest_package", "package_model.load_manifest",
    "archive.pack_tree", "archive.unpack_archive",
    "runner.execute",
    "attestation.sign_quote", "attestation.RootStatement.verify",
    "attestation.AttestationEndorsement.verify", "attestation.AttestationQuote.verify_signature",
    "canonical.canonical_json_bytes",
    "bundle.build_bundle", "bundle.serialize_bundle", "bundle.parse_bundle",
    "verifier.verify_bundle", "verifier.verify_against_archive",
    "portal.store.put", "portal.store.get", "portal.store.get_unverified",
    "portal.audit.append", "portal.audit.entries", "portal.audit.audit_check",
    "portal.core.submit", "portal.core.process", "portal.core.public_verify",
    "portal.core.verify_bundle_bytes", "portal.core.audit_entries",
    "portal.http.do_POST", "portal.http.do_GET",
]

SIGNATURE_CHECKS = {"attestation.RootStatement.verify", "attestation.AttestationEndorsement.verify",
                    "attestation.AttestationQuote.verify_signature"}

_len = lambda args, result: len(result)  # noqa: E731
_digest_info = lambda args, result: (result.total_bytes, result.file_count)  # noqa: E731

# (module that looks the name up, attribute, span name, what to note about the call)
_CLIENT_SITES = [
    ("attestrep.package_model", "digest_package", "package_model.digest_package", _digest_info),
    ("attestrep.runner", "digest_package", "package_model.digest_package", _digest_info),
    ("attestrep.portal.core", "digest_package", "package_model.digest_package", _digest_info),
    ("attestrep.package_model", "load_manifest", "package_model.load_manifest", None),
    ("attestrep.portal.core", "load_manifest", "package_model.load_manifest", None),
    ("attestrep.archive", "pack_tree", "archive.pack_tree", _len),
    ("attestrep.portal.core", "unpack_archive", "archive.unpack_archive", lambda args, result: len(args[0])),
    ("attestrep.runner", "execute", "runner.execute", None),
    ("attestrep.portal.core", "execute", "runner.execute", None),
    ("attestrep.attestation", "AttestationProvider.sign_quote", "attestation.sign_quote", None),
    ("attestrep.attestation", "RootStatement.verify", "attestation.RootStatement.verify", None),
    ("attestrep.attestation", "AttestationEndorsement.verify", "attestation.AttestationEndorsement.verify", None),
    ("attestrep.attestation", "AttestationQuote.verify_signature", "attestation.AttestationQuote.verify_signature", None),
    ("attestrep.attestation", "canonical_json_bytes", "canonical.canonical_json_bytes", None),
    ("attestrep.bundle", "canonical_json_bytes", "canonical.canonical_json_bytes", None),
    ("attestrep.portal.audit", "canonical_json_bytes", "canonical.canonical_json_bytes", None),
    ("attestrep.portal.core", "canonical_json_bytes", "canonical.canonical_json_bytes", None),
    ("attestrep.bundle", "build_bundle", "bundle.build_bundle", None),
    ("attestrep.portal.core", "build_bundle", "bundle.build_bundle", None),
    ("attestrep.bundle", "serialize_bundle", "bundle.serialize_bundle", None),
    ("attestrep.portal.core", "serialize_bundle", "bundle.serialize_bundle", None),
    ("attestrep.verifier", "parse_bundle", "bundle.parse_bundle", None),
    ("attestrep.portal.core", "parse_bundle", "bundle.parse_bundle", None),
    ("attestrep.verifier", "verify_bundle", "verifier.verify_bundle", None),
    ("attestrep.portal.core", "verify_bundle", "verifier.verify_bundle", None),
    ("attestrep.portal.core", "verify_against_archive", "verifier.verify_against_archive", None),
    ("attestrep.portal.store", "BlobStore.put", "portal.store.put", None),
    ("attestrep.portal.store", "BlobStore.get", "portal.store.get", None),
    ("attestrep.portal.store", "BlobStore.get_unverified", "portal.store.get_unverified", _len),
    ("attestrep.portal.audit", "AuditLog.append", "portal.audit.append", None),
    ("attestrep.portal.audit", "AuditLog.entries", "portal.audit.entries", _len),
    ("attestrep.portal.audit", "audit_check", "portal.audit.audit_check", None),
    ("attestrep.portal.core", "audit_check", "portal.audit.audit_check", None),
    ("attestrep.portal.core", "Portal.submit", "portal.core.submit", None),
    ("attestrep.portal.core", "Portal.process", "portal.core.process", None),
    ("attestrep.portal.core", "Portal.public_verify", "portal.core.public_verify", None),
    ("attestrep.portal.core", "Portal.verify_bundle_bytes", "portal.core.verify_bundle_bytes", None),
    ("attestrep.portal.core", "Portal.audit_entries", "portal.core.audit_entries", None),
    ("attestrep.portal.core", "Submission.from_dict", "portal.core.Submission.from_dict", None),
]
_SERVER_SITES = [
    ("attestrep.portal.http", "PortalRequestHandler.do_POST", "portal.http.do_POST", None),
    ("attestrep.portal.http", "PortalRequestHandler.do_GET", "portal.http.do_GET", None),
]

REQUEST_HEADER = "X-Request-Id"


class Tracer:
    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: list[tuple] = []  # (id, parent, request, name, start_ns, end_ns, info)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.request, local.paused = [], None, False
        return local

    @contextmanager
    def request(self, request_id: str):
        state = self._state()
        before, state.request = state.request, request_id
        try:
            yield
        finally:
            state.request = before

    @contextmanager
    def paused(self):
        state = self._state()
        before, state.paused = state.paused, True
        try:
            yield
        finally:
            state.paused = before

    def wrap(self, name: str, fn, info=None, request_of=None):
        def traced(*args, **kwargs):
            state = self._state()
            if state.paused:
                return fn(*args, **kwargs)
            before = state.request
            if request_of is not None:
                state.request = request_of(args) or before
            span_id = next(self._ids)
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            note = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    note = info(args, result)
                return result
            finally:
                end = time.perf_counter_ns()
                state.stack.pop()
                self.spans.append((span_id, parent, state.request, name, start, end, note))
                state.request = before

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, start: int, end: int) -> None:
        """Record a span that ran outside Python calls, such as a child process."""
        state = self._state()
        if not state.paused:
            parent = state.stack[-1] if state.stack else None
            self.spans.append((next(self._ids), parent, state.request, name, start, end, None))

    def install(self, server: bool = False) -> None:
        for module_name, attr, name, info in _CLIENT_SITES + (_SERVER_SITES if server else []):
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[fn_name] if owner_name else getattr(owner, fn_name)
            request_of = (lambda args: args[0].headers.get(REQUEST_HEADER)) if server and owner_name == "PortalRequestHandler" else None
            if isinstance(raw, classmethod):
                setattr(owner, fn_name, classmethod(self.wrap(name, raw.__func__, info, request_of)))
            else:
                setattr(owner, fn_name, self.wrap(name, raw, info, request_of))
        runner = importlib.import_module("attestrep.runner")
        runner.subprocess = _ChildProcesses(self)

    def export(self) -> list[list]:
        tag = self.tag
        return [[f"{tag}{s[0]}", None if s[1] is None else f"{tag}{s[1]}", *s[2:]] for s in self.spans]


class _ChildProcesses:
    """``subprocess`` as ``attestrep.runner`` sees it, timing the package's own process."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(subprocess, name)

    def Popen(self, *args, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        start = time.perf_counter_ns()
        proc = subprocess.Popen(*args, **kwargs)
        wait = proc.wait

        def timed_wait(timeout=None):
            try:
                return wait(timeout=timeout)
            finally:
                self._tracer.leaf("runner.child_wait", start, time.perf_counter_ns())

        proc.wait = timed_wait
        return proc


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "request", "name", "start_ns", "end_ns", "info"], "spans": spans}, fh)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _has_ancestor_in(span, ids: set, by_id: dict) -> bool:
    parent = span[1]
    while parent is not None:
        if parent in ids:
            return True
        parent = by_id[parent][1] if parent in by_id else None
    return False


def layer_metrics(spans: list[list], round_trips: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios from exported spans.

    ``round_trips`` maps HTTP request ids to the client's round-trip time in ms.
    """
    by_id = {s[0]: s for s in spans}
    children_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        if s[1] is not None:
            children_ns[s[1]] += s[5] - s[4]

    def ancestor(span, names) -> list | None:
        parent = span[1]
        while parent is not None:
            up = by_id.get(parent)
            if up is None:
                return None
            if up[3] in names:
                return up
            parent = up[1]
        return None

    named: dict[str, list] = defaultdict(list)
    for s in spans:
        named[s[3]].append(s)

    def dur_ms(items) -> float:
        return sum(s[5] - s[4] for s in items) / 1e6

    def per(count: float, base: int) -> float:
        return count / base if base else 0.0

    out: dict[str, tuple[float, str]] = {}
    for fn in FUNCTIONS:
        items = named.get(fn, [])
        out[f"{fn}.calls"] = (len(items), "count")
        out[f"{fn}.self_ms"] = (sum(s[5] - s[4] - children_ns[s[0]] for s in items) / 1e6, "ms")

    digests = named.get("package_model.digest_package", [])
    digest_s = dur_ms(digests) / 1e3
    out["package_model.digest_package.mib_per_s"] = (per(sum(s[6][0] for s in digests if s[6]) / (1 << 20), digest_s), "MiB/s")
    out["package_model.digest_package.files_per_s"] = (per(sum(s[6][1] for s in digests if s[6]), digest_s), "1/s")
    packs = named.get("archive.pack_tree", [])
    out["archive.pack_tree.mib_per_s"] = (per(sum(s[6] or 0 for s in packs) / (1 << 20), dur_ms(packs) / 1e3), "MiB/s")

    public = {"portal.core.public_verify"}
    n_public = len(named.get("portal.core.public_verify", []))
    unpacked = sum(s[6] or 0 for s in named.get("archive.unpack_archive", []) if ancestor(s, public))
    out["archive.unpack_archive.mib_per_public_verify"] = (per(unpacked / (1 << 20), n_public), "MiB/op")
    read = sum(s[6] or 0 for s in named.get("portal.store.get_unverified", []) if ancestor(s, public))
    out["portal.store.bytes_read_per_public_verify"] = (per(read, n_public), "bytes/op")

    out["runner.child_wait_ms"] = (dur_ms(named.get("runner.child_wait", [])), "ms")

    verifies = {"verifier.verify_bundle"}
    n_verifies = len(named.get("verifier.verify_bundle", []))
    checks = sum(1 for name in SIGNATURE_CHECKS for s in named.get(name, []) if ancestor(s, verifies))
    out["attestation.signature_checks_per_verify"] = (per(checks, n_verifies), "count/op")
    encodes = sum(1 for s in named.get("canonical.canonical_json_bytes", []) if ancestor(s, verifies))
    out["canonical.encodes_per_verify"] = (per(encodes, n_verifies), "count/op")

    # A reader's verification is a verify_bundle call of its own; the portal's is a
    # public_verify or verify_bundle_bytes request, which calls verify_bundle inside.
    portal_verifies = {"portal.core.public_verify", "portal.core.verify_bundle_bytes"}
    reader_ops = [s for s in named.get("verifier.verify_bundle", []) if not ancestor(s, portal_verifies)]
    portal_ops = [s for name in portal_verifies for s in named.get(name, [])]
    for metric, ops in (("bundle.parses_per_verify", reader_ops), ("bundle.parses_per_portal_verify", portal_ops)):
        op_ids = {s[0] for s in ops}
        parses = sum(1 for s in named.get("bundle.parse_bundle", []) if _has_ancestor_in(s, op_ids, by_id))
        out[metric] = (per(parses, len(ops)), "count/op")

    entries = named.get("portal.audit.entries", [])
    out["portal.audit.entries.us_per_entry_returned"] = (per(dur_ms(entries) * 1e3, sum(s[6] or 0 for s in entries)), "us/entry")
    submits = {"portal.core.submit"}
    records = sum(1 for s in named.get("portal.core.Submission.from_dict", []) if ancestor(s, submits))
    out["portal.core.submission_records_read_per_submit"] = (per(records, len(named.get("portal.core.submit", []))), "count/op")

    served: dict[str, float] = {}
    for s in spans:
        if s[3].startswith("portal.core.") and s[3] != "portal.core.Submission.from_dict" and s[2] in round_trips \
                and not ancestor(s, {"portal.core.submit", "portal.core.process", "portal.core.public_verify",
                                     "portal.core.verify_bundle_bytes", "portal.core.audit_entries"}):
            served[s[2]] = (s[5] - s[4]) / 1e6
    out["portal.http.overhead_ms_p50"] = (_p50([round_trips[r] - ms for r, ms in served.items()]), "ms")

    out["trace.spans"] = (len(spans), "count")
    out["trace.request_ids"] = (len({s[2] for s in spans if s[2] is not None}), "count")
    return out
