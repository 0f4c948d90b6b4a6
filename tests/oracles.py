"""Independent oracles used to cross-check the main implementation.

These are deliberately naive, self-contained reimplementations written
before the modules they check. They must stay independent: do not import
anything from ``attestrep`` here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from fractions import Fraction


def naive_tree_digest(root: str) -> str:
    """Digest a file tree the slow, obvious way.

    Enumerate regular files with os.walk, sort the UTF-8 relative paths
    by byte order, hash each as 0x00 || path || 0x00 || sha256(content),
    then hash 0x01 || all leaves. Returns lowercase hex.
    """
    entries: list[tuple[bytes, bytes]] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "rb") as fh:
                content = fh.read()
            entries.append((rel.encode("utf-8"), hashlib.sha256(content).digest()))
    entries.sort(key=lambda pair: pair[0])
    top = hashlib.sha256()
    top.update(b"\x01")
    for path_bytes, content_hash in entries:
        leaf = hashlib.sha256(b"\x00" + path_bytes + b"\x00" + content_hash).digest()
        top.update(leaf)
    return top.hexdigest()


def spreadsheet_aggregate(csv_bytes: bytes) -> dict:
    """Column-sum style statistics over a trial CSV, in exact rationals.

    Returns per-provider success/fail counts, cost min/mean/max and the
    runtime mean in hours (success rows with a runtime only), plus the
    overall runtime mean. Values are Fractions or ints; the caller is
    responsible for any rounding before comparison.
    """
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    out: dict = {"providers": {}, "overall_runtime_mean_hours": None}
    all_runtimes: list[Fraction] = []
    for provider in sorted({row["provider"] for row in rows}):
        mine = [row for row in rows if row["provider"] == provider]
        successes = [row for row in mine if row["status"] == "Success"]
        fails = [row for row in mine if row["status"] == "Fail"]
        costs = [Fraction(row["cost_usd"]) for row in successes]
        runtimes = [
            Fraction(row["runtime_minutes"]) / 60
            for row in successes
            if row["runtime_minutes"].strip() != ""
        ]
        all_runtimes.extend(runtimes)
        out["providers"][provider] = {
            "success_count": len(successes),
            "fail_count": len(fails),
            "success_rate": Fraction(len(successes), len(successes) + len(fails)),
            "cost_min": min(costs),
            "cost_max": max(costs),
            "cost_mean": sum(costs) / len(costs),
            "runtime_mean_hours": sum(runtimes) / len(runtimes) if runtimes else None,
        }
    if all_runtimes:
        out["overall_runtime_mean_hours"] = sum(all_runtimes) / len(all_runtimes)
    return out


_HEX32, _HEX64 = ("hex", 32), ("hex", 64)
_DIGEST = {"value": _HEX32, "file_count": "nat", "total_bytes": "nat"}
# every key of a proof bundle and what its value must be; written from the README's table
BUNDLE_SHAPE = {
    "format_version": ("const", 1),
    "bundle_id": _HEX32,
    "package_digest": _DIGEST,
    "output_digest": _DIGEST,
    "execution": {
        "exit_status": "int", "wall_seconds": "number", "started_at": "nat", "finished_at": "nat",
        "stdout_log_digest": _HEX32, "stderr_log_digest": _HEX32, "nonce": _HEX32,
    },
    "quote": {
        "version": "int", "provider_id": "text", "measurement": _HEX32, "report_data": _HEX64,
        "issued_at": "nat", "signature": _HEX64, "signing_key_id": _HEX32,
    },
    "chain": {
        "root_statement": {
            "statement": ("const", "vendor-root-v1"), "provider_id": "text",
            "root_public_key": _HEX32, "signature": _HEX64,
        },
        "attestation_endorsement": {
            "statement": ("const", "attestation-key-endorsement-v1"), "provider_id": "text",
            "attestation_public_key": _HEX32, "not_before": "nat", "not_after": "nat", "signature": _HEX64,
        },
    },
}


def _fits(value, shape) -> bool:
    if isinstance(shape, dict):
        return type(value) is dict and set(value) == set(shape) and all(_fits(value[k], s) for k, s in shape.items())
    if shape == "text":
        return type(value) is str
    if shape in ("int", "nat"):
        return type(value) is int and (shape == "int" or value >= 0)
    if shape == "number":  # finite: inf - inf and nan - nan are nan, which is not 0
        return type(value) in (int, float) and value - value == 0 and value >= 0
    kind, arg = shape
    if kind == "const":
        return type(value) is type(arg) and value == arg
    return type(value) is str and len(value) == 2 * arg and all(c in "0123456789abcdef" for c in value)


def naive_bundle_read(data: bytes) -> dict | None:
    """The JSON object of a canonical proof bundle, or None for any other bytes.

    Decode the bytes as strict UTF-8 and parse them as JSON; require exactly
    the keys of ``BUNDLE_SHAPE`` with values of the stated types; then require
    the bytes to equal ``json.dumps`` of the object with sorted keys, no
    whitespace and no ASCII escaping, encoded as UTF-8.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not _fits(obj, BUNDLE_SHAPE):
        return None
    try:
        again = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
        return obj if again.encode("utf-8") == data else None
    except UnicodeEncodeError:  # a lone surrogate from a \u escape has no UTF-8 form
        return None
