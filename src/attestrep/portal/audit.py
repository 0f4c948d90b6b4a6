"""Append-only hash-chained audit log, read one way.

Each entry hashes its predecessor: entry_hash = SHA-256(prev_hash || event)
with the event in canonical JSON and 32 zero bytes before the first entry,
so rewriting any historical event is evident from the file alone. A line is
the canonical JSON of an ``AuditEntry``. ``_scan`` is the one chain walk:
``audit_check`` runs it over a file, and ``AuditLog`` runs it once when it
opens, so a broken log raises ``AuditLogBroken`` instead of being appended
to. The open log keeps the byte offset of each entry: ``entries(from_seq)``
seeks to its first entry and parses only the lines it returns, so a read
costs what it returns. Appends are serialized through one lock; the chain
needs a total order.
"""
from __future__ import annotations

import json
import os
import threading
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from attestrep.canonical import Wire, canonical_json_bytes, sha256, wire

GENESIS_HASH = b"\x00" * 32


class AuditLogBroken(ValueError):
    """An audit line that does not parse, is out of sequence or breaks the hash chain."""

    def __init__(self, seq: int) -> None:
        super().__init__(f"audit log broken at seq {seq}")
        self.seq = seq


@dataclass(frozen=True)
class AuditEntry(Wire):
    seq: int = wire(minimum=0)
    prev_hash: bytes = wire(hex_size=32)
    event: dict
    entry_hash: bytes = wire(hex_size=32)


@dataclass(frozen=True)
class AuditCheck:
    ok: bool
    broken_at: int | None = None


def _entry_hash(prev_hash: bytes, event: dict) -> bytes:
    return sha256(prev_hash + canonical_json_bytes(event))


def _parse(lines: Iterable[bytes], seq: int) -> Iterator[tuple[int, AuditEntry]]:
    """Decode ``lines`` as the entries ``seq``, ``seq + 1``, ...; yield each with its offset from the first line."""
    offset = 0
    for raw in lines:
        start, offset = offset, offset + len(raw)
        if not raw.strip():
            continue
        try:
            entry = AuditEntry.from_dict(json.loads(raw.decode("utf-8")))
        except (ValueError, RecursionError):
            raise AuditLogBroken(seq) from None
        if entry.seq != seq:
            raise AuditLogBroken(seq)
        yield start, entry
        seq += 1


def _scan(path: Path) -> Iterator[tuple[int, AuditEntry]]:
    """Walk the whole chain in ``path``: each entry with the byte offset of its line."""
    if not path.exists():
        return
    prev_hash = GENESIS_HASH
    with path.open("rb") as fh:
        for offset, entry in _parse(fh, 0):
            if entry.prev_hash != prev_hash or _entry_hash(prev_hash, entry.event) != entry.entry_hash:
                raise AuditLogBroken(entry.seq)
            prev_hash = entry.entry_hash
            yield offset, entry


class AuditLog:
    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._offsets = array("Q")  # seq -> byte offset of its line
        self._last_hash = GENESIS_HASH
        for offset, entry in _scan(self.path):
            self._offsets.append(offset)
            self._last_hash = entry.entry_hash
        self._end = self.path.stat().st_size if self._offsets else 0  # committed end

    def append(self, event: dict) -> AuditEntry:
        with self._lock:
            entry = AuditEntry(
                seq=len(self._offsets),
                prev_hash=self._last_hash,
                event=event,
                entry_hash=_entry_hash(self._last_hash, event),
            )
            line = canonical_json_bytes(entry.to_dict()) + b"\n"
            with self.path.open("ab") as fh:
                offset = fh.tell()
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            self._offsets.append(offset)
            self._end = offset + len(line)
            self._last_hash = entry.entry_hash
            return entry

    def entries(self, from_seq: int = 0) -> list[AuditEntry]:
        from_seq = max(from_seq, 0)
        with self._lock:
            if from_seq >= len(self._offsets):
                return []
            start, end = self._offsets[from_seq], self._end
        # bytes before the committed end never change, so they are read without the lock
        with self.path.open("rb") as fh:
            fh.seek(start)
            lines = fh.read(end - start).splitlines(keepends=True)
        return [entry for _, entry in _parse(lines, from_seq)]


def audit_check(log: AuditLog | str | Path) -> AuditCheck:
    """Recompute the whole chain: an empty log is intact, else the first line that does not parse,
    is out of sequence or breaks the chain is ``broken_at``."""
    try:
        for _ in _scan(log.path if isinstance(log, AuditLog) else Path(log)):
            pass
    except AuditLogBroken as exc:
        return AuditCheck(ok=False, broken_at=exc.seq)
    return AuditCheck(ok=True)
