"""Append-only hash-chained audit log, read one way.

Each entry hashes its predecessor: entry_hash = SHA-256(prev_hash || event)
with the event in canonical JSON and 32 zero bytes before the first entry, so
rewriting any historical event is evident from the file alone. A line is the
canonical JSON of an ``AuditEntry``. ``_scan`` is the one chain walk:
``audit_check`` runs it over a file, and ``AuditLog`` runs it once when it
opens and hands each entry to ``replay``, so a broken log raises
``AuditLogBroken`` instead of being appended to. The scan accepts a last line
with no newline; opening the log then writes that newline. A failed append is
cut back out of the file, so the next one takes its ``seq``; if the cut fails
too, the log takes no more appends. The open log keeps, for each entry, the
byte offset of its line and its RFC 6962 leaf hash, SHA-256(0x00 || line
without its newline): 32 bytes per entry in memory, filled by that scan and by
``append``. ``entries(from_seq)`` seeks to its first entry, checks each line it
returns against its leaf hash and returns the stored lines themselves, decoding
nothing, so a read costs what it returns. A read that finds any byte of a line
changed since it was scanned or appended raises ``AuditLogBroken``, and from
then on so does every append. Appends are serialized through one lock; the
chain needs a total order.
"""
from __future__ import annotations

import json
import os
import threading
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from attestrep.canonical import Wire, canonical_json_bytes, sha256, wire

GENESIS_HASH = b"\x00" * 32


class AuditLogBroken(ValueError):
    """An audit line that does not parse, is out of sequence, breaks the hash chain or differs from its leaf hash."""

    def __init__(self, seq: int) -> None:
        super().__init__(f"audit log broken at seq {seq}")
        self.seq = seq


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


def _leaf(line: bytes) -> bytes:
    """The RFC 6962 leaf hash of a stored line without its newline."""
    return sha256(b"\x00" + line)


class StoredEntry(NamedTuple):
    """An entry as the log stores it: the JSON line of its ``AuditEntry`` as the file holds it, without the newline."""

    seq: int
    line: bytes


def _scan(path: Path) -> Iterator[tuple[int, bytes, AuditEntry]]:
    """Walk the whole chain in ``path``: each entry with the byte offset of its line and its leaf hash.

    A line ends at a newline byte and blank lines are skipped; ``AuditLog.entries`` splits the same way.
    """
    if not path.exists():
        return
    prev_hash, seq, offset = GENESIS_HASH, 0, 0
    with path.open("rb") as fh:
        for raw in fh:
            start, offset = offset, offset + len(raw)
            if not raw.strip():
                continue
            try:
                entry = AuditEntry.from_dict(json.loads(raw.decode("utf-8")))
            except (ValueError, RecursionError):
                raise AuditLogBroken(seq) from None
            if (entry.seq != seq or entry.prev_hash != prev_hash
                    or _entry_hash(prev_hash, entry.event) != entry.entry_hash):
                raise AuditLogBroken(seq)
            prev_hash = entry.entry_hash
            yield start, _leaf(raw.removesuffix(b"\n")), entry
            seq += 1


def _checked(data: bytes, seq: int, leaves: bytes) -> list[StoredEntry]:
    """The entries ``seq``, ``seq + 1``, ... stored in ``data``, one per leaf hash in ``leaves``.

    A line whose leaf hash differs, a missing line or a line past the last leaf is ``AuditLogBroken``.
    """
    stored = []
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        at = 32 * len(stored)
        if _leaf(line) != leaves[at:at + 32]:
            raise AuditLogBroken(seq + len(stored))
        stored.append(StoredEntry(seq + len(stored), line))
    if 32 * len(stored) != len(leaves):
        raise AuditLogBroken(seq + len(stored))
    return stored


class AuditLog:
    def __init__(self, path: str | Path, replay: Callable[[AuditEntry], None] = lambda entry: None) -> None:
        self.path = Path(path)
        self.path.touch()  # a failed append cuts the file back, so it is there before the first one
        self._lock = threading.Lock()
        self._offsets = array("Q")  # seq -> byte offset of its line
        self._leaves = bytearray()  # seq -> the 32-byte leaf hash of its line, at 32 * seq
        self._last_hash = GENESIS_HASH
        self._broken_at: int | None = None  # seq of a line a read found changed; the log is not extended
        for offset, leaf, entry in _scan(self.path):
            self._offsets.append(offset)
            self._leaves += leaf
            self._last_hash = entry.entry_hash
            replay(entry)
        size = self.path.stat().st_size
        if size:
            with self.path.open("r+b") as fh:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":  # an append would otherwise join the last line
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                    size += 1
        self._end = size if self._offsets else 0  # committed end

    def append(self, event: dict) -> AuditEntry:
        with self._lock:
            if self._broken_at is not None:
                raise AuditLogBroken(self._broken_at)
            entry = AuditEntry(
                seq=len(self._offsets),
                prev_hash=self._last_hash,
                event=event,
                entry_hash=_entry_hash(self._last_hash, event),
            )
            line = canonical_json_bytes(entry.to_dict())
            try:
                with self.path.open("ab") as fh:
                    offset = fh.tell()
                    fh.write(line + b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                self._broken_at = entry.seq  # until the line, whole or in part, is cut back out of the file
                os.truncate(self.path, self._end)
                self._broken_at = None
                raise
            self._offsets.append(offset)
            self._leaves += _leaf(line)
            self._end = offset + len(line) + 1
            self._last_hash = entry.entry_hash
            return entry

    def entries(self, from_seq: int = 0) -> list[StoredEntry]:
        from_seq = max(from_seq, 0)
        with self._lock:
            count = len(self._offsets)
            if from_seq >= count:
                return []
            start, end = self._offsets[from_seq], self._end
            leaves = bytes(self._leaves[32 * from_seq:32 * count])
        # bytes before the committed end never change, so they are read without the lock
        with self.path.open("rb") as fh:
            fh.seek(start)
            data = fh.read(end - start)
        try:
            stored = _checked(data, from_seq, leaves)
            if len(data) != end - start:  # every line matched, but the file ends before the last newline
                raise AuditLogBroken(count - 1)
        except AuditLogBroken as exc:
            with self._lock:
                self._broken_at = exc.seq
            raise
        return stored


def audit_check(log: AuditLog | str | Path) -> AuditCheck:
    """Recompute the whole chain: an empty log is intact, else the first line that does not parse,
    is out of sequence or breaks the chain is ``broken_at``."""
    try:
        for _ in _scan(log.path if isinstance(log, AuditLog) else Path(log)):
            pass
    except AuditLogBroken as exc:
        return AuditCheck(ok=False, broken_at=exc.seq)
    return AuditCheck(ok=True)
