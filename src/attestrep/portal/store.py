"""Flat-file content-addressed blob store, and the store's one atomic write.

Keys are the SHA-256 of the stored bytes, so any silent mutation of a blob
is detectable on read. Blobs and ``provider.json`` are written through
``atomic_write``, so a half-written file never sits at its final path.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, fsync it and rename it over ``path``.

    Readers see the old file or the new one, never a partial one. If the
    write or the rename fails, the temp file is removed, ``path`` is left as
    it was, and the error propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class BlobMissing(KeyError):
    def __init__(self, key: str) -> None:
        super().__init__(key)
        self.key = key


class BlobCorrupt(Exception):
    """Stored bytes no longer hash to their key."""

    def __init__(self, key: str, actual: str) -> None:
        super().__init__(f"blob {key} reads back as {actual}")
        self.key = key
        self.actual = actual


class BlobStore:
    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / key

    def put(self, data: bytes) -> str:
        key = hashlib.sha256(data).hexdigest()
        final = self.path(key)
        if not final.exists():
            atomic_write(final, data)
        return key

    def get(self, key: str) -> bytes:
        """Read and re-verify a blob; corruption is surfaced, never served."""
        data = self.get_unverified(key)
        actual = hashlib.sha256(data).hexdigest()
        if actual != key:
            raise BlobCorrupt(key, actual)
        return data

    def get_unverified(self, key: str) -> bytes:
        """Raw bytes at the key, without the content-address check."""
        try:
            return self.path(key).read_bytes()
        except FileNotFoundError:
            raise BlobMissing(key) from None
