"""Canonical digesting and manifest parsing for replication packages.

The digest fixes what "the submitted code" means: a platform-independent
hash over relative paths and file contents, so the same tree produces the
same 32 bytes everywhere. ``digest_entries`` is its one definition, shared
by directory trees, tar archives and run outputs: sort the UTF-8 paths of
the regular files by byte order, hash each file as

    leaf = SHA-256(0x00 || path || 0x00 || SHA-256(content))

and combine as SHA-256(0x01 || leaf_1 || ... || leaf_n). The 0x00/0x01
prefixes domain-separate leaves from the root. Directory entries, empty
directories, and permission bits are excluded; they vary across operating
systems and archive tools. Symlinks, special files and names that are not
UTF-8 are refused outright.

File contents stream through one ``CHUNK``-sized buffer that each operation
allocates once and passes down (``stream_sha256``'s ``buffer``), so the
memory a digest, an unpack or an output snapshot takes does not grow with
file size. The buffer is never shared between operations, which may run on
several threads at once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from attestrep import AttestrepError
from attestrep.bundle import PackageDigest

MANIFEST_NAME = "attestrep.manifest"

# bytes per ``readinto``: few calls per large file, and little memory per concurrent operation
CHUNK = 1 << 18


class PackageError(AttestrepError):
    """Base class for package digesting and manifest failures."""


class NotADirectory(PackageError):
    def __init__(self, path: str) -> None:
        super().__init__(f"not a readable directory: {path}")
        self.path = path


class SymlinkEncountered(PackageError):
    """A symlink was found in the tree; refused rather than silently followed."""

    def __init__(self, path: str) -> None:
        super().__init__(f"symlink encountered: {path}")
        self.path = path


class UnreadableFile(PackageError):
    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"unreadable file {path}: {reason}")
        self.path = path
        self.reason = reason


class ManifestMissing(PackageError):
    def __init__(self, root: str) -> None:
        super().__init__(f"no {MANIFEST_NAME} in {root}")
        self.root = root


class ManifestParseError(PackageError):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"manifest line {line}: {reason}")
        self.line = line
        self.reason = reason


class PathRuleViolation(PackageError):
    def __init__(self, field_name: str, path: str) -> None:
        super().__init__(f"{field_name}: illegal path {path!r}")
        self.field = field_name
        self.path = path


@dataclass(frozen=True)
class PackageManifest:
    """Parsed ``attestrep.manifest``: what to run and what it should produce."""

    entrypoint: str
    declared_outputs: tuple[str, ...] = ()
    env_spec: tuple[tuple[str, str], ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_relative_path(self.entrypoint, "entrypoint")
        for out in self.declared_outputs:
            validate_relative_path(out, "output")


def validate_relative_path(path: str, field_name: str) -> None:
    """Enforce the package path rules.

    Relative, forward-slash separators, no ``.``/``..`` segments, no
    leading slash, no backslash, no empty segments, no NUL. Rejecting
    ``.`` keeps every file addressable by exactly one path. Must be UTF-8.
    """
    path_bytes(path, field_name)
    if not path or path.startswith("/") or "\\" in path or "\x00" in path:
        raise PathRuleViolation(field_name, path)
    segments = path.rstrip("/").split("/")
    if any(seg in ("", ".", "..") for seg in segments):
        raise PathRuleViolation(field_name, path)


def path_bytes(path: str, field_name: str = "path") -> bytes:
    """UTF-8 bytes of a package path, the digest's sort key; other names are refused."""
    try:
        return path.encode("utf-8")
    except UnicodeEncodeError:
        raise PathRuleViolation(field_name, path) from None


def package_files(root: str | Path) -> list[tuple[str, str]]:
    """``(package path, file system path)`` of every regular file under ``root``.

    The one package walker, in digest order; refuses symlinks, special files
    and names that are not UTF-8.
    """
    root = Path(root)
    if not root.is_dir() or root.is_symlink():
        raise NotADirectory(str(root))
    files: list[tuple[str, str]] = []
    stack = [""]
    while stack:
        prefix = stack.pop()
        try:
            entries = list(os.scandir(os.path.join(root, prefix)))
        except OSError as exc:
            raise UnreadableFile(os.path.join(root, prefix), str(exc)) from exc
        for entry in entries:
            if entry.is_symlink():
                raise SymlinkEncountered(entry.path)
            if entry.is_dir(follow_symlinks=False):
                stack.append(prefix + entry.name + "/")
            elif entry.is_file(follow_symlinks=False):
                files.append((prefix + entry.name, entry.path))
            else:
                raise UnreadableFile(entry.path, "not a regular file or directory")
    files.sort(key=lambda item: path_bytes(item[0], "package file"))
    return files


def stream_sha256(fh, buffer: bytearray, out=None, limit: int | None = None) -> tuple[bytes, int]:
    """SHA-256 and length of what is left in binary file ``fh``, read into ``buffer`` a chunk at a time.

    The one chunked read loop: each filled chunk is also written to ``out``
    when one is given. With a ``limit``, reading stops at the first chunk
    that takes the length past it, which is then neither hashed nor written,
    so a returned length over ``limit`` means the rest went unread.
    """
    hasher = hashlib.sha256()
    size = 0
    view = memoryview(buffer)
    while n := fh.readinto(view):
        size += n
        if limit is not None and size > limit:
            break
        chunk = view[:n]
        hasher.update(chunk)
        if out is not None:
            out.write(chunk)
    return hasher.digest(), size


def file_sha256(path: str | Path, buffer: bytearray) -> tuple[bytes, int]:
    try:
        with open(path, "rb", buffering=0) as fh:  # readinto fills ``buffer`` straight from the file
            return stream_sha256(fh, buffer)
    except OSError as exc:
        raise UnreadableFile(str(path), str(exc)) from exc


def digest_entries(entries: Iterable[tuple[str, bytes, int]]) -> PackageDigest:
    """The package digest of distinct ``(path, SHA-256(content), size)`` triples, in any order."""
    leaves = sorted((path_bytes(path), content_hash, size) for path, content_hash, size in entries)
    top = hashlib.sha256(b"\x01")
    for path, content_hash, _size in leaves:
        top.update(hashlib.sha256(b"\x00" + path + b"\x00" + content_hash).digest())
    return PackageDigest(top.digest(), len(leaves), sum(size for *_, size in leaves))


def digest_package(root: str | Path) -> PackageDigest:
    """Compute the canonical digest of the file tree under ``root``.

    Deterministic across platforms and enumeration orders; sensitive to any
    change in any file path or content byte. Contents must not change while
    this runs.
    """
    buffer = bytearray(CHUNK)
    return digest_entries((rel, *file_sha256(path, buffer)) for rel, path in package_files(root))


def load_manifest(root: str | Path) -> PackageManifest:
    """Parse and validate ``attestrep.manifest`` at the top of ``root``.

    Line-oriented ``key = value``; ``#`` starts a comment line. Keys:
    ``entrypoint`` (required, once), ``output`` and ``env`` (repeatable,
    ``env`` values are ``name@version``), ``meta.<k>`` (repeatable).
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ManifestMissing(str(root))

    entrypoint: str | None = None
    outputs: list[str] = []
    env_spec: list[tuple[str, str]] = []
    metadata: dict[str, str] = {}

    try:
        text = manifest_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestParseError(0, f"cannot read manifest: {exc}") from exc

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestParseError(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ManifestParseError(lineno, "empty key or value")
        if key == "entrypoint":
            if entrypoint is not None:
                raise ManifestParseError(lineno, "duplicate entrypoint")
            entrypoint = value
        elif key == "output":
            outputs.append(value)
        elif key == "env":
            name, sep, version = value.partition("@")
            if not sep or not name or not version:
                raise ManifestParseError(lineno, "env entries must be name@version")
            env_spec.append((name, version))
        elif key.startswith("meta."):
            meta_key = key[len("meta."):]
            if not meta_key:
                raise ManifestParseError(lineno, "empty meta key")
            metadata[meta_key] = value
        else:
            raise ManifestParseError(lineno, f"unknown key {key!r}")

    if entrypoint is None:
        raise ManifestParseError(0, "missing required key 'entrypoint'")

    return PackageManifest(
        entrypoint=entrypoint,
        declared_outputs=tuple(outputs),
        env_spec=tuple(env_spec),
        metadata=metadata,
    )
