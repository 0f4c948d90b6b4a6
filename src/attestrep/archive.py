"""Package archive format: plain ustar tar, package path rules enforced.

A gzip, bzip2 or xz archive is refused as ``ArchiveMalformed``: nothing
writes one, and a few hundred KiB of compressed zeros unpack to the size cap.

Packing is deterministic (sorted paths, zeroed metadata) so archiving the
same tree twice gives identical bytes. Unpacking and in-memory digesting
share one strict reading, so an archive's digest always equals that of the
tree it unpacks to: only regular files and directories (no links of any
kind), names that follow the package path rules after one leading ``./``
is dropped, no name twice, no file that is also another member's
directory, no regular file named with a trailing ``/``, at most
``MAX_ARCHIVE_BYTES`` of file contents and at most ``MAX_MEMBERS`` members,
and nothing but zero bytes after the last member (the end-of-archive blocks,
or nothing when the archive ends on a block boundary), so a header that is
cut off or fails its checksum cannot end the archive early and leave bytes
no digest covers. Both limits are read when an archive is, not when this
module loads. Member headers are read one at a time and checked as they
come, so a refused archive is refused at its first bad or surplus member.
Member contents stream through one ``package_model.CHUNK``-sized buffer per
unpack or digest, so neither holds more than a chunk of any one file.
"""

from __future__ import annotations

import io
import os
import tarfile
from pathlib import Path

from attestrep import AttestrepError
from attestrep.package_model import (
    CHUNK,
    PackageDigest,
    PathRuleViolation,
    digest_entries,
    package_files,
    stream_sha256,
    validate_relative_path,
)


MAX_ARCHIVE_BYTES = 1 << 30
# Each header costs ~40 us and ~0.7 KiB to read, and an empty member is 512
# bytes, so a 1 GiB body could hold ~2M of them: ~80 s of CPU and over 1 GiB
# of memory. Real packages have hundreds to thousands of files; 100,000
# stays well above that and bounds a refusal to ~4 s and ~70 MiB.
MAX_MEMBERS = 100_000


class ArchiveMalformed(AttestrepError):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def pack_tree(root: str | Path) -> bytes:
    """Deterministic ustar archive of exactly the files ``digest_package`` covers, streamed."""
    files = [(rel, path, os.stat(path)) for rel, path in package_files(root)]
    # sized up front (headers, whole blocks, end padding): filled in place, never regrown by copies
    buffer = io.BytesIO(bytes(sum(512 + -(-st.st_size // 512) * 512 for *_, st in files) + 20480))
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.USTAR_FORMAT, encoding="utf-8") as tar:
        for rel, path, stat in files:
            info = tarfile.TarInfo(name=rel)  # mtime, uid, gid, uname and gname default to zero/empty
            info.size = stat.st_size
            info.mode = 0o755 if stat.st_mode & 0o100 else 0o644
            with open(path, "rb") as fh:
                tar.addfile(info, fh)
    buffer.truncate()
    return buffer.getvalue()


def _members(data: bytes) -> tuple[tarfile.TarFile, list[tuple[str, tarfile.TarInfo]]]:
    """The open archive and its checked ``(path, member)`` directories and regular files."""
    checked: list[tuple[str, tarfile.TarInfo]] = []
    names: set[str] = set()
    files: set[str] = set()
    dirs: set[str] = set()
    total = 0
    try:
        tar = tarfile.open(fileobj=io.BytesIO(data), mode="r:", encoding="utf-8")
        for count, member in enumerate(tar, 1):  # one header at a time, never the whole list first
            if count > MAX_MEMBERS:
                raise ArchiveMalformed(f"archive has more than {MAX_MEMBERS} members")
            name = member.name[2:] if member.name.startswith("./") else member.name
            if member.isdir() and name in ("", "."):  # the root itself, as `tar -cf - .` writes it
                continue
            if not (member.isdir() or (member.isreg() and not name.endswith("/"))):
                raise ArchiveMalformed(f"member {member.name!r} is not a regular file or directory")
            try:
                validate_relative_path(name, "archive member")
            except PathRuleViolation as exc:
                raise ArchiveMalformed(str(exc)) from exc
            segments = name.split("/")
            parents = {"/".join(segments[:i]) for i in range(1, len(segments))}
            if name in names or not files.isdisjoint(parents) or (member.isreg() and name in dirs):
                raise ArchiveMalformed(f"member {name!r} repeats a name or is both a file and a directory")
            names.add(name)
            dirs |= parents
            if member.isdir():
                dirs.add(name)
            else:
                files.add(name)
                total += member.size
                if total > MAX_ARCHIVE_BYTES:
                    raise ArchiveMalformed(f"archive exceeds {MAX_ARCHIVE_BYTES} bytes unpacked")
            checked.append((name, member))
    except tarfile.TarError as exc:
        raise ArchiveMalformed(f"unreadable tar: {exc}") from exc
    # tarfile ends the member list at a cut-off header or one that fails its checksum as it
    # does at the end-of-archive zeros; anything but zeros there would be bytes no digest covers
    if data.count(0, tar.offset) != len(data) - tar.offset:
        raise ArchiveMalformed(f"bytes after the last member at offset {tar.offset} are not end-of-archive zeros")
    return tar, checked


def unpack_archive(data: bytes, dest: str | Path) -> None:
    """Extract a package archive into ``dest``, refusing anything unsafe."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    tar, members = _members(data)
    buffer = bytearray(CHUNK)
    with tar:
        for name, member in members:
            target = dest / name
            if member.isdir():
                target.mkdir(parents=True, exist_ok=True)
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            with tar.extractfile(member) as source, target.open("wb") as out:
                stream_sha256(source, buffer, out)  # the one chunked copy; the caller digests the tree it wrote
            if member.mode & 0o100:
                target.chmod(0o755)


def digest_archive(data: bytes) -> PackageDigest:
    """In memory, ``digest_package`` of the tree ``unpack_archive`` would write; refuses what it refuses."""
    tar, members = _members(data)
    buffer = bytearray(CHUNK)
    with tar:
        return digest_entries(
            (name, *stream_sha256(tar.extractfile(member), buffer)) for name, member in members if member.isreg()
        )

