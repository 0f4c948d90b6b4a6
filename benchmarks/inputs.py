"""Seeded inputs for the benchmark and the oracles that check the results.

Nothing here imports ``attestrep``: the digests, the canonical JSON encoding
and the expected outputs are computed the slow, obvious way, so that a
result the program gets wrong cannot also be "expected" by the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import tarfile
from dataclasses import dataclass
from pathlib import Path

MANIFEST = "attestrep.manifest"
ENTRYPOINT = "run.sh"
IMAGE_DOMAIN = b"attestrep-image-v1"


@dataclass(frozen=True)
class Shape:
    """What every package of one kind looks like; only the bytes differ."""

    small_files: int
    small_min: int
    small_max: int
    big_files: int
    big_bytes: int
    small_outputs: int
    big_output: bool


# ~2,000 files of ~1 KiB plus 3 x 4 MiB; writes 100 small outputs and one 4 MiB output.
AUTHOR = Shape(small_files=2000, small_min=512, small_max=1536, big_files=3, big_bytes=4 << 20,
               small_outputs=100, big_output=True)
# The author lane's package where the author path is not the workload's own: 200 files
# and 1 MiB, enough file-system work per attest that one stalled call does not decide its time.
MEDIUM = Shape(small_files=200, small_min=512, small_max=1536, big_files=1, big_bytes=1 << 20,
               small_outputs=10, big_output=True)
# The portal's everyday submission and the reader corpus's source runs.
TINY = Shape(small_files=8, small_min=64, small_max=512, big_files=0, big_bytes=0,
             small_outputs=2, big_output=False)
# The few large archived packages that set the public-verify tail: 8 x 4 MiB.
LARGE = Shape(small_files=64, small_min=512, small_max=1536, big_files=8, big_bytes=4 << 20,
              small_outputs=2, big_output=False)


@dataclass(frozen=True)
class Package:
    root: Path
    name: str
    files: int
    total_bytes: int
    digest: bytes          # naive tree digest of what was written
    output_digest: bytes   # naive digest of what the entrypoint must write
    output_bytes: int


def _entrypoint(name: str, shape: Shape) -> str:
    lines = [
        "mkdir -p out",
        "i=0",
        f"while [ $i -lt {shape.small_outputs} ]; do",
        f"  printf 'row %d of {name}\\n' $i > out/r$i.txt",
        "  i=$((i+1))",
        "done",
    ]
    if shape.big_output:
        lines.append("cat data/big/b0.bin > out/big.bin")
    return "\n".join(lines) + "\n"


def _fixed_files(name: str, shape: Shape) -> dict[str, bytes]:
    return {
        MANIFEST: (f"entrypoint = {ENTRYPOINT}\noutput = out/\nmeta.title = {name}\n").encode(),
        ENTRYPOINT: _entrypoint(name, shape).encode(),
        "salt.txt": f"{name}\n".encode(),
    }


def layout(shape: Shape, rng: random.Random) -> dict[str, int]:
    """Data file paths and sizes of one package; fixed for the life of a tree."""
    files = {f"data/small/d{i % 32:02d}/f{i:04d}.bin": rng.randint(shape.small_min, shape.small_max)
             for i in range(shape.small_files)}
    files.update({f"data/big/b{i}.bin": shape.big_bytes for i in range(shape.big_files)})
    return files


def package_files(name: str, shape: Shape, rng: random.Random) -> dict[str, bytes]:
    """Every file of a fresh package called ``name``, contents included."""
    files = _fixed_files(name, shape)
    files.update({rel: rng.randbytes(size) for rel, size in layout(shape, rng).items()})
    return files


HEAD = 4096


class Tree:
    """One package directory that holds a stream of packages of one shape.

    Every package keeps the tree's paths and sizes and gets fresh bytes, so no
    two are alike and the stream does not pay the file system's file-creation
    cost outside the program. Files are rewritten in place. A file larger than
    ``HEAD`` gets its first part once and fresh last ``HEAD`` bytes per
    package; the tree keeps only the hash state of that first part, so the
    benchmark holds no package contents between packages.
    """

    def __init__(self, root: Path, shape: Shape, rng: random.Random) -> None:
        self.root, self.shape, self.rng = root, shape, rng
        self.sizes = layout(shape, rng)
        self._first_part = {}  # path -> sha256 state of the file's fixed first part

    def next(self, name: str) -> Package:
        fixed = _fixed_files(name, self.shape)
        for rel, data in fixed.items():
            self._write(rel, data, 0, truncate=True)
        hashes = {rel: hashlib.sha256(data).digest() for rel, data in fixed.items()}
        for rel, size in self.sizes.items():
            if size <= HEAD:
                data = self.rng.randbytes(size)
                self._write(rel, data, 0)
                hashes[rel] = hashlib.sha256(data).digest()
                continue
            if rel not in self._first_part:  # written in 1 MiB pieces, so no copy of the file is held
                state = hashlib.sha256()
                for offset in range(0, size - HEAD, 1 << 20):
                    piece = self.rng.randbytes(min(1 << 20, size - HEAD - offset))
                    self._write(rel, piece, offset)
                    state.update(piece)
                self._first_part[rel] = state
            last = self.rng.randbytes(HEAD)
            self._write(rel, last, size - HEAD)
            state = self._first_part[rel].copy()
            state.update(last)
            hashes[rel] = state.digest()
        small = _small_outputs(name, self.shape)
        outputs = {rel: hashlib.sha256(text).digest() for rel, text in small.items()}
        output_bytes = sum(len(text) for text in small.values())
        if self.shape.big_output:  # the entrypoint copies data/big/b0.bin
            outputs["out/big.bin"] = hashes["data/big/b0.bin"]
            output_bytes += self.sizes["data/big/b0.bin"]
        return Package(root=self.root, name=name, files=len(hashes),
                       total_bytes=sum(len(data) for data in fixed.values()) + sum(self.sizes.values()),
                       digest=_combine(hashes), output_digest=_combine(outputs), output_bytes=output_bytes)

    def _write(self, rel: str, data: bytes, offset: int, truncate: bool = False) -> None:
        path = self.root / rel
        flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if truncate else 0)
        try:
            fd = os.open(path, flags, 0o644)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o644)
        try:
            os.pwrite(fd, data, offset)
        finally:
            os.close(fd)


def _small_outputs(name: str, shape: Shape) -> dict[str, bytes]:
    """The small files the generated entrypoint must leave under ``out/``."""
    return {f"out/r{i}.txt": f"row {i} of {name}\n".encode() for i in range(shape.small_outputs)}


def make_tar(files: dict[str, bytes]) -> bytes:
    """A plain ustar archive of ``files``, as an author's own tar tool might write it."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for rel in sorted(files):
            info = tarfile.TarInfo(rel)
            info.size = len(files[rel])
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(files[rel]))
    return buffer.getvalue()


def naive_digest(files: dict[str, bytes]) -> bytes:
    """SHA-256(0x01 || leaf...) over leaves SHA-256(0x00 || path || 0x00 || SHA-256(content)),
    paths sorted by their UTF-8 bytes."""
    return _combine({rel: hashlib.sha256(data).digest() for rel, data in files.items()})


def _combine(content_hashes: dict[str, bytes]) -> bytes:
    top = hashlib.sha256(b"\x01")
    for rel in sorted(content_hashes, key=lambda p: p.encode("utf-8")):
        top.update(hashlib.sha256(b"\x00" + rel.encode("utf-8") + b"\x00" + content_hashes[rel]).digest())
    return top.digest()


def tree_digest(root: Path) -> bytes:
    """The naive digest of the regular files under ``root``, read one at a time."""
    hashes: dict[str, bytes] = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                hashes[os.path.relpath(full, root).replace(os.sep, "/")] = hashlib.file_digest(fh, "sha256").digest()
    return _combine(hashes)


def tar_digest(data: bytes) -> bytes:
    """The naive digest of the regular members of a tar archive, read with ``tarfile``."""
    hashes: dict[str, bytes] = {}
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as tar:
        for member in tar.getmembers():
            if member.isreg():
                hashes[member.name] = hashlib.file_digest(tar.extractfile(member), "sha256").digest()
    return _combine(hashes)


def canonical(obj) -> bytes:
    """Sorted keys, no whitespace, UTF-8: the encoding hashes and signatures cover."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


def bundle_id(body: dict) -> str:
    """SHA-256 of the canonical bundle body without ``bundle_id``."""
    return hashlib.sha256(canonical({k: v for k, v in body.items() if k != "bundle_id"})).hexdigest()


def report_data(package_digest: bytes, output_digest: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(package_digest + output_digest + nonce).digest() + b"\x00" * 32


def measurement(package_digest: bytes) -> bytes:
    return hashlib.sha256(IMAGE_DOMAIN + package_digest).digest()


def audit_chain_ok(entries: list[dict], known: dict[int, str]) -> bool:
    """Entries are contiguous in seq, each hash recomputes and links to the one before.

    ``known`` maps seq to entry hashes seen earlier; a tail must agree with it.
    """
    for i, entry in enumerate(entries):
        if i and entry["seq"] != entries[i - 1]["seq"] + 1:
            return False
        prev = bytes.fromhex(entry["prev_hash"])
        if hashlib.sha256(prev + canonical(entry["event"])).hexdigest() != entry["entry_hash"]:
            return False
        before = entries[i - 1]["entry_hash"] if i else known.get(entry["seq"] - 1)
        if before is not None and before != entry["prev_hash"]:
            return False
        if known.get(entry["seq"], entry["entry_hash"]) != entry["entry_hash"]:
            return False
    return True
