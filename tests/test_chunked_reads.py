"""File contents stream through one chunk-sized buffer: right at every chunk edge, flat in memory.

Digests, unpacked trees and output snapshots are checked against the naive
oracle and the source bytes at sizes on either side of ``CHUNK``; the
traced peaks of the four byte paths are checked on a package whose file and
output are each many chunks long.
"""

from __future__ import annotations

import random
import shutil
import tracemalloc
from pathlib import Path

import pytest

from attestrep import runner
from attestrep.archive import digest_archive, pack_tree, unpack_archive
from attestrep.package_model import CHUNK, digest_package, load_manifest
from attestrep.runner import OutputLimitExceeded, execute
from conftest import make_package, run_package
from oracles import naive_tree_digest

SIZES = (0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
_COPY_TO_RESULTS = "#!/bin/sh\nmkdir -p results\ncp data/* results/\n"


@pytest.fixture
def edge_package(tmp_path: Path) -> Path:
    """A package whose ``data/`` holds one file of each edge size, which its run copies to ``results/``."""
    root = make_package(tmp_path / "pkg", script=_COPY_TO_RESULTS)
    (root / "data").mkdir()
    rng = random.Random(0xC4C)
    for size in SIZES:
        (root / "data" / f"{size}.bin").write_bytes(rng.randbytes(size))
    return root


def _same_files(left: Path, right: Path) -> None:
    names = sorted(path.name for path in left.iterdir())
    assert names == sorted(path.name for path in right.iterdir())
    for name in names:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name


def test_digest_package_at_chunk_edges(edge_package: Path) -> None:
    assert digest_package(edge_package).value.hex() == naive_tree_digest(str(edge_package))


def test_archive_at_chunk_edges(edge_package: Path, tmp_path: Path) -> None:
    data = pack_tree(edge_package)
    expected = naive_tree_digest(str(edge_package))
    assert digest_archive(data).value.hex() == expected
    unpack_archive(data, tmp_path / "out")
    assert naive_tree_digest(str(tmp_path / "out")) == expected
    _same_files(tmp_path / "out" / "data", edge_package / "data")


def test_output_snapshot_at_chunk_edges(edge_package: Path, tmp_path: Path) -> None:
    record = run_package(edge_package, tmp_path / "work")
    assert record.exit_status == 0
    expected = tmp_path / "expected"
    shutil.copytree(edge_package / "data", expected / "results")
    assert record.output_digest.value.hex() == naive_tree_digest(str(expected))
    _same_files(tmp_path / "work" / "outputs" / "results", edge_package / "data")


def _writes(sizes: tuple[int, ...]) -> str:
    heads = "".join(f"head -c {size} /dev/zero > results/{i}.bin\n" for i, size in enumerate(sizes))
    return "#!/bin/sh\nmkdir -p results\n" + heads


@pytest.mark.parametrize("sizes", [(2 * CHUNK,), (CHUNK, CHUNK)], ids=["one-file", "across-files"])
def test_output_cap_inside_a_chunk(sizes: tuple[int, ...], tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    package = make_package(tmp_path / "pkg", script=_writes(sizes))
    monkeypatch.setattr(runner, "MAX_OUTPUT_BYTES", CHUNK + 1)
    with pytest.raises(OutputLimitExceeded):
        execute(package, load_manifest(package), work_dir=tmp_path / "work")


def test_output_at_the_cap_is_kept(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    package = make_package(tmp_path / "pkg", script=_writes((CHUNK + 1,)))
    monkeypatch.setattr(runner, "MAX_OUTPUT_BYTES", CHUNK + 1)
    assert execute(package, load_manifest(package), work_dir=tmp_path / "work").output_digest.total_bytes == CHUNK + 1


@pytest.fixture
def large_package(tmp_path: Path) -> Path:
    """A package with a 4 MiB file whose run copies it to a 4 MiB output."""
    root = make_package(tmp_path / "pkg", script="#!/bin/sh\nmkdir -p results\ncp big.bin results/\n")
    (root / "big.bin").write_bytes(random.Random(4).randbytes(4 << 20))
    return root


@pytest.mark.parametrize("operation", ["digest_package", "execute", "digest_archive", "unpack_archive"])
def test_byte_paths_hold_under_a_mebibyte(operation: str, large_package: Path, tmp_path: Path) -> None:
    data = pack_tree(large_package)
    manifest = load_manifest(large_package)
    calls = {
        "digest_package": lambda: digest_package(large_package),
        "execute": lambda: execute(large_package, manifest, work_dir=tmp_path / "work"),
        "digest_archive": lambda: digest_archive(data),
        "unpack_archive": lambda: unpack_archive(data, tmp_path / "out"),
    }
    tracemalloc.start()
    try:
        calls[operation]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{operation} peaked at {peak} traced bytes"
