from __future__ import annotations

import hashlib
import os
import random
import shutil
from pathlib import Path

import pytest

from attestrep.package_model import (
    ManifestMissing,
    ManifestParseError,
    NotADirectory,
    PackageDigest,
    PathRuleViolation,
    SymlinkEncountered,
    UnreadableFile,
    digest_package,
    load_manifest,
    validate_relative_path,
)
from oracles import naive_tree_digest

# frozen from the independent oracle before the module was written
EMPTY_TREE_DIGEST = "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"
TWO_FILE_DIGEST = "1e521bf399733a3b4988da9863e3142bab4ebb5b2ed6533d0357f384baf82111"
TWO_FILE_MUTATED_DIGEST = "f4d6d92f4c4b363df743080737aabaedf52dba6d3e686c42a72e68cb9d800da9"


def _write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    return root


def _random_tree(rng: random.Random, root: Path, max_files: int = 20, max_size: int = 4096) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for i in range(rng.randint(1, max_files)):
        depth = rng.randint(0, 3)
        parts = [f"d{rng.randint(0, 4)}" for _ in range(depth)] + [f"f{i}.bin"]
        target = root.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(rng.randbytes(rng.randint(0, max_size)))
    return root


def test_empty_directory_digest(tmp_path: Path) -> None:
    digest = digest_package(tmp_path)
    assert digest.value.hex() == EMPTY_TREE_DIGEST
    assert digest.value == hashlib.sha256(b"\x01").digest()
    assert digest.file_count == 0
    assert digest.total_bytes == 0


def test_two_file_tree_matches_oracle_frozen_value(tmp_path: Path) -> None:
    _write_tree(tmp_path, {"a.txt": b"x", "b/c.txt": b"y"})
    digest = digest_package(tmp_path)
    assert digest.value.hex() == TWO_FILE_DIGEST
    assert digest.value.hex() == naive_tree_digest(str(tmp_path))
    assert digest.file_count == 2
    assert digest.total_bytes == 2


def test_single_byte_change_changes_digest(tmp_path: Path) -> None:
    _write_tree(tmp_path, {"a.txt": b"x", "b/c.txt": b"y"})
    before = digest_package(tmp_path)
    (tmp_path / "b/c.txt").write_bytes(b"z")
    after = digest_package(tmp_path)
    assert after.value.hex() == TWO_FILE_MUTATED_DIGEST
    assert before.value != after.value


def test_path_rename_changes_digest(tmp_path: Path) -> None:
    _write_tree(tmp_path, {"a.txt": b"x"})
    before = digest_package(tmp_path)
    (tmp_path / "a.txt").rename(tmp_path / "b.txt")
    assert digest_package(tmp_path).value != before.value


def test_determinism_across_locations(tmp_path: Path) -> None:
    source = _write_tree(tmp_path / "src", {"a.txt": b"x", "deep/nested/f.bin": b"\x00\x01"})
    copy = tmp_path / "elsewhere" / "copy"
    shutil.copytree(source, copy)
    assert digest_package(source) == digest_package(copy)
    assert digest_package(source) == digest_package(source)


def test_empty_directories_and_permissions_ignored(tmp_path: Path) -> None:
    _write_tree(tmp_path, {"a.txt": b"x"})
    before = digest_package(tmp_path)
    (tmp_path / "empty_dir").mkdir()
    (tmp_path / "a.txt").chmod(0o755)
    assert digest_package(tmp_path) == before


def test_creation_order_does_not_matter(tmp_path: Path) -> None:
    files = {f"f{i}.txt": bytes([i]) for i in range(10)}
    first = _write_tree(tmp_path / "one", files)
    second = (tmp_path / "two")
    second.mkdir()
    for rel in reversed(sorted(files)):
        (second / rel).write_bytes(files[rel])
    assert digest_package(first) == digest_package(second)


def test_oracle_equivalence_on_random_trees(tmp_path: Path) -> None:
    rng = random.Random(0xD16E57)
    for i in range(40):
        tree = _random_tree(rng, tmp_path / f"t{i}")
        assert digest_package(tree).value.hex() == naive_tree_digest(str(tree))


def test_avalanche_property(tmp_path: Path) -> None:
    # >= 1000 single-byte mutations across random trees, digest must move every time
    rng = random.Random(0xA7A1A)
    trials = 0
    for i in range(50):
        tree = _random_tree(rng, tmp_path / f"t{i}", max_size=256)
        files = [p for p in tree.rglob("*") if p.is_file() and p.stat().st_size > 0]
        if not files:
            continue
        baseline = digest_package(tree).value
        for _ in range(21):
            victim = rng.choice(files)
            data = bytearray(victim.read_bytes())
            pos = rng.randrange(len(data))
            old = data[pos]
            data[pos] ^= rng.randint(1, 255)
            victim.write_bytes(bytes(data))
            assert digest_package(tree).value != baseline
            data[pos] = old
            victim.write_bytes(bytes(data))
            trials += 1
    assert trials >= 1000


def test_not_a_directory(tmp_path: Path) -> None:
    target = tmp_path / "file.txt"
    target.write_text("x")
    with pytest.raises(NotADirectory):
        digest_package(target)
    with pytest.raises(NotADirectory):
        digest_package(tmp_path / "missing")


def test_symlink_refused(tmp_path: Path) -> None:
    _write_tree(tmp_path, {"a.txt": b"x"})
    (tmp_path / "link").symlink_to(tmp_path / "a.txt")
    with pytest.raises(SymlinkEncountered):
        digest_package(tmp_path)


def test_special_file_refused(tmp_path: Path) -> None:
    os.mkfifo(tmp_path / "pipe")
    with pytest.raises(UnreadableFile):
        digest_package(tmp_path)


def test_non_utf8_file_name_refused(tmp_path: Path) -> None:
    (tmp_path / "ok.txt").write_bytes(b"x")
    (tmp_path / "d").mkdir()
    with open(os.path.join(os.fsencode(tmp_path / "d"), b"\xff.txt"), "wb") as fh:
        fh.write(b"y")
    with pytest.raises(PathRuleViolation):
        digest_package(tmp_path)


def test_digest_value_must_be_32_bytes() -> None:
    with pytest.raises(ValueError):
        PackageDigest(value=b"\x00" * 31, file_count=0, total_bytes=0)


class TestManifest:
    def test_parse_full(self, tmp_path: Path) -> None:
        (tmp_path / "attestrep.manifest").write_text(
            "# demo package\n"
            "entrypoint = run.sh\n"
            "output = results/\n"
            "output = tables/*.csv\n"
            "env = python@3.10\n"
            "env = numpy@1.26\n"
            "meta.title = A study\n"
            "meta.doi = 10.1000/x\n"
        )
        manifest = load_manifest(tmp_path)
        assert manifest.entrypoint == "run.sh"
        assert manifest.declared_outputs == ("results/", "tables/*.csv")
        assert manifest.env_spec == (("python", "3.10"), ("numpy", "1.26"))
        assert manifest.metadata == {"title": "A study", "doi": "10.1000/x"}

    def test_missing_manifest(self, tmp_path: Path) -> None:
        with pytest.raises(ManifestMissing):
            load_manifest(tmp_path)

    def test_escaping_entrypoint_rejected(self, tmp_path: Path) -> None:
        (tmp_path / "attestrep.manifest").write_text("entrypoint = ../escape.sh\n")
        with pytest.raises(PathRuleViolation):
            load_manifest(tmp_path)

    def test_absolute_output_rejected(self, tmp_path: Path) -> None:
        (tmp_path / "attestrep.manifest").write_text("entrypoint = run.sh\noutput = /etc\n")
        with pytest.raises(PathRuleViolation):
            load_manifest(tmp_path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("entrypoint run.sh\n", 1),
            ("entrypoint = run.sh\nentrypoint = other.sh\n", 2),
            ("entrypoint = run.sh\nenv = numpy\n", 2),
            ("entrypoint = run.sh\nmystery = 1\n", 2),
            ("entrypoint = run.sh\nmeta. = 1\n", 2),
            ("entrypoint =\n", 1),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path: Path, body: str, line: int) -> None:
        (tmp_path / "attestrep.manifest").write_text(body)
        with pytest.raises(ManifestParseError) as excinfo:
            load_manifest(tmp_path)
        assert excinfo.value.line == line

    def test_entrypoint_required(self, tmp_path: Path) -> None:
        (tmp_path / "attestrep.manifest").write_text("output = results/\n")
        with pytest.raises(ManifestParseError):
            load_manifest(tmp_path)


@pytest.mark.parametrize(
    "path",
    ["a.txt", "results/", "deep/a/b/c.bin", "weird name.txt", "dot.file"],
)
def test_valid_paths(path: str) -> None:
    validate_relative_path(path, "test")


@pytest.mark.parametrize(
    "path",
    ["/abs", "../up", "a/../b", "a//b", "", "a\\b", "a/\x00b", ".."],
)
def test_invalid_paths(path: str) -> None:
    with pytest.raises(PathRuleViolation):
        validate_relative_path(path, "test")
