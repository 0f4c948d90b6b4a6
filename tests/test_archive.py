"""The in-memory archive digest against the tree walker, the unpacker and the oracle."""

from __future__ import annotations

import bz2
import gzip
import hashlib
import io
import lzma
import random
import tarfile
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep import archive
from attestrep.archive import ArchiveMalformed, digest_archive, pack_tree, unpack_archive
from attestrep.package_model import digest_package
from attestrep.portal.core import Portal
from oracles import naive_tree_digest

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "answer42"
# SHA-256 of pack_tree(fixtures/answer42), frozen before pack_tree moved onto the
# package walker: the archive bytes of a tree must never change
ANSWER42_TAR_SHA256 = "e394391742b567be8dbf90b5e8947182460ae6e6b79dca87eae22f9272f14c5f"


def make_tar(members: list[tuple[str, bytes | None]]) -> bytes:
    """A tar of ``(name, content)`` members in order; ``None`` content is a directory.

    Names are written verbatim, so a lone surrogate such as ``\\udcff`` becomes
    the raw byte 0xff.
    """
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.GNU_FORMAT, encoding="utf-8") as tar:
        for name, content in members:
            info = tarfile.TarInfo(name)
            if content is None:
                info.type = tarfile.DIRTYPE
                tar.addfile(info)
            else:
                info.size = len(content)
                tar.addfile(info, io.BytesIO(content))
    return buffer.getvalue()


def _random_tree(rng: random.Random, root: Path) -> Path:
    names = ["a", "b", "Z", "a-b", "a.b", "é", "日本", "~"]
    root.mkdir(parents=True)
    for i in range(rng.randint(0, 25)):
        parts = [rng.choice(names) for _ in range(rng.randint(0, 3))] + [f"{rng.choice(names)}{i}"]
        target = root.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(rng.randbytes(rng.randint(0, 3000)))
        if rng.random() < 0.3:
            target.chmod(0o755)
    return root


def test_pack_tree_bytes_frozen() -> None:
    assert hashlib.sha256(pack_tree(FIXTURE)).hexdigest() == ANSWER42_TAR_SHA256


def test_digest_archive_matches_oracle_on_random_trees(tmp_path: Path) -> None:
    rng = random.Random(0xA7C41)
    for i in range(40):
        tree = _random_tree(rng, tmp_path / f"t{i}")
        digest = digest_archive(pack_tree(tree))
        assert digest.value.hex() == naive_tree_digest(str(tree))
        assert digest == digest_package(tree)


def test_digest_archive_streams_large_members(tmp_path: Path) -> None:
    (tmp_path / "big.bin").write_bytes(random.Random(3).randbytes(3 * (1 << 20) + 17))
    digest = digest_archive(pack_tree(tmp_path))
    assert digest.value.hex() == naive_tree_digest(str(tmp_path))
    assert digest.total_bytes == 3 * (1 << 20) + 17


def test_digest_archive_ignores_directory_members_and_dot_slash() -> None:
    plain = digest_archive(make_tar([("a/b.txt", b"1"), ("c", b"2")]))
    dotted = digest_archive(make_tar([("./a", None), ("./a/b.txt", b"1"), ("./c", b"2"), ("empty", None)]))
    assert plain == dotted
    assert plain.file_count == 2 and plain.total_bytes == 2


def _dot_root_tar(root: Path) -> bytes:
    """What ``tar -C root -cf - .`` writes: a ``.`` directory member, then ``./``-prefixed members."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", format=tarfile.GNU_FORMAT) as tar:
        tar.add(root, arcname=".")
    return buffer.getvalue()


def test_archive_of_dot_is_read_like_its_tree(tmp_path: Path) -> None:
    data = _dot_root_tar(FIXTURE)
    assert tarfile.open(fileobj=io.BytesIO(data)).getnames()[0] == "."
    assert digest_archive(data) == digest_package(FIXTURE)
    unpack_archive(data, tmp_path / "out")
    assert digest_package(tmp_path / "out") == digest_package(FIXTURE)


@pytest.mark.parametrize("name", [".", "./."])
def test_regular_member_named_dot_is_refused(tmp_path: Path, name: str) -> None:
    data = make_tar([(name, b"x"), ("a", b"1")])
    with pytest.raises(ArchiveMalformed):
        digest_archive(data)
    with pytest.raises(ArchiveMalformed):
        unpack_archive(data, tmp_path / "out")


@pytest.mark.parametrize("compress", [gzip.compress, bz2.compress, lzma.compress], ids=["gzip", "bzip2", "xz"])
def test_compressed_archive_is_refused(compress, tmp_path: Path) -> None:
    # a compressed body would be read at its unpacked size: a few hundred KiB of zeros fill the 1 GiB cap
    data = compress(pack_tree(FIXTURE))
    with pytest.raises(ArchiveMalformed):
        digest_archive(data)
    with pytest.raises(ArchiveMalformed):
        unpack_archive(data, tmp_path / "out")
    portal = Portal(tmp_path / "store")
    with pytest.raises(ArchiveMalformed):
        portal.submit(data)
    assert portal.audit_entries() == []


def test_digest_archive_size_cap(monkeypatch: pytest.MonkeyPatch) -> None:
    data = make_tar([("a", b"12345"), ("b", b"6789")])
    monkeypatch.setattr(archive, "MAX_ARCHIVE_BYTES", 9)
    assert digest_archive(data).total_bytes == 9
    monkeypatch.setattr(archive, "MAX_ARCHIVE_BYTES", 8)
    with pytest.raises(ArchiveMalformed):
        digest_archive(data)


_TWO_MEMBERS = make_tar([("a.txt", b"1"), ("b.txt", b"2")])
_MEMBERS_END = 4 * 512  # two headers and two data blocks, then the end-of-archive zeros


def _bad_checksum_tail() -> bytes:
    """A second archive whose first header's checksum field is zeroed."""
    tail = bytearray(make_tar([("more.txt", b"more")]))
    tail[148:156] = bytes(8)
    return bytes(tail)


@pytest.mark.parametrize(
    "data",
    [
        _TWO_MEMBERS[:_MEMBERS_END] + _bad_checksum_tail(),
        _TWO_MEMBERS[:2 * 512 + 100],  # 100 bytes into the second header
        _TWO_MEMBERS[:_MEMBERS_END] + bytes(512) + make_tar([("more.txt", b"more")]),
    ],
    ids=["header-fails-its-checksum", "header-cut-off", "member-after-a-zero-block"],
)
def test_bytes_after_the_last_member_must_be_zeros(data: bytes, tmp_path: Path) -> None:
    # tarfile ends the member list at each of these as at the end of the archive, but GNU tar
    # skips a bad header and reads on, and `tar -i` lists more.txt past the zero block
    with pytest.raises(ArchiveMalformed, match="end-of-archive zeros"):
        digest_archive(data)
    with pytest.raises(ArchiveMalformed, match="end-of-archive zeros"):
        unpack_archive(data, tmp_path / "out")
    portal = Portal(tmp_path / "store")
    with pytest.raises(ArchiveMalformed):
        portal.submit(data)
    assert portal.audit_entries() == []


@pytest.mark.parametrize("data", [_TWO_MEMBERS[:_MEMBERS_END], _TWO_MEMBERS[:_MEMBERS_END + 100],
                                  _TWO_MEMBERS + bytes(10240)],
                         ids=["no-end-blocks", "part-of-a-zero-block", "more-zero-blocks"])
def test_any_run_of_zeros_may_end_an_archive(data: bytes) -> None:
    assert digest_archive(data) == digest_archive(_TWO_MEMBERS)
    assert digest_archive(data).file_count == 2


@pytest.mark.parametrize(
    "members",
    [
        [("a", b"1"), ("a/b", b"2")],
        [("a/b", b"2"), ("a", b"1")],
        [("a", None), ("a", b"1")],
        [("dup", b"1"), ("dup", b"2")],
        [("./dup", b"1"), ("dup", b"2")],
        [("x/", b"1")],
        [("\udcff.txt", b"1")],
        [("d\udcff", None)],
        [("../evil", b"1")],
    ],
    ids=["file-then-child", "child-then-file", "dir-then-file", "duplicate", "dot-slash-duplicate",
         "regular-trailing-slash", "non-utf8-file", "non-utf8-dir", "traversal"],
)
def test_digest_archive_refuses_ambiguous_members(members) -> None:
    with pytest.raises(ArchiveMalformed):
        digest_archive(make_tar(members))


# mostly good names, so that many lists are accepted; the rare ones break a rule
_SEGMENTS = st.sampled_from(["a", "b", "c", "d", "é"] * 3 + ["\udcff", "."])
_MEMBERS = st.lists(
    st.tuples(
        st.sampled_from(["", "./"]),
        st.lists(_SEGMENTS, min_size=1, max_size=3).map("/".join),
        st.sampled_from(["", "", "", "", "/"]),
        st.one_of(st.none(), st.binary(max_size=16)),
    ).map(lambda parts: (parts[0] + parts[1] + parts[2], parts[3])),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_MEMBERS)
def test_digest_archive_agrees_with_unpacked_tree(members) -> None:
    data = make_tar(members)
    with tempfile.TemporaryDirectory() as scratch:
        try:
            unpack_archive(data, scratch)
            expected = digest_package(scratch)
        except ArchiveMalformed:
            expected = None
    try:
        got = digest_archive(data)
    except ArchiveMalformed:
        got = None
    assert got == expected


def test_member_count_is_capped(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.setattr(archive, "MAX_MEMBERS", 6)
    members = [("d", None)] + [(f"d/f{i}", b"") for i in range(5)]  # a directory header counts too
    assert digest_archive(make_tar(members)).file_count == 5
    unpack_archive(make_tar(members), tmp_path / "at-cap")
    surplus = make_tar(members + [("d/f5", b"")])
    with pytest.raises(ArchiveMalformed, match="more than 6 members"):
        digest_archive(surplus)
    with pytest.raises(ArchiveMalformed, match="more than 6 members"):
        unpack_archive(surplus, tmp_path / "over-cap")


def test_member_cap_stops_before_the_remaining_headers(monkeypatch) -> None:
    monkeypatch.setattr(archive, "MAX_MEMBERS", 5)
    headers_read = []
    next_header = tarfile.TarFile.next

    def counted(self):
        headers_read.append(1)
        return next_header(self)

    monkeypatch.setattr(tarfile.TarFile, "next", counted)
    reads = []
    for count in (20, 2000):
        headers_read.clear()
        with pytest.raises(ArchiveMalformed):
            digest_archive(make_tar([(f"f{i}", b"") for i in range(count)]))
        reads.append(len(headers_read))
    assert reads[0] == reads[1]  # the refusal reads the same headers however many follow
