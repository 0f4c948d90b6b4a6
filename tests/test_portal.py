from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tarfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from attestrep.archive import ArchiveMalformed, pack_tree, unpack_archive
from attestrep.bundle import parse_bundle
from attestrep.canonical import SchemaError, canonical_json_bytes
from attestrep.package_model import ManifestMissing, PathRuleViolation, UnreadableFile, digest_package
from attestrep.portal import (
    BlobCorrupt,
    BlobMissing,
    BlobStore,
    DuplicateSubmission,
    Portal,
    PortalConfig,
    Submission,
    UnknownSubmission,
    UnknownToken,
    WrongState,
    audit_check,
)
from attestrep.portal import audit
from attestrep.portal.audit import AuditEntry, AuditLog, AuditLogBroken
from attestrep.verifier import DIGEST_MISMATCH, verify_bundle
from conftest import PROVIDER_SEED, make_package


@pytest.fixture
def portal(tmp_path: Path) -> Portal:
    return Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)


@pytest.fixture
def archive(tmp_path: Path) -> bytes:
    return pack_tree(make_package(tmp_path / "answer42"))


def _tar(members: list[tuple[str, bytes]]) -> bytes:
    """Regular-file members written verbatim and in order; ``\\udcff`` is the byte 0xff."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", encoding="utf-8") as tar:
        for name, content in members:
            info = tarfile.TarInfo(name=name)
            info.size = len(content)
            tar.addfile(info, io.BytesIO(content))
    return buffer.getvalue()


class TestArchive:
    def test_pack_is_deterministic(self, tmp_path: Path) -> None:
        package = make_package(tmp_path / "pkg")
        assert pack_tree(package) == pack_tree(package)

    def test_round_trip_preserves_digest_and_exec_bit(self, tmp_path: Path, archive: bytes) -> None:
        source = tmp_path / "answer42"
        dest = tmp_path / "unpacked"
        unpack_archive(archive, dest)
        assert digest_package(dest) == digest_package(source)

    def test_rejects_traversal_members(self, tmp_path: Path) -> None:
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            info = tarfile.TarInfo(name="../evil.sh")
            info.size = 2
            tar.addfile(info, io.BytesIO(b"hi"))
        with pytest.raises(ArchiveMalformed):
            unpack_archive(buffer.getvalue(), tmp_path / "out")

    def test_rejects_symlink_members(self, tmp_path: Path) -> None:
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            info = tarfile.TarInfo(name="link")
            info.type = tarfile.SYMTYPE
            info.linkname = "/etc/passwd"
            tar.addfile(info)
        with pytest.raises(ArchiveMalformed):
            unpack_archive(buffer.getvalue(), tmp_path / "out")

    def test_rejects_garbage(self, tmp_path: Path) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(b"definitely not a tar", tmp_path / "out")

    def test_size_cap(self, tmp_path: Path, archive: bytes) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(archive, tmp_path / "out", max_bytes=4)

    @pytest.mark.parametrize("names", [["a", "a/b"], ["a/b", "a"]], ids=["file-then-child", "child-then-file"])
    def test_rejects_file_that_is_also_a_directory(self, tmp_path: Path, names: list[str]) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(_tar([(name, b"x") for name in names]), tmp_path / "out")

    @pytest.mark.parametrize("names", [["dup", "dup"], ["./dup", "dup"]], ids=["same", "dot-slash"])
    def test_rejects_duplicate_members(self, tmp_path: Path, names: list[str]) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(_tar([(name, bytes([i])) for i, name in enumerate(names)]), tmp_path / "out")

    def test_rejects_regular_member_with_trailing_slash(self, tmp_path: Path) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(_tar([("x/", b"x")]), tmp_path / "out")

    def test_rejects_non_utf8_member(self, tmp_path: Path) -> None:
        with pytest.raises(ArchiveMalformed):
            unpack_archive(_tar([("\udcff.txt", b"x")]), tmp_path / "out")

    def test_pack_refuses_non_utf8_name(self, tmp_path: Path) -> None:
        package = make_package(tmp_path / "pkg")
        with open(os.path.join(os.fsencode(package), b"\xff.txt"), "wb") as fh:
            fh.write(b"x")
        with pytest.raises(PathRuleViolation):
            pack_tree(package)

    def test_pack_refuses_fifo(self, tmp_path: Path) -> None:
        package = make_package(tmp_path / "pkg")
        os.mkfifo(package / "pipe")
        with pytest.raises(UnreadableFile):
            pack_tree(package)


class TestBlobStore:
    def test_put_get_round_trip(self, tmp_path: Path) -> None:
        store = BlobStore(tmp_path)
        key = store.put(b"hello")
        assert store.path(key).is_file()
        assert store.get(key) == b"hello"

    def test_key_is_sha256(self, tmp_path: Path) -> None:
        import hashlib

        store = BlobStore(tmp_path)
        assert store.put(b"x") == hashlib.sha256(b"x").hexdigest()

    def test_missing(self, tmp_path: Path) -> None:
        with pytest.raises(BlobMissing):
            BlobStore(tmp_path).get("00" * 32)

    def test_corruption_surfaced(self, tmp_path: Path) -> None:
        store = BlobStore(tmp_path)
        key = store.put(b"payload")
        path = store.path(key)
        path.write_bytes(b"Payload")
        with pytest.raises(BlobCorrupt):
            store.get(key)
        assert store.get_unverified(key) == b"Payload"


class TestSubmit:
    def test_valid_archive_received(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        assert submission.state == "Received"
        assert portal.get_submission(submission.submission_id) == submission
        assert portal.blobs.path(submission.archive_blob).is_file()

    def test_rapid_duplicate_rejected(self, portal: Portal, archive: bytes) -> None:
        first = portal.submit(archive, author_id="alice")
        with pytest.raises(DuplicateSubmission) as excinfo:
            portal.submit(archive, author_id="alice")
        assert excinfo.value.submission_id == first.submission_id

    def test_same_package_different_author_allowed(self, portal: Portal, archive: bytes) -> None:
        portal.submit(archive, author_id="alice")
        other = portal.submit(archive, author_id="bob")
        assert other.state == "Received"

    def test_duplicate_outside_window_allowed(self, tmp_path: Path, archive: bytes) -> None:
        fake_time = [1_700_000_000]
        portal = Portal(
            tmp_path / "store",
            config=PortalConfig(duplicate_window_seconds=60),
            provider_seed=PROVIDER_SEED,
            clock=lambda: fake_time[0],
        )
        portal.submit(archive, author_id="alice")
        fake_time[0] += 3600
        assert portal.submit(archive, author_id="alice").state == "Received"

    def test_submit_reads_no_records(self, portal: Portal, tmp_path: Path, monkeypatch) -> None:
        for i in range(5):
            portal.submit(pack_tree(make_package(tmp_path / f"pkg{i}", extra_files={"i.txt": f"{i}\n"})))
        from_dict = Submission.__dict__["from_dict"].__func__
        reads = []

        def counted(cls, obj):
            reads.append(obj["submission_id"])
            return from_dict(cls, obj)

        monkeypatch.setattr(Submission, "from_dict", classmethod(counted))
        portal.submit(pack_tree(make_package(tmp_path / "pkg5", extra_files={"i.txt": "5\n"})))
        with pytest.raises(DuplicateSubmission):
            portal.submit(pack_tree(tmp_path / "pkg0"))
        assert reads == []

    def test_failed_record_write_leaves_no_temp_file_and_no_record(
        self, portal: Portal, archive: bytes, monkeypatch
    ) -> None:
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).parent.name == "submissions":
                raise OSError(28, "No space left on device")
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            portal.submit(archive, author_id="alice")
        submissions = portal.store_dir / "submissions"
        assert [path.name for path in submissions.iterdir() if path.name.startswith(".tmp-")] == []
        assert portal._submissions == {}
        monkeypatch.setattr(os, "replace", replace)
        assert portal.submit(archive, author_id="alice").state == "Received"

    def test_missing_manifest(self, portal: Portal, tmp_path: Path) -> None:
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "code.py").write_text("print('hi')\n")
        with pytest.raises(ManifestMissing):
            portal.submit(pack_tree(bare))

    def test_malformed_archive(self, portal: Portal) -> None:
        with pytest.raises(ArchiveMalformed):
            portal.submit(b"not a tar")

    @pytest.mark.parametrize(
        "extra",
        [[("a", b"1"), ("a/b", b"2")], [("\udcff.txt", b"1")]],
        ids=["file-then-child", "non-utf8-name"],
    )
    def test_ambiguous_archive_is_malformed(self, portal: Portal, extra) -> None:
        manifest = ("attestrep.manifest", b"entrypoint = run.sh\noutput = out.txt\n")
        with pytest.raises(ArchiveMalformed):
            portal.submit(_tar([manifest, ("run.sh", b"echo 1 > out.txt\n"), *extra]))
        assert not list((portal.store_dir / "quarantine").iterdir())


class TestProcess:
    def test_success_path(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        assert done.state == "Proved"
        assert done.token is not None
        bundle = parse_bundle(portal.blobs.get(done.bundle_blob))
        assert done.token == bundle.token
        assert verify_bundle(
            portal.blobs.get(done.bundle_blob), [portal.provider.root_public_key], now=portal.clock()
        ).accepted

    def test_failing_entrypoint(self, portal: Portal, tmp_path: Path) -> None:
        package = make_package(tmp_path / "bad", script="#!/bin/sh\nexit 1\n")
        submission = portal.submit(pack_tree(package), author_id="alice")
        done = portal.process(submission.submission_id)
        assert done.state == "Failed"
        assert "NonZeroExit" in done.failure_reason

    def test_missing_outputs_fail(self, portal: Portal, tmp_path: Path) -> None:
        package = make_package(tmp_path / "empty", script="#!/bin/sh\ntrue\n")
        submission = portal.submit(pack_tree(package), author_id="alice")
        done = portal.process(submission.submission_id)
        assert done.state == "Failed"
        assert "NoDeclaredOutputsMatched" in done.failure_reason

    def test_fault_outside_the_package_hands_the_claim_back(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        submission_id = portal.submit(archive, author_id="alice").submission_id
        put, faults = portal.blobs.put, [OSError(28, "No space left on device")]

        def failing_put(data: bytes) -> str:
            if faults:
                raise faults.pop()
            return put(data)

        monkeypatch.setattr(portal.blobs, "put", failing_put)
        with pytest.raises(OSError):
            portal.process(submission_id)
        assert portal.get_submission(submission_id).state == "Received"
        assert Portal(portal.store_dir).get_submission(submission_id).state == "Received"
        assert portal.process(submission_id).state == "Proved"
        assert portal.audit_check().ok

    def test_failed_record_write_hands_the_claim_back(self, portal: Portal, tmp_path: Path, monkeypatch) -> None:
        package = make_package(tmp_path / "bad", script="#!/bin/sh\nexit 1\n")
        submission_id = portal.submit(pack_tree(package), author_id="alice").submission_id
        replace, faults = os.replace, [OSError(28, "No space left on device")]

        def failing_replace(src, dst):
            if faults and Path(dst).parent.name == "submissions":
                raise faults.pop()
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            portal.process(submission_id)  # the Failed record is not written
        assert portal.get_submission(submission_id).state == "Received"
        assert portal.process(submission_id).state == "Failed"
        assert portal.audit_check().ok

    def test_tree_changed_after_submit_fails(self, portal: Portal, tmp_path: Path) -> None:
        # the sandbox is runs/<id>/tree, so ../../../quarantine holds every other submission's tree
        victim = make_package(
            tmp_path / "victim",
            script="#!/bin/sh\nmkdir -p results\ncp data.txt results/\n",
            extra_files={"data.txt": "honest\n"},
        )
        forger = make_package(
            tmp_path / "forger",
            script="#!/bin/sh\nfor f in ../../../quarantine/*/data.txt; do echo forged > \"$f\"; done\n"
            "mkdir -p results\necho 42 > results/answer.txt\n",
        )
        victim_id = portal.submit(pack_tree(victim), author_id="alice").submission_id
        assert portal.process(portal.submit(pack_tree(forger), author_id="mallory").submission_id).state == "Proved"
        done = portal.process(victim_id)
        assert done.state == "Failed" and done.token is None
        assert done.failure_reason.startswith("PackageChanged: ")
        assert portal.audit_check().ok

    def test_double_process_rejected(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        portal.process(submission.submission_id)
        with pytest.raises(WrongState) as excinfo:
            portal.process(submission.submission_id)
        assert excinfo.value.current == "Proved"

    def test_concurrent_process_runs_the_package_once(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        import attestrep.portal.core as core

        submission_id = portal.submit(archive, author_id="alice").submission_id
        started, release = threading.Event(), threading.Event()
        runs, results = [], []
        execute = core.execute

        def held_execute(*args, **kwargs):
            runs.append(args[0])
            started.set()
            release.wait(5)
            return execute(*args, **kwargs)

        monkeypatch.setattr(core, "execute", held_execute)
        first = threading.Thread(target=lambda: results.append(portal.process(submission_id)))
        first.start()
        try:
            assert started.wait(5)
            with pytest.raises(WrongState) as excinfo:
                portal.process(submission_id)
            # answered while the first run is still held, not after it
            assert not release.is_set() and excinfo.value.current == "Running"
        finally:
            release.set()
            first.join(10)
        assert len(runs) == 1
        assert [done.state for done in results] == ["Proved"]

    def test_racing_callers_insert_and_claim_once(self, portal: Portal, archive: bytes) -> None:
        import sys

        def race(call) -> list:
            outcomes, lock = [], threading.Lock()

            def worker() -> None:
                try:
                    result = call()
                except (DuplicateSubmission, WrongState) as exc:
                    result = type(exc).__name__
                with lock:
                    outcomes.append(result)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            return outcomes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            submitted = race(lambda: portal.submit(archive, author_id="alice"))
            ids = [s.submission_id for s in submitted if isinstance(s, Submission)]
            assert len(ids) == 1 and submitted.count("DuplicateSubmission") == 7
            processed = race(lambda: portal.process(ids[0]).state)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(processed) == ["Proved"] + ["WrongState"] * 7

    def test_unknown_submission(self, portal: Portal) -> None:
        with pytest.raises(UnknownSubmission):
            portal.process("ff" * 32)

    @pytest.mark.parametrize("bad", ["../provider", "FF" * 32, "f" * 63, "f" * 65, "", "../submissions/" + "f" * 49])
    def test_ids_that_are_not_lowercase_hex_are_unknown(self, portal: Portal, bad: str) -> None:
        with pytest.raises(UnknownSubmission):
            portal.get_submission(bad)
        with pytest.raises(UnknownSubmission):
            portal.process(bad)

    @pytest.mark.parametrize("executable", [False, True], ids=["sh-entrypoint", "exec-entrypoint"])
    def test_relative_store_dir(self, tmp_path: Path, monkeypatch, executable: bool) -> None:
        package = make_package(tmp_path / "pkg")
        (package / "run.sh").chmod(0o755 if executable else 0o644)
        monkeypatch.chdir(tmp_path)
        portal = Portal("store", provider_seed=PROVIDER_SEED)
        done = portal.process(portal.submit(pack_tree(package)).submission_id)
        assert done.state == "Proved", done.failure_reason
        assert portal.public_verify(done.token).verdict.accepted


class TestPublicVerify:
    def test_accepts_archived_proof(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        result = portal.public_verify(done.token)
        assert result.verdict.accepted
        assert result.package_digest == submission.package_digest
        assert result.bundle is not None and result.bundle.token == done.token

    def test_unknown_token(self, portal: Portal) -> None:
        with pytest.raises(UnknownToken):
            portal.public_verify("aa" * 32)

    def test_tokens_that_are_not_lowercase_hex_are_unknown(self, portal: Portal, archive: bytes) -> None:
        done = portal.process(portal.submit(archive, author_id="alice").submission_id)
        for bad in (done.token.upper(), done.token[:-1], "../tokens/" + done.token, "../provider.json"):
            with pytest.raises(UnknownToken):
                portal.public_verify(bad)

    def test_digests_archive_in_memory(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        import attestrep.portal.core as core

        done = portal.process(portal.submit(archive, author_id="alice").submission_id)

        def forbidden(*args, **kwargs):
            raise AssertionError("public_verify must not touch the file system for the archive")

        monkeypatch.setattr(core, "unpack_archive", forbidden)
        monkeypatch.setattr(core.tempfile, "mkdtemp", forbidden)
        result = portal.public_verify(done.token)
        assert result.verdict.accepted
        assert result.package_digest == digest_package(portal.store_dir / "quarantine" / done.submission_id)

    def test_stale_token_file_not_served(self, tmp_path: Path, archive: bytes) -> None:
        # a token file left in the tokens/ directory of an older store must
        # not resolve to a bundle issued under a different token
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        done = portal.process(portal.submit(archive, author_id="alice").submission_id)
        stale = "bb" * 32
        (portal.store_dir / "tokens").mkdir(exist_ok=True)
        (portal.store_dir / "tokens" / stale).write_text(done.submission_id)
        for serving in (portal, Portal(tmp_path / "store")):
            with pytest.raises(UnknownToken):
                serving.public_verify(stale)
            assert serving.public_verify(done.token).verdict.accepted

    def test_tokens_directory_not_needed(self, tmp_path: Path, archive: bytes) -> None:
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        done = portal.process(portal.submit(archive, author_id="alice").submission_id)
        shutil.rmtree(portal.store_dir / "tokens", ignore_errors=True)
        assert portal.public_verify(done.token).verdict.accepted
        assert Portal(tmp_path / "store").public_verify(done.token).verdict.accepted
        assert not (portal.store_dir / "tokens").exists()

    def test_corrupted_package_blob_rejected(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        blob_path = portal.blobs.path(done.archive_blob)
        data = bytearray(blob_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(data))
        result = portal.public_verify(done.token)
        assert not result.verdict.accepted
        assert result.verdict.reason == DIGEST_MISMATCH

    def test_missing_package_blob_rejected(self, portal: Portal, archive: bytes) -> None:
        done = portal.process(portal.submit(archive, author_id="alice").submission_id)
        portal.blobs.path(done.archive_blob).unlink()
        result = portal.public_verify(done.token)
        assert not result.verdict.accepted
        assert result.verdict.reason == DIGEST_MISMATCH

    def test_corrupted_bundle_blob_rejected(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        blob_path = portal.blobs.path(done.bundle_blob)
        data = bytearray(blob_path.read_bytes())
        data[10] ^= 0x01
        blob_path.write_bytes(bytes(data))
        result = portal.public_verify(done.token)
        assert not result.verdict.accepted

    def test_verify_bundle_bytes_stateless(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        data = portal.blobs.get(done.bundle_blob)
        assert portal.verify_bundle_bytes(data).accepted
        assert not portal.verify_bundle_bytes(b"junk").accepted


class TestAudit:
    def test_empty_log_ok(self, tmp_path: Path) -> None:
        assert audit_check(AuditLog(tmp_path / "audit.log")).ok

    def test_chain_survives_all_operations(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        portal.public_verify(done.token)
        check = portal.audit_check()
        assert check.ok and check.broken_at is None

    def test_every_operation_appends(self, portal: Portal, archive: bytes) -> None:
        assert len(portal.audit_entries()) == 0
        submission = portal.submit(archive, author_id="alice")
        assert len(portal.audit_entries()) == 1  # submission-received
        done = portal.process(submission.submission_id)
        assert len(portal.audit_entries()) == 4  # + Running, proof-archived, Proved
        portal.public_verify(done.token)
        assert len(portal.audit_entries()) == 5  # + verification-served
        types = [entry.event["type"] for entry in portal.audit_entries()]
        assert types == [
            "submission-received",
            "state-changed",
            "proof-archived",
            "state-changed",
            "verification-served",
        ]

    def test_mutated_entry_detected_at_exact_seq(self, portal: Portal, archive: bytes) -> None:
        for i in range(5):
            package = make_package(
                portal.store_dir.parent / f"pkg{i}", extra_files={"data.txt": f"row {i}\n"}
            )
            submission = portal.submit(pack_tree(package), author_id="alice")
            portal.process(submission.submission_id)
        log_path = portal.audit_log.path
        lines = log_path.read_bytes().splitlines(keepends=True)
        target_seq = 7
        entry = json.loads(lines[target_seq])
        entry["event"]["type"] = "rewritten-history"
        from attestrep.canonical import canonical_json_bytes

        lines[target_seq] = canonical_json_bytes(entry) + b"\n"
        log_path.write_bytes(b"".join(lines))
        check = portal.audit_check()
        assert not check.ok
        assert check.broken_at == target_seq

    def test_from_seq_filter(self, portal: Portal, archive: bytes) -> None:
        submission = portal.submit(archive, author_id="alice")
        portal.process(submission.submission_id)
        tail = portal.audit_entries(from_seq=2)
        assert [entry.seq for entry in tail] == [2, 3]


    def test_log_bytes_are_frozen(self, tmp_path: Path) -> None:
        # the same operations under a fixed clock and seed write these bytes in every version
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED, clock=lambda: 1_700_000_000)
        portal.submit(pack_tree(make_package(tmp_path / "kept", extra_files={"data.txt": "zoë\n"})), author_id="zoë")
        empty = portal.submit(pack_tree(make_package(tmp_path / "empty", script="#!/bin/sh\ntrue\n")), author_id="alice")
        portal.process(empty.submission_id)
        portal.verify_bundle_bytes(b"junk")
        portal = Portal(tmp_path / "store", clock=lambda: 1_700_000_001)
        portal.verify_bundle_bytes(b"{}")
        data = portal.audit_log.path.read_bytes()
        assert len(data.splitlines()) == 6
        assert hashlib.sha256(data).hexdigest() == "6aa1faac190e0c8b44aa976a2a6096801161bc5da278232edbdd25079a194062"

    def test_reopen_with_malformed_line_raises(self, portal: Portal, archive: bytes) -> None:
        portal.process(portal.submit(archive, author_id="alice").submission_id)
        with portal.audit_log.path.open("ab") as fh:
            fh.write(b"not json\n")
        with pytest.raises(AuditLogBroken) as excinfo:
            Portal(portal.store_dir)
        assert excinfo.value.seq == 4 and str(excinfo.value) == "audit log broken at seq 4"

    def test_reopen_with_rewritten_event_raises_at_its_seq(self, portal: Portal, archive: bytes) -> None:
        portal.process(portal.submit(archive, author_id="alice").submission_id)
        path = portal.audit_log.path
        lines = path.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[2])
        entry["event"]["bundle_blob"] = "00" * 32
        lines[2] = canonical_json_bytes(entry) + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(AuditLogBroken) as excinfo:
            AuditLog(path)
        assert excinfo.value.seq == 2
        assert path.read_bytes() == b"".join(lines)  # nothing appended to a broken chain

    def test_tail_read_decodes_only_the_lines_it_returns(self, tmp_path: Path, monkeypatch) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(50):
            log.append({"type": "tick", "i": i})
        log = AuditLog(log.path)
        decoded = []

        def counted(text: str):
            decoded.append(text)
            return json.loads(text)

        monkeypatch.setattr(audit, "json", SimpleNamespace(loads=counted))
        tail = log.entries(from_seq=48)
        assert [(entry.seq, entry.event["i"]) for entry in tail] == [(48, 48), (49, 49)]
        assert len(decoded) == 2
        assert log.append({"type": "tick", "i": 50}).seq == 50
        assert [entry.seq for entry in log.entries(from_seq=49)] == [49, 50]
        assert log.entries(from_seq=51) == []

    def test_tail_read_checks_the_sequence(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(3):
            log.append({"i": i})
        data = log.path.read_bytes()
        log.path.write_bytes(data.replace(b'"seq":2', b'"seq":7'))
        with pytest.raises(AuditLogBroken) as excinfo:
            log.entries(from_seq=1)
        assert excinfo.value.seq == 2

    @pytest.mark.parametrize(
        "change",
        [{"seq": -1}, {"seq": True}, {"event": []}, {"prev_hash": "00"}, {"entry_hash": "AA" * 32}, {"extra": 1}],
        ids=["negative-seq", "bool-seq", "event-not-object", "short-hash", "upper-hex", "extra-key"],
    )
    def test_entry_schema(self, change: dict) -> None:
        entry = AuditEntry(seq=0, prev_hash=b"\0" * 32, event={"a": [1]}, entry_hash=b"\1" * 32)
        assert AuditEntry.from_dict(entry.to_dict()) == entry
        with pytest.raises(SchemaError):
            AuditEntry.from_dict({**entry.to_dict(), **change})


class TestLifecycleAndRecovery:
    def test_restart_preserves_identity_and_proofs(self, tmp_path: Path, archive: bytes) -> None:
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        submission = portal.submit(archive, author_id="alice")
        done = portal.process(submission.submission_id)
        root = portal.provider.root_public_key

        reopened = Portal(tmp_path / "store")
        assert reopened.provider.root_public_key == root
        assert reopened.public_verify(done.token).verdict.accepted
        assert reopened.audit_check().ok

    def test_interrupted_run_recovers_to_received(self, tmp_path: Path, archive: bytes) -> None:
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        submission = portal.submit(archive, author_id="alice")
        # simulate a crash mid-process: state persisted as Running, no result
        from dataclasses import replace

        portal._write_submission(replace(submission, state="Running"))

        reopened = Portal(tmp_path / "store")
        recovered = reopened.get_submission(submission.submission_id)
        assert recovered.state == "Received"
        done = reopened.process(submission.submission_id)
        assert done.state == "Proved"
        assert reopened.audit_check().ok
