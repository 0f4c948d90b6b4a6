from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from attestrep import archive as archive_module
from attestrep import runner
from attestrep.archive import MAX_ARCHIVE_BYTES, ArchiveMalformed, pack_tree, unpack_archive
from attestrep.bundle import parse_bundle
from attestrep.canonical import SchemaError, canonical_json_bytes
from attestrep.package_model import ManifestMissing, PathRuleViolation, UnreadableFile, digest_package
from attestrep.portal import audit, core
from attestrep.portal.audit import AuditEntry, AuditLog, AuditLogBroken, audit_check
from attestrep.portal.core import (
    DuplicateSubmission,
    Portal,
    Submission,
    UnknownSubmission,
    UnknownToken,
    WrongState,
)
from attestrep.portal.store import BlobCorrupt, BlobMissing, BlobStore
from attestrep.runner import execute
from attestrep.verifier import DIGEST_MISMATCH, verify_bundle
from conftest import LEGACY_STORE, PROVIDER_SEED, make_package


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


def _break_the_audit_log(portal: Portal) -> None:
    """Change line 0 under the open log and let a read find it: from then on the log refuses appends."""
    path = portal.audit_log.path
    path.write_bytes(path.read_bytes().replace(b'"seq":0', b'"seq":9', 1))
    with pytest.raises(AuditLogBroken):
        portal.audit_entries(0)


def _mend_the_audit_log(portal: Portal) -> None:
    """Undo ``_break_the_audit_log`` in the file, so that a portal can open the store again."""
    path = portal.audit_log.path
    path.write_bytes(path.read_bytes().replace(b'"seq":9', b'"seq":0', 1))


def _decoded(stored) -> list[AuditEntry]:
    """The ``AuditEntry`` of each stored line a read returned."""
    return [AuditEntry.from_dict(json.loads(entry.line)) for entry in stored]


def _replayed_states(portal: Portal) -> dict[str, str]:
    """Each submission's state replayed from the log; every step must be one the state machine allows.

    An event a ``commit-failed`` event names was never taken by a record, so it is skipped.
    """
    entries = _decoded(portal.audit_entries())
    voided = {entry.event["seq"] for entry in entries if entry.event["type"] == "commit-failed"}
    states: dict[str, str] = {}
    for entry in entries:
        event = entry.event
        if entry.seq in voided:
            continue
        if event["type"] == "submission-received":
            states[event["submission_id"]] = "Received"
        elif event["type"] == "state-changed":
            before = states[event["submission_id"]]
            assert event["state"] in core._TRANSITIONS[before], f"{before} -> {event['state']}"
            states[event["submission_id"]] = event["state"]
    return states


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

    def test_size_cap(self, tmp_path: Path, archive: bytes, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setattr(archive_module, "MAX_ARCHIVE_BYTES", 4)
        with pytest.raises(ArchiveMalformed):
            unpack_archive(archive, tmp_path / "out")

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
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED, clock=lambda: fake_time[0])
        portal.submit(archive, author_id="alice")
        fake_time[0] += core.DUPLICATE_WINDOW_SECONDS + 1
        assert portal.submit(archive, author_id="alice").state == "Received"

    def test_duplicate_at_exactly_the_window(self, tmp_path: Path, archive: bytes) -> None:
        fake_time = [1_700_000_000]
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED, clock=lambda: fake_time[0])
        first = portal.submit(archive, author_id="alice")
        fake_time[0] += core.DUPLICATE_WINDOW_SECONDS
        with pytest.raises(DuplicateSubmission) as excinfo:
            portal.submit(archive, author_id="alice")
        assert excinfo.value.submission_id == first.submission_id

    def test_duplicate_found_after_reopen(self, tmp_path: Path, archive: bytes) -> None:
        fake_time = [1_700_000_000]
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED, clock=lambda: fake_time[0])
        first = portal.submit(archive, author_id="alice")
        fake_time[0] += core.DUPLICATE_WINDOW_SECONDS + 1
        second = portal.submit(archive, author_id="alice")
        portal.submit(archive, author_id="bob")
        reopened = Portal(tmp_path / "store", clock=lambda: fake_time[0])
        with pytest.raises(DuplicateSubmission) as excinfo:
            reopened.submit(archive, author_id="alice")
        assert excinfo.value.submission_id == second.submission_id
        fake_time[0] -= 1  # now within the window of both: the older is named
        with pytest.raises(DuplicateSubmission) as excinfo:
            reopened.submit(archive, author_id="alice")
        assert excinfo.value.submission_id == first.submission_id

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

    def test_member_count_is_capped(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            count = len(tar.getmembers())
        monkeypatch.setattr(archive_module, "MAX_MEMBERS", count - 1)
        with pytest.raises(ArchiveMalformed):
            portal.submit(archive, author_id="alice")
        assert portal._submissions == {}
        monkeypatch.setattr(archive_module, "MAX_MEMBERS", count)
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

    def test_archive_is_digested_once_per_portal(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        done = portal.process(portal.submit(archive, author_id="alice").submission_id)
        digest_archive, calls = core.digest_archive, []

        def counted(data: bytes):
            calls.append(len(data))
            return digest_archive(data)

        monkeypatch.setattr(core, "digest_archive", counted)
        assert portal.public_verify(done.token).verdict.accepted
        assert portal.public_verify(done.token).verdict.accepted
        assert calls == [len(archive)]
        # the remembered digest never stands in for the content-address check
        blob_path = portal.blobs.path(done.archive_blob)
        data = bytearray(blob_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(data))
        assert portal.public_verify(done.token).verdict.reason == DIGEST_MISMATCH
        assert calls == [len(archive)]

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
        types = [entry.event["type"] for entry in _decoded(portal.audit_entries())]
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
        assert hashlib.sha256(data).hexdigest() == "f085bf75afd3d301ef69b76c7392ee24a0c869250c0b1eb3b354e227a4345845"

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
        decoded, hashed = [], []

        def counted_loads(text: str):
            decoded.append(text)
            return json.loads(text)

        def counted_sha256(data: bytes) -> bytes:
            hashed.append(data)
            return hashlib.sha256(data).digest()

        monkeypatch.setattr(audit, "json", SimpleNamespace(loads=counted_loads))
        monkeypatch.setattr(audit, "sha256", counted_sha256)
        tail = log.entries(from_seq=48)
        assert len(decoded) == 0 and len(hashed) == 2
        assert [(entry.seq, event.seq, event.event["i"]) for entry, event in zip(tail, _decoded(tail))] == [
            (48, 48, 48), (49, 49, 49)]
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

    def test_no_append_after_a_read_found_the_log_changed(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(3):
            log.append({"i": i})
        changed = log.path.read_bytes().replace(b'"seq":1', b'"seq":5')
        log.path.write_bytes(changed)
        with pytest.raises(AuditLogBroken):
            log.entries(from_seq=0)
        with pytest.raises(AuditLogBroken) as excinfo:
            log.append({"i": 3})
        assert excinfo.value.seq == 1
        assert log.path.read_bytes() == changed

    def test_a_line_rewritten_into_another_valid_entry_is_caught_by_the_next_read(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(3):
            log.append({"type": "tick", "i": i})
        lines = log.path.read_bytes().splitlines(keepends=True)
        rewritten = lines[1].replace(b'"i":1', b'"i":7')
        # canonical, the same length, and it parses as an entry that keeps its own seq
        assert canonical_json_bytes(json.loads(rewritten)) + b"\n" == rewritten != lines[1]
        assert AuditEntry.from_dict(json.loads(rewritten)).seq == 1 and len(rewritten) == len(lines[1])
        changed = lines[0] + rewritten + lines[2]
        log.path.write_bytes(changed)
        assert [entry.seq for entry in log.entries(from_seq=2)] == [2]  # this read does not cover the line
        with pytest.raises(AuditLogBroken) as excinfo:
            log.entries(from_seq=0)
        assert excinfo.value.seq == 1
        with pytest.raises(AuditLogBroken) as excinfo:
            log.append({"type": "tick", "i": 3})
        assert excinfo.value.seq == 1
        assert log.path.read_bytes() == changed

    def test_tail_read_skips_blank_lines_as_the_open_scan_does(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(3):
            log.append({"type": "tick", "i": i})
        lines = log.path.read_bytes().splitlines(keepends=True)
        log.path.write_bytes(b"\n" + lines[0] + b"\n" + lines[1] + b"  \r\n" + lines[2])
        log = AuditLog(log.path)
        stored = [line.removesuffix(b"\n") for line in lines]
        assert [(entry.seq, entry.line) for entry in log.entries(from_seq=0)] == list(enumerate(stored))
        assert [entry.seq for entry in log.entries(from_seq=1)] == [1, 2]
        assert log.append({"type": "tick", "i": 3}).seq == 3
        assert [entry.seq for entry in log.entries(from_seq=0)] == [0, 1, 2, 3]
        assert audit_check(log).ok

    def test_append_after_a_last_line_with_no_newline_starts_a_new_line(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(2):
            log.append({"type": "tick", "i": i})
        lines = log.path.read_bytes().splitlines(keepends=True)
        log.path.write_bytes(lines[0] + lines[1].removesuffix(b"\n"))
        log = AuditLog(log.path)
        assert log.append({"type": "tick", "i": 2}).seq == 2
        assert [entry.seq for entry in log.entries(from_seq=0)] == [0, 1, 2]
        assert audit_check(log).ok
        assert log.path.read_bytes().splitlines(keepends=True)[:2] == lines

    def test_kept_leaves_are_the_leaf_hashes_of_the_file_lines(self, tmp_path: Path) -> None:
        log = AuditLog(tmp_path / "audit.log")
        for i in range(20):
            log.append({"type": "note", "i": i, "text": "zoë \u2028 \"q\" " * i})
        for opened in (log, AuditLog(log.path)):
            lines = opened.path.read_bytes().split(b"\n")
            assert lines.pop() == b""
            assert bytes(opened._leaves) == b"".join(hashlib.sha256(b"\x00" + line).digest() for line in lines)
            for k in range(len(lines) + 1):
                assert [(entry.seq, entry.line) for entry in opened.entries(from_seq=k)] == list(enumerate(lines))[k:]

    def test_a_failed_append_is_cut_from_the_file(self, tmp_path: Path, monkeypatch) -> None:
        log = AuditLog(tmp_path / "audit.log")
        log.append({"type": "tick", "i": 0})
        committed = log.path.read_bytes()
        fsync, faults = os.fsync, [OSError(errno.EIO, "Input/output error")]

        def failing_fsync(fd: int) -> None:
            if faults:
                raise faults.pop()
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            log.append({"type": "tick", "i": 1})  # written, then its sync fails
        assert log.path.read_bytes() == committed
        assert log.append({"type": "tick", "i": 2}).seq == 1
        assert audit_check(log).ok
        assert [entry.event["i"] for entry in _decoded(AuditLog(log.path).entries())] == [0, 2]

    def test_a_failed_append_that_cannot_be_cut_refuses_the_next(self, tmp_path: Path, monkeypatch) -> None:
        log = AuditLog(tmp_path / "audit.log")
        log.append({"type": "tick", "i": 0})
        fsync, faults = os.fsync, [OSError(errno.EIO, "Input/output error")]

        def failing_fsync(fd: int) -> None:
            if faults:
                raise faults.pop()
            fsync(fd)

        def failing_truncate(path, length) -> None:
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        monkeypatch.setattr(os, "truncate", failing_truncate)
        with pytest.raises(OSError):
            log.append({"type": "tick", "i": 1})
        with pytest.raises(AuditLogBroken) as excinfo:
            log.append({"type": "tick", "i": 2})
        assert excinfo.value.seq == 1

    def test_refused_append_registers_no_submission(self, portal: Portal, archive: bytes, tmp_path: Path) -> None:
        received = portal.submit(archive, author_id="alice")
        _break_the_audit_log(portal)
        other = pack_tree(make_package(tmp_path / "other", extra_files={"data.txt": "other\n"}))
        with pytest.raises(AuditLogBroken):
            portal.submit(other, author_id="bob")
        assert list(portal._submissions) == [received.submission_id]
        _mend_the_audit_log(portal)
        assert Portal(portal.store_dir)._submissions == {received.submission_id: received}

    def test_refused_append_leaves_the_submission_received(self, portal: Portal, archive: bytes) -> None:
        submission_id = portal.submit(archive, author_id="alice").submission_id
        _break_the_audit_log(portal)
        with pytest.raises(AuditLogBroken):
            portal.process(submission_id)
        assert portal.get_submission(submission_id).state == "Received"
        _mend_the_audit_log(portal)
        assert Portal(portal.store_dir).get_submission(submission_id).state == "Received"

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


def _legal_replay(portal: Portal) -> dict[str, str]:
    """``_replayed_states`` of a portal opened anew on the same store, checked against that portal's table."""
    reopened = Portal(portal.store_dir, clock=portal.clock)
    states = _replayed_states(reopened)
    assert states == {sid: submission.state for sid, submission in reopened._submissions.items()}
    assert reopened._submissions == portal._submissions
    return states


class _FailingAppend:
    """Make the ``nth`` audit append of ``portal`` fail once: by raising before it writes, or by a full disk
    when its written line is synced."""

    def __init__(self, portal: Portal, monkeypatch, nth: int, fault: str) -> None:
        self._log, self._appends, self._nth = portal.audit_log, 0, nth
        if fault == "raise":
            append = AuditLog.append

            def failing_append(log: AuditLog, event: dict):
                self._count(OSError(errno.EIO, "Input/output error"))
                return append(log, event)

            monkeypatch.setattr(AuditLog, "append", failing_append)
        else:
            fsync = os.fsync

            def failing_fsync(fd: int) -> None:
                if os.path.samestat(os.fstat(fd), os.stat(self._log.path)):
                    self._count(OSError(errno.ENOSPC, "No space left on device"))
                fsync(fd)

            monkeypatch.setattr(os, "fsync", failing_fsync)

    def _count(self, fault: OSError) -> None:
        self._appends += 1
        if self._appends == self._nth + 1:
            raise fault


class TestTheLogIsTheRecord:
    def test_a_proved_package_syncs_two_blobs_and_four_appends(
        self, portal: Portal, archive: bytes, monkeypatch
    ) -> None:
        fsync, synced = os.fsync, []

        def counted_fsync(fd: int) -> None:
            synced.append(os.fstat(fd))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counted_fsync)
        assert portal.process(portal.submit(archive).submission_id).state == "Proved"
        log = os.stat(portal.audit_log.path)
        assert len(synced) == 6
        assert sum(os.path.samestat(stat, log) for stat in synced) == 4
        assert not (portal.store_dir / "submissions").exists()

    @pytest.mark.parametrize("fault", ["raise", "ENOSPC"])
    @pytest.mark.parametrize(
        ("step", "nth"), [("submit", 0), ("process", 0), ("process", 1), ("process", 2)],
        ids=["submission-received", "claim", "proof-archived", "proved"],
    )
    def test_a_failed_append_changes_nothing(
        self, portal: Portal, archive: bytes, monkeypatch, step: str, nth: int, fault: str
    ) -> None:
        submission_id = portal.submit(archive, author_id="alice").submission_id if step == "process" else None
        before = dict(portal._submissions)
        _FailingAppend(portal, monkeypatch, nth, fault)
        with pytest.raises(OSError):
            portal.submit(archive, author_id="alice") if step == "submit" else portal.process(submission_id)
        assert portal._submissions == before
        assert _legal_replay(portal) == {sid: "Received" for sid in before}
        if step == "submit":
            submission_id = portal.submit(archive, author_id="alice").submission_id
        assert portal.process(submission_id).state == "Proved"
        assert _legal_replay(portal) == {submission_id: "Proved"}
        assert portal.audit_check().ok

    def test_a_store_with_record_files_replays_to_those_records(self, tmp_path: Path) -> None:
        store = tmp_path / "store"
        shutil.copytree(LEGACY_STORE, store)
        records = [Submission.from_dict(json.loads(path.read_bytes())) for path in (store / "submissions").iterdir()]
        assert sorted(record.state for record in records) == ["Failed", "Proved", "Received", "Running"]
        logged = _decoded(AuditLog(store / "audit.log").entries())
        voided = [entry.event for entry in logged if entry.event["type"] == "commit-failed"]
        assert len(voided) == 1

        portal = Portal(store, clock=lambda: 1_700_000_100)
        swept = {record.submission_id: replace(record, state="Received") if record.state == "Running" else record
                 for record in records}
        assert portal._submissions == swept
        assert "NonZeroExit" in next(s.failure_reason for s in swept.values() if s.state == "Failed")
        assert _legal_replay(portal) == {sid: submission.state for sid, submission in swept.items()}
        proved = next(s for s in swept.values() if s.state == "Proved")
        assert portal.public_verify(proved.token).verdict.accepted

        # the submission whose record was never renamed into place is not a duplicate of itself
        lost = next(entry.event for entry in logged if entry.seq == voided[0]["seq"])
        again = portal.submit(portal.blobs.get(lost["archive_blob"]), author_id=lost["author_id"])
        assert portal.process(again.submission_id).state == "Proved"
        waiting = next(sid for sid, s in swept.items() if s.state == "Received")
        assert portal.process(waiting).state == "Proved"
        assert portal.audit_check().ok
        assert _legal_replay(portal)[again.submission_id] == "Proved"


class TestFixedLimits:
    def test_limits_are_the_ones_always_served(self) -> None:
        assert core.RUN_SECONDS == 600.0
        assert runner.MAX_OUTPUT_BYTES == 1 << 30
        assert core.DUPLICATE_WINDOW_SECONDS == 86_400
        assert MAX_ARCHIVE_BYTES == 1 << 30

    def test_process_runs_under_the_run_limits(self, portal: Portal, archive: bytes, monkeypatch) -> None:
        seen = []

        def recording_execute(*args, **kwargs):
            seen.append(kwargs["max_seconds"])
            return execute(*args, **kwargs)

        monkeypatch.setattr(core, "execute", recording_execute)
        assert portal.process(portal.submit(archive).submission_id).state == "Proved"
        assert seen == [core.RUN_SECONDS]

    def test_new_store_provider_file_bytes_are_frozen(self, tmp_path: Path) -> None:
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED, clock=lambda: 1_700_000_000)
        data = (portal.store_dir / "provider.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == "6924254633887eaa90c7f4a20d1db9a84fe7cc9a5e75fac7016c5c2f6b82e4d3"
        assert portal.trust_roots == (portal.provider.root_public_key,)


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
        # simulate a crash mid-process: the claim is committed as Running, no result
        portal._transition(submission, "Running")

        reopened = Portal(tmp_path / "store")
        recovered = reopened.get_submission(submission.submission_id)
        assert recovered.state == "Received"
        done = reopened.process(submission.submission_id)
        assert done.state == "Proved"
        assert reopened.audit_check().ok


def test_the_portal_core_loads_no_http_code() -> None:
    code = "import json, sys, attestrep.portal.core; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-3000:]
    loaded = set(json.loads(proc.stdout))
    assert loaded.isdisjoint({"attestrep.portal.http", "http.server"})
