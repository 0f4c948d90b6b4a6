"""The submission portal: accept, execute, archive, and serve verifications.

State and artifacts live in one store directory::

    provider.json        simulated provider seed and chain anchor time
    blobs/               content-addressed archives and proof bundles
    quarantine/<id>/     unpacked package trees
    runs/<id>/           runner sandboxes and logs
    audit.log            hash-chained event log: the one record of every submission

One ``Portal`` owns a store: it rebuilds its submission and token tables by
replaying the events its log's open-time scan parses, then serves ids and
tokens from memory, so two portals must not share a store. A state change is
one append followed by the table update (``Portal._commit``), so an append
that fails or is refused (``AuditLogBroken``) changes nothing. The bundle
blob is written before the Proved event, so a token resolves only once its
proof is committed. On startup a submission left Running gets a Received
event, so observable states after a crash are Received or terminal. A store
whose submissions also have ``submissions/<id>.json`` records still opens:
an event that lacks a field the tables need takes it from that record, and a
``commit-failed`` event voids the event it names. A ``tokens/`` directory
left by older versions is ignored. The limits are module constants, not
settings: runs get ``RUN_SECONDS`` and ``runner.MAX_OUTPUT_BYTES``, archives
``archive.MAX_ARCHIVE_BYTES`` and ``archive.MAX_MEMBERS``, duplicates
``DUPLICATE_WINDOW_SECONDS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from attestrep import AttestrepError
from attestrep.archive import ArchiveMalformed, digest_archive, unpack_archive
from attestrep.attestation import (
    DEFAULT_PROVIDER_ID,
    DEFAULT_VALIDITY_SECONDS,
    AttestationProvider,
    ProviderConfig,
)
from attestrep.bundle import BundleError, PackageDigest, ProofBundle, build_bundle, parse_bundle, serialize_bundle
from attestrep.canonical import canonical_json_bytes
from attestrep.package_model import PackageError, digest_package, load_manifest
from attestrep.portal.audit import AuditCheck, AuditEntry, AuditLog, AuditLogBroken, StoredEntry, audit_check
from attestrep.portal.store import BlobCorrupt, BlobMissing, BlobStore, atomic_write
from attestrep.runner import RunnerError, execute
from attestrep.verifier import DIGEST_MISMATCH, Verdict, verify_against_archive, verify_bundle

logger = logging.getLogger(__name__)

STATE_RECEIVED = "Received"
STATE_RUNNING = "Running"
STATE_PROVED = "Proved"
STATE_FAILED = "Failed"

# the same author resubmitting the same package within a day is a duplicate
DUPLICATE_WINDOW_SECONDS = 86_400
# how long one package run may take; its outputs are capped at runner.MAX_OUTPUT_BYTES
RUN_SECONDS = 600.0

_TRANSITIONS = {
    STATE_RECEIVED: {STATE_RUNNING},
    STATE_RUNNING: {STATE_PROVED, STATE_FAILED, STATE_RECEIVED},
    STATE_PROVED: set(),
    STATE_FAILED: set(),
}


class PortalError(AttestrepError):
    """Base class for portal failures."""


class DuplicateSubmission(PortalError):
    def __init__(self, submission_id: str) -> None:
        super().__init__(f"same package and author already submitted as {submission_id}")
        self.submission_id = submission_id


class WrongState(PortalError):
    def __init__(self, current: str) -> None:
        super().__init__(f"submission is in state {current}")
        self.current = current


class UnknownSubmission(PortalError):
    def __init__(self, submission_id: str) -> None:
        super().__init__(f"no submission {submission_id}")
        self.submission_id = submission_id


class UnknownToken(PortalError):
    def __init__(self, token: str) -> None:
        super().__init__(f"no proof under token {token}")
        self.token = token


class PackageChanged(PackageError):
    """The tree that ran is not the package that was submitted."""


@dataclass(frozen=True)
class Submission:
    submission_id: str
    author_id: str
    received_at: int
    state: str
    package_digest: PackageDigest
    archive_blob: str
    bundle_blob: str | None = None
    token: str | None = None
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "package_digest": self.package_digest.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> Submission:
        return cls(**{**obj, "package_digest": PackageDigest.from_dict(obj["package_digest"], "package_digest")})


@dataclass(frozen=True)
class PortalVerification:
    """Result served for a verification token."""

    verdict: Verdict
    package_digest: PackageDigest | None
    bundle: ProofBundle | None
    bundle_bytes: bytes | None

    def to_dict(self) -> dict:
        out = self.verdict.to_dict()
        if self.package_digest is not None:
            out["package_digest"] = self.package_digest.value.hex()
        if self.bundle is not None:
            out["token"] = self.bundle.token
        return out


class Portal:
    """One store directory, any number of concurrent callers.

    Records live in memory as ``id -> Submission`` and ``token -> Submission``,
    replayed once from the audit log, with ``(author, package digest) -> ids``
    so the duplicate check is a lookup, beside ``archive blob -> PackageDigest``
    for each archive ``public_verify`` has digested. One lock covers the two steps that must not
    interleave: ``submit``'s duplicate check and insert, and ``process``'s
    claim of a Received submission. Packages run with no lock held, so
    distinct submissions process in parallel. Audit appends are serialized
    by the log's own lock.
    """

    def __init__(self, store_dir: str | Path, provider_seed: bytes | None = None, clock=None) -> None:
        self.store_dir = Path(store_dir)
        self.clock = clock if clock is not None else (lambda: int(time.time()))
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.store_dir / "blobs")
        self._quarantine_dir, self._runs_dir = self.store_dir / "quarantine", self.store_dir / "runs"
        for path in (self._quarantine_dir, self._runs_dir):
            path.mkdir(exist_ok=True)

        self.provider = self._load_or_create_provider(provider_seed)
        self.trust_roots = (self.provider.root_public_key,)

        self._lock = threading.Lock()
        self._submissions: dict[str, Submission] = {}
        self._tokens: dict[str, Submission] = {}
        self._by_package: dict[tuple[str, bytes], list[str]] = {}  # (author, package digest) -> ids, oldest first
        self._archive_digests: dict[str, PackageDigest] = {}  # archive blob key -> digest of its bytes
        self._proofs: dict[str, dict] = {}  # id -> the bundle of its last proof-archived event, until Proved
        recorded: dict[int, dict] = {}  # seq -> event, for each event that changes a submission
        self.audit_log = AuditLog(self.store_dir / "audit.log", replay=lambda entry: self._hold(entry, recorded))
        for event in recorded.values():
            self._apply(event)
        for submission in [s for s in self._submissions.values() if s.state == STATE_RUNNING]:  # cut short by a crash
            logger.warning("recovering interrupted submission %s", submission.submission_id)
            self._transition(submission, STATE_RECEIVED)

    # -- provider bootstrap -------------------------------------------------

    def _load_or_create_provider(self, provider_seed: bytes | None) -> AttestationProvider:
        """The provider ``provider.json`` describes; a new store writes that file once the provider is made."""
        provider_file = self.store_dir / "provider.json"
        exists = provider_file.exists()
        if exists:
            obj = json.loads(provider_file.read_text(encoding="utf-8"))
        else:
            seed = provider_seed if provider_seed is not None else os.urandom(32)
            obj = {"provider_id": DEFAULT_PROVIDER_ID, "root_secret_seed": seed.hex(),
                   "attestation_validity": DEFAULT_VALIDITY_SECONDS, "created_at": self.clock()}
        config = ProviderConfig(obj["provider_id"], bytes.fromhex(obj["root_secret_seed"]), obj["attestation_validity"])
        provider = AttestationProvider(config, now=obj["created_at"])
        if not exists:  # sim-only persistence; a real backend would keep keys in hardware
            atomic_write(provider_file, canonical_json_bytes(obj))
        return provider

    # -- records --------------------------------------------------------------

    def _commit(self, kind: str, **fields) -> Submission:
        """Append one event, stamped with the clock unless ``fields`` give ``at``, then apply it to the tables."""
        event = {"type": kind, "at": self.clock(), **fields}
        self.audit_log.append(event)
        self._apply(event)
        return self._submissions[fields["submission_id"]]

    def _apply(self, event: dict) -> None:
        """Change the tables as one record event says; the replay at open and each commit both come here."""
        submission_id = event["submission_id"]
        if event["type"] == "proof-archived":  # held until the Proved event
            self._proofs[submission_id] = {"bundle_blob": event["bundle_blob"], "token": event["bundle_id"]}
            return
        if event["type"] == "submission-received":
            digest = PackageDigest(bytes.fromhex(event["package_digest"]), event["file_count"], event["total_bytes"])
            submission = Submission(submission_id, event["author_id"], event["at"], STATE_RECEIVED, digest,
                                    event["archive_blob"])
            self._by_package.setdefault((submission.author_id, digest.value), []).append(submission_id)
        else:
            proof = self._proofs.pop(submission_id) if event["state"] == STATE_PROVED else {}
            submission = replace(self._submissions[submission_id], state=event["state"],
                                 failure_reason=event.get("failure_reason"), **proof)
        self._submissions[submission_id] = submission
        if submission.state == STATE_PROVED:  # terminal, so the token table never holds a stale one
            self._tokens[submission.token] = submission

    def get_submission(self, submission_id: str) -> Submission:
        # ids are looked up, never joined into a path, so any string is safe here
        submission = self._submissions.get(submission_id)
        if submission is None:
            raise UnknownSubmission(submission_id)
        return submission

    def _transition(self, submission: Submission, state: str, **fields) -> Submission:
        if state not in _TRANSITIONS[submission.state]:
            raise WrongState(submission.state)
        return self._commit("state-changed", submission_id=submission.submission_id, state=state, **fields)

    def _hold(self, entry: AuditEntry, recorded: dict[int, dict]) -> None:
        """Keep an event that changes a submission for the replay at open, filling in what an older one lacks."""
        event, kind = entry.event, entry.event.get("type")
        if kind == "commit-failed":  # only an older store has one: the event it names took no record file
            recorded.pop(event["seq"], None)
        elif kind in ("submission-received", "proof-archived", "state-changed"):
            if (kind == "submission-received" and "file_count" not in event
                    or event.get("state") == STATE_FAILED and "failure_reason" not in event):
                path = self.store_dir / "submissions" / f"{event['submission_id']}.json"
                if not path.exists():  # the store stopped between this append and its record's rename
                    return
                record = Submission.from_dict(json.loads(path.read_text(encoding="utf-8")))
                event = {"failure_reason": record.failure_reason, **record.package_digest.to_dict(), **event}
            recorded[entry.seq] = event

    # -- operations -----------------------------------------------------------

    def submit(self, archive_bytes: bytes, author_id: str = "anonymous") -> Submission:
        """Unpack, digest, archive, and register an incoming package."""
        incoming = Path(tempfile.mkdtemp(dir=self._quarantine_dir, prefix=".incoming-"))
        try:
            unpack_archive(archive_bytes, incoming)
            load_manifest(incoming)
            package_digest = digest_package(incoming)

            with self._lock:
                received_at = self.clock()
                for existing_id in self._by_package.get((author_id, package_digest.value), ()):
                    if received_at - self._submissions[existing_id].received_at <= DUPLICATE_WINDOW_SECONDS:
                        raise DuplicateSubmission(existing_id)
                material = package_digest.value + received_at.to_bytes(8, "big") + author_id.encode("utf-8")
                submission_id = hashlib.sha256(material).hexdigest()
                archive_blob = self.blobs.put(archive_bytes)
                final_quarantine = self._quarantine_dir / submission_id
                if final_quarantine.exists():
                    shutil.rmtree(final_quarantine)
                os.replace(incoming, final_quarantine)
                return self._commit("submission-received", submission_id=submission_id, author_id=author_id,
                                    package_digest=package_digest.hex, file_count=package_digest.file_count,
                                    total_bytes=package_digest.total_bytes, archive_blob=archive_blob, at=received_at)
        finally:
            if incoming.exists():
                shutil.rmtree(incoming, ignore_errors=True)

    def process(self, submission_id: str) -> Submission:
        """Run the package and either archive a proof or record the failure."""
        # the claim: only one caller moves a submission out of Received; a
        # concurrent second caller gets WrongState("Running") at once
        with self._lock:
            submission = self._transition(self.get_submission(submission_id), STATE_RUNNING)

        package_root = self._quarantine_dir / submission_id
        try:
            try:
                manifest = load_manifest(package_root)
                record = execute(package_root, manifest, self._runs_dir / submission_id, max_seconds=RUN_SECONDS)
                if record.package_digest != submission.package_digest:
                    raise PackageChanged(f"ran {record.package_digest.hex}, submitted {submission.package_digest.hex}")
                bundle = build_bundle(record, self.provider, now=self.clock())
                bundle_blob = self.blobs.put(serialize_bundle(bundle))
                self._commit("proof-archived", submission_id=submission_id, bundle_id=bundle.token,
                             bundle_blob=bundle_blob)
                return self._transition(submission, STATE_PROVED)
            except (PackageError, RunnerError, BundleError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                logger.info("submission %s failed: %s", submission_id, reason)
                return self._transition(submission, STATE_FAILED, failure_reason=reason)
        except Exception:
            # a fault outside the package (a full disk, say) hands the claim back instead of stranding it
            if self._submissions[submission_id].state == STATE_RUNNING:
                self._submissions[submission_id] = replace(submission, state=STATE_RECEIVED)
                with contextlib.suppress(OSError, AuditLogBroken):  # a log left at Running is swept at the next start
                    self._transition(submission, STATE_RECEIVED)
            raise

    def public_verify(self, token: str) -> PortalVerification:
        """Re-verify an archived proof and the archived package it names."""
        submission = self._tokens.get(token)
        if submission is None:
            raise UnknownToken(token)
        try:
            bundle_bytes = self.blobs.get_unverified(submission.bundle_blob)
        except BlobMissing:
            raise UnknownToken(token) from None
        verdict = verify_bundle(bundle_bytes, self.trust_roots, now=self.clock())
        bundle = parse_bundle(bundle_bytes) if verdict.accepted else None
        if bundle is not None:
            verdict = self._verify_archived_package(bundle, submission)
        self._log_verification(token, verdict)
        return PortalVerification(
            verdict=verdict,
            package_digest=submission.package_digest,
            bundle=bundle,
            bundle_bytes=bundle_bytes,
        )

    def _verify_archived_package(self, bundle: ProofBundle, submission: Submission) -> Verdict:
        """The package digest of the archived bytes, not of the record: computed once per blob."""
        key = submission.archive_blob
        try:
            # the content address is checked on every read, so a remembered digest is of these very bytes
            data = self.blobs.get(key)
            archived = self._archive_digests.get(key)
            if archived is None:  # two first reads at once only digest the same bytes twice
                archived = self._archive_digests[key] = digest_archive(data)
        except (BlobCorrupt, BlobMissing):
            return Verdict.reject(DIGEST_MISMATCH, "archived package blob is missing or fails its content address")
        except ArchiveMalformed as exc:
            return Verdict.reject(DIGEST_MISMATCH, f"archived package unreadable: {exc}")
        return verify_against_archive(bundle, archived.value)

    def verify_bundle_bytes(self, data: bytes) -> Verdict:
        """Stateless verification of caller-supplied bundle bytes."""
        verdict = verify_bundle(data, self.trust_roots, now=self.clock())
        self._log_verification(parse_bundle(data).token if verdict.accepted else None, verdict)
        return verdict

    def _log_verification(self, token: str | None, verdict: Verdict) -> None:
        self.audit_log.append({"type": "verification-served", "at": self.clock(), "token": token,
                               "verdict": "Accept" if verdict.accepted else "Reject", "reason": verdict.reason})

    def audit_check(self) -> AuditCheck:
        return audit_check(self.audit_log)

    def audit_entries(self, from_seq: int = 0) -> list[StoredEntry]:
        return self.audit_log.entries(from_seq=from_seq)
