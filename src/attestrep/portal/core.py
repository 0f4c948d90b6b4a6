"""The submission portal: accept, execute, archive, and serve verifications.

State and artifacts live in one store directory::

    provider.json        simulated provider seed and chain anchor time
    blobs/               content-addressed archives and proof bundles
    submissions/<id>.json  one record per submission; a Proved one holds its token
    quarantine/<id>/     unpacked package trees
    runs/<id>/           runner sandboxes and logs
    audit.log            hash-chained event log

One ``Portal`` owns a store: it reads every record once when it opens and
then serves ids and tokens from memory, so two portals must not share a
store. Crash safety: each record is written to a temp file and renamed over
the old one; that rename is the commit point, and the in-memory tables
change only after it. The bundle blob is written before the record flips
to Proved, so a token resolves only once its proof is committed. On
startup any submission stuck in Running is swept back to Received, so
observable states after a crash are Received or terminal. A ``tokens/``
directory left by older versions is ignored.
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

from attestrep.archive import ArchiveMalformed, digest_archive, unpack_archive
from attestrep.attestation import (
    DEFAULT_PROVIDER_ID,
    DEFAULT_VALIDITY_SECONDS,
    AttestationProvider,
    ProviderConfig,
)
from attestrep.bundle import BundleError, ProofBundle, build_bundle, parse_bundle, serialize_bundle
from attestrep.canonical import canonical_json_bytes
from attestrep.package_model import PackageDigest, PackageError, digest_package, load_manifest
from attestrep.portal.audit import AuditCheck, AuditLog, audit_check
from attestrep.portal.store import BlobCorrupt, BlobMissing, BlobStore, atomic_write
from attestrep.runner import ExecutionLimits, RunnerError, execute
from attestrep.verifier import DIGEST_MISMATCH, Verdict, verify_against_archive, verify_bundle

logger = logging.getLogger(__name__)

STATE_RECEIVED = "Received"
STATE_RUNNING = "Running"
STATE_PROVED = "Proved"
STATE_FAILED = "Failed"

_TRANSITIONS = {
    STATE_RECEIVED: {STATE_RUNNING},
    STATE_RUNNING: {STATE_PROVED, STATE_FAILED, STATE_RECEIVED},
    STATE_PROVED: set(),
    STATE_FAILED: set(),
}


class PortalError(Exception):
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


@dataclass(frozen=True)
class PortalConfig:
    provider_id: str = DEFAULT_PROVIDER_ID
    attestation_validity: int = DEFAULT_VALIDITY_SECONDS
    duplicate_window_seconds: int = 86400
    max_seconds: float = 600.0
    max_output_bytes: int = 1 << 30
    max_archive_bytes: int = 1 << 30
    extra_trust_roots: tuple[bytes, ...] = ()


def _submission_id(package_digest: PackageDigest, received_at: int, author_id: str) -> str:
    material = package_digest.value + received_at.to_bytes(8, "big") + author_id.encode("utf-8")
    return hashlib.sha256(material).hexdigest()


class Portal:
    """One store directory, any number of concurrent callers.

    Records live in memory as ``id -> Submission`` and ``token -> id``,
    loaded once from the store. One lock covers the two steps that must not
    interleave: ``submit``'s duplicate check and insert, and ``process``'s
    claim of a Received submission. Packages run with no lock held, so
    distinct submissions process in parallel. Audit appends are serialized
    by the log's own lock.
    """

    def __init__(
        self,
        store_dir: str | Path,
        config: PortalConfig = PortalConfig(),
        provider_seed: bytes | None = None,
        clock=None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.config = config
        self.clock = clock if clock is not None else (lambda: int(time.time()))
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.store_dir / "blobs")
        self.audit_log = AuditLog(self.store_dir / "audit.log")
        self._submissions_dir = self.store_dir / "submissions"
        self._quarantine_dir = self.store_dir / "quarantine"
        self._runs_dir = self.store_dir / "runs"
        for path in (self._submissions_dir, self._quarantine_dir, self._runs_dir):
            path.mkdir(exist_ok=True)

        self.provider = self._load_or_create_provider(provider_seed)
        self.trust_roots: tuple[bytes, ...] = (self.provider.root_public_key,) + config.extra_trust_roots

        self._lock = threading.Lock()
        self._submissions: dict[str, Submission] = {}
        self._tokens: dict[str, str] = {}
        self._load_submissions()

    # -- provider bootstrap -------------------------------------------------

    def _load_or_create_provider(self, provider_seed: bytes | None) -> AttestationProvider:
        """The provider ``provider.json`` describes; a new store writes that file once the provider is made."""
        provider_file = self.store_dir / "provider.json"
        exists = provider_file.exists()
        if exists:
            obj = json.loads(provider_file.read_text(encoding="utf-8"))
        else:
            seed = provider_seed if provider_seed is not None else os.urandom(32)
            obj = {"provider_id": self.config.provider_id, "root_secret_seed": seed.hex(),
                   "attestation_validity": self.config.attestation_validity, "created_at": self.clock()}
        config = ProviderConfig(obj["provider_id"], bytes.fromhex(obj["root_secret_seed"]), obj["attestation_validity"])
        provider = AttestationProvider(config, now=obj["created_at"])
        if not exists:  # sim-only persistence; a real backend would keep keys in hardware
            atomic_write(provider_file, canonical_json_bytes(obj))
        return provider

    # -- records --------------------------------------------------------------

    def _remember(self, submission: Submission) -> None:
        self._submissions[submission.submission_id] = submission
        if submission.state == STATE_PROVED:
            self._tokens[submission.token] = submission.submission_id

    def _write_submission(self, submission: Submission) -> None:
        """Commit a record to disk, then to the tables."""
        atomic_write(
            self._submissions_dir / f"{submission.submission_id}.json",
            canonical_json_bytes(submission.to_dict()),
        )
        self._remember(submission)

    def get_submission(self, submission_id: str) -> Submission:
        # ids are looked up, never joined into a path, so any string is safe here
        submission = self._submissions.get(submission_id)
        if submission is None:
            raise UnknownSubmission(submission_id)
        return submission

    def _transition(self, submission: Submission, state: str, **changes) -> Submission:
        if state not in _TRANSITIONS[submission.state]:
            raise WrongState(submission.state)
        updated = replace(submission, state=state, **changes)
        self._write_submission(updated)
        self._audit("state-changed", submission_id=submission.submission_id, state=state)
        return updated

    def _audit(self, kind: str, **fields) -> None:
        """Append one event of type ``kind``, stamped with the clock unless ``fields`` give ``at``."""
        self.audit_log.append({"type": kind, "at": self.clock(), **fields})

    def _load_submissions(self) -> None:
        """Read every record once; a run a crash left in Running goes back to Received."""
        for path in sorted(self._submissions_dir.glob("*.json")):
            submission = Submission.from_dict(json.loads(path.read_text(encoding="utf-8")))
            if submission.state == STATE_RUNNING:
                logger.warning("recovering interrupted submission %s", submission.submission_id)
                self._transition(submission, STATE_RECEIVED)
            else:
                self._remember(submission)

    # -- operations -----------------------------------------------------------

    def submit(self, archive_bytes: bytes, author_id: str = "anonymous") -> Submission:
        """Unpack, digest, archive, and register an incoming package."""
        incoming = Path(tempfile.mkdtemp(dir=self._quarantine_dir, prefix=".incoming-"))
        try:
            unpack_archive(archive_bytes, incoming, max_bytes=self.config.max_archive_bytes)
            load_manifest(incoming)
            package_digest = digest_package(incoming)

            with self._lock:
                received_at = self.clock()
                for existing in self._submissions.values():
                    if (
                        existing.author_id == author_id
                        and existing.package_digest.value == package_digest.value
                        and received_at - existing.received_at <= self.config.duplicate_window_seconds
                    ):
                        raise DuplicateSubmission(existing.submission_id)
                submission_id = _submission_id(package_digest, received_at, author_id)
                archive_blob = self.blobs.put(archive_bytes)
                final_quarantine = self._quarantine_dir / submission_id
                if final_quarantine.exists():
                    shutil.rmtree(final_quarantine)
                os.replace(incoming, final_quarantine)
                submission = Submission(
                    submission_id=submission_id,
                    author_id=author_id,
                    received_at=received_at,
                    state=STATE_RECEIVED,
                    package_digest=package_digest,
                    archive_blob=archive_blob,
                )
                self._write_submission(submission)
                self._audit("submission-received", submission_id=submission_id, author_id=author_id,
                            package_digest=package_digest.hex, archive_blob=archive_blob, at=received_at)
                return submission
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
                record = execute(
                    package_root,
                    manifest,
                    limits=ExecutionLimits(
                        max_seconds=self.config.max_seconds,
                        max_output_bytes=self.config.max_output_bytes,
                    ),
                    work_dir=self._runs_dir / submission_id,
                )
                if record.package_digest != submission.package_digest:
                    raise PackageChanged(f"ran {record.package_digest.hex}, submitted {submission.package_digest.hex}")
                bundle = build_bundle(record, self.provider, now=self.clock())
                bundle_blob = self.blobs.put(serialize_bundle(bundle))
                self._audit("proof-archived", submission_id=submission_id, bundle_id=bundle.token,
                            bundle_blob=bundle_blob)
                return self._transition(submission, STATE_PROVED, bundle_blob=bundle_blob, token=bundle.token)
            except (PackageError, RunnerError, BundleError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                logger.info("submission %s failed: %s", submission_id, reason)
                return self._transition(submission, STATE_FAILED, failure_reason=reason)
        except Exception:
            # a fault outside the package (a full disk, say) hands the claim back instead of stranding it
            if self._submissions[submission_id].state == STATE_RUNNING:
                self._remember(replace(submission, state=STATE_RECEIVED))
                with contextlib.suppress(OSError):  # the record on disk is swept at the next start
                    self._transition(submission, STATE_RECEIVED)
            raise

    def public_verify(self, token: str) -> PortalVerification:
        """Re-verify an archived proof and the archived package it names."""
        submission_id = self._tokens.get(token)
        if submission_id is None:
            raise UnknownToken(token)
        submission = self._submissions[submission_id]
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
        """Recompute the package digest from archived bytes, not trusting the record."""
        try:
            archived = digest_archive(self.blobs.get(submission.archive_blob), self.config.max_archive_bytes)
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
        self._audit("verification-served", token=token, verdict="Accept" if verdict.accepted else "Reject",
                    reason=verdict.reason)

    def audit_check(self) -> AuditCheck:
        return audit_check(self.audit_log)

    def audit_entries(self, from_seq: int = 0):
        return self.audit_log.entries(from_seq=from_seq)
