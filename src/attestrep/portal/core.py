"""The submission portal: accept, execute, archive, and serve verifications.

State and artifacts live in one store directory::

    provider.json        simulated provider seed and chain anchor time
    blobs/               content-addressed archives and proof bundles
    submissions/<id>.json
    tokens/<token>       token -> submission id
    quarantine/<id>/     unpacked package trees
    runs/<id>/           runner sandboxes and logs
    audit.log            hash-chained event log

Crash safety: the bundle blob and token file are written before the
submission record flips to Proved; the atomic record replace is the commit
point. On startup any submission stuck in Running is swept back to
Received, so observable states after a crash are Received or terminal.
"""

from __future__ import annotations

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
from attestrep.portal.store import BlobCorrupt, BlobMissing, BlobStore
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
        return {
            "submission_id": self.submission_id,
            "author_id": self.author_id,
            "received_at": self.received_at,
            "state": self.state,
            "package_digest": self.package_digest.to_dict(),
            "archive_blob": self.archive_blob,
            "bundle_blob": self.bundle_blob,
            "token": self.token,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> Submission:
        return cls(
            submission_id=obj["submission_id"],
            author_id=obj["author_id"],
            received_at=obj["received_at"],
            state=obj["state"],
            package_digest=PackageDigest.from_dict(obj["package_digest"], "package_digest"),
            archive_blob=obj["archive_blob"],
            bundle_blob=obj.get("bundle_blob"),
            token=obj.get("token"),
            failure_reason=obj.get("failure_reason"),
        )


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


def _is_hex_id(text: str) -> bool:
    """Submission ids and tokens are 64 lowercase hex digits, never paths."""
    return len(text) == 64 and not text.strip("0123456789abcdef")


def _submission_id(package_digest: PackageDigest, received_at: int, author_id: str) -> str:
    material = package_digest.value + received_at.to_bytes(8, "big") + author_id.encode("utf-8")
    return hashlib.sha256(material).hexdigest()


class Portal:
    """One store directory, any number of concurrent callers.

    Audit appends are serialized by the log's own lock; per-submission
    operations are mutually exclusive via per-id locks; distinct
    submissions process in parallel.
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
        self._tokens_dir = self.store_dir / "tokens"
        self._quarantine_dir = self.store_dir / "quarantine"
        self._runs_dir = self.store_dir / "runs"
        for path in (self._submissions_dir, self._tokens_dir, self._quarantine_dir, self._runs_dir):
            path.mkdir(exist_ok=True)

        self.provider = self._load_or_create_provider(provider_seed)
        self.trust_roots: tuple[bytes, ...] = (self.provider.root_public_key,) + config.extra_trust_roots

        self._submit_lock = threading.Lock()
        self._locks_guard = threading.Lock()
        self._submission_locks: dict[str, threading.Lock] = {}
        self._recover_interrupted()

    # -- provider bootstrap -------------------------------------------------

    def _load_or_create_provider(self, provider_seed: bytes | None) -> AttestationProvider:
        provider_file = self.store_dir / "provider.json"
        if provider_file.exists():
            obj = json.loads(provider_file.read_text(encoding="utf-8"))
            config = ProviderConfig(
                provider_id=obj["provider_id"],
                root_secret_seed=bytes.fromhex(obj["root_secret_seed"]),
                attestation_validity=obj["attestation_validity"],
            )
            return AttestationProvider(config, now=obj["created_at"])
        seed = provider_seed if provider_seed is not None else os.urandom(32)
        created_at = self.clock()
        config = ProviderConfig(
            provider_id=self.config.provider_id,
            root_secret_seed=seed,
            attestation_validity=self.config.attestation_validity,
        )
        provider = AttestationProvider(config, now=created_at)
        # sim-only persistence; a real backend would keep keys in hardware
        payload = {
            "provider_id": config.provider_id,
            "root_secret_seed": seed.hex(),
            "attestation_validity": config.attestation_validity,
            "created_at": created_at,
        }
        self._atomic_write(provider_file, canonical_json_bytes(payload))
        return provider

    # -- persistence helpers ------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _submission_path(self, submission_id: str) -> Path:
        return self._submissions_dir / f"{submission_id}.json"

    def _write_submission(self, submission: Submission) -> None:
        self._atomic_write(
            self._submission_path(submission.submission_id),
            canonical_json_bytes(submission.to_dict()),
        )

    def get_submission(self, submission_id: str) -> Submission:
        path = self._submission_path(submission_id)
        if not _is_hex_id(submission_id) or not path.is_file():
            raise UnknownSubmission(submission_id)
        return Submission.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def _iter_submissions(self):
        for path in sorted(self._submissions_dir.glob("*.json")):
            yield Submission.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def _lock_for(self, submission_id: str) -> threading.Lock:
        with self._locks_guard:
            return self._submission_locks.setdefault(submission_id, threading.Lock())

    def _transition(self, submission: Submission, state: str, **changes) -> Submission:
        if state not in _TRANSITIONS[submission.state]:
            raise WrongState(submission.state)
        updated = replace(submission, state=state, **changes)
        self._write_submission(updated)
        self.audit_log.append(
            {
                "type": "state-changed",
                "submission_id": submission.submission_id,
                "state": state,
                "at": self.clock(),
            }
        )
        return updated

    def _recover_interrupted(self) -> None:
        for submission in self._iter_submissions():
            if submission.state == STATE_RUNNING:
                logger.warning("recovering interrupted submission %s", submission.submission_id)
                self._transition(submission, STATE_RECEIVED)

    # -- operations -----------------------------------------------------------

    def submit(self, archive_bytes: bytes, author_id: str = "anonymous") -> Submission:
        """Unpack, digest, archive, and register an incoming package."""
        incoming = Path(tempfile.mkdtemp(dir=self._quarantine_dir, prefix=".incoming-"))
        try:
            unpack_archive(archive_bytes, incoming, max_bytes=self.config.max_archive_bytes)
            load_manifest(incoming)
            package_digest = digest_package(incoming)

            with self._submit_lock:
                for existing in self._iter_submissions():
                    if (
                        existing.author_id == author_id
                        and existing.package_digest.value == package_digest.value
                        and self.clock() - existing.received_at <= self.config.duplicate_window_seconds
                    ):
                        raise DuplicateSubmission(existing.submission_id)
                received_at = self.clock()
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
                self.audit_log.append(
                    {
                        "type": "submission-received",
                        "submission_id": submission_id,
                        "author_id": author_id,
                        "package_digest": package_digest.hex,
                        "archive_blob": archive_blob,
                        "at": received_at,
                    }
                )
                return submission
        finally:
            if incoming.exists():
                shutil.rmtree(incoming, ignore_errors=True)

    def process(self, submission_id: str) -> Submission:
        """Run the package and either archive a proof or record the failure."""
        if not _is_hex_id(submission_id):
            raise UnknownSubmission(submission_id)
        with self._lock_for(submission_id):
            submission = self.get_submission(submission_id)
            if submission.state != STATE_RECEIVED:
                raise WrongState(submission.state)
            submission = self._transition(submission, STATE_RUNNING)

            package_root = self._quarantine_dir / submission_id
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
                bundle = build_bundle(record, self.provider, now=self.clock())
                bundle_bytes = serialize_bundle(bundle)
                bundle_blob = self.blobs.put(bundle_bytes)
                token = bundle.token
                self._atomic_write(self._tokens_dir / token, submission_id.encode("ascii"))
                self.audit_log.append(
                    {
                        "type": "proof-archived",
                        "submission_id": submission_id,
                        "bundle_id": token,
                        "bundle_blob": bundle_blob,
                        "at": self.clock(),
                    }
                )
                return self._transition(
                    submission, STATE_PROVED, bundle_blob=bundle_blob, token=token
                )
            except (PackageError, RunnerError, BundleError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                logger.info("submission %s failed: %s", submission_id, reason)
                return self._transition(submission, STATE_FAILED, failure_reason=reason)

    def public_verify(self, token: str) -> PortalVerification:
        """Re-verify an archived proof and the archived package it names."""
        token_path = self._tokens_dir / token
        if not _is_hex_id(token) or not token_path.is_file():
            raise UnknownToken(token)
        submission_id = token_path.read_text(encoding="ascii").strip()
        try:
            submission = self.get_submission(submission_id)
        except UnknownSubmission:
            raise UnknownToken(token) from None
        # token must be the one the commit recorded; a stale token file from
        # an interrupted run must not serve a different bundle
        if submission.state != STATE_PROVED or submission.bundle_blob is None or submission.token != token:
            raise UnknownToken(token)

        try:
            bundle_bytes = self.blobs.get_unverified(submission.bundle_blob)
        except BlobMissing:
            raise UnknownToken(token) from None
        verdict = verify_bundle(bundle_bytes, self.trust_roots, now=self.clock())
        bundle = parse_bundle(bundle_bytes) if verdict.accepted else None

        if verdict.accepted and bundle is not None:
            verdict = self._verify_archived_package(bundle, submission)

        self.audit_log.append(
            {
                "type": "verification-served",
                "token": token,
                "verdict": "Accept" if verdict.accepted else "Reject",
                "reason": verdict.reason,
                "at": self.clock(),
            }
        )
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
        token = None
        if verdict.accepted:
            token = parse_bundle(data).token
        self.audit_log.append(
            {
                "type": "verification-served",
                "token": token,
                "verdict": "Accept" if verdict.accepted else "Reject",
                "reason": verdict.reason,
                "at": self.clock(),
            }
        )
        return verdict

    def audit_check(self) -> AuditCheck:
        return audit_check(self.audit_log)

    def audit_entries(self, from_seq: int = 0):
        return self.audit_log.entries(from_seq=from_seq)
