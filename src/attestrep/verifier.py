"""Proof verification against pinned trust roots.

Runs on digests and signatures only, so cost does not depend on how large
the attested package was. All failures come back as Reject verdicts with
the first failing check named, in a fixed order:

    parse -> chain -> validity -> quote signature -> binding -> bundle_id
          -> exit status

A verdict is a pure function of (bytes, trust roots, now). The state kept
between calls is two bounded memos, and no verdict is among it:

- the chain memo here, of chain signature outcomes: the root statement's
  self-signature and the endorsement's signature under its root key. Every
  bundle from one provider carries the same chain, so those two Ed25519
  checks run once per process;
- the loaded public keys of ``attestation`` (``KEY_MEMO_SIZE``): a key's
  bytes become a key object once, and every signature is still checked.

The quote, which is new for every run, is checked on every call, as are
trust-root membership, the validity window and the bindings. The clock is a
parameter; nothing here reads wall time.
"""

from __future__ import annotations

import functools
from typing import Iterable

from attestrep.attestation import AttestationEndorsement, RootStatement
from attestrep.bundle import (
    BundleParseError,
    ProofBundle,
    VersionUnsupported,
    canonical_bundle_id,
    compute_measurement,
    compute_report_data,
    parse_bundle,
)

PARSE_ERROR = "ParseError"
VERSION_UNSUPPORTED = "VersionUnsupported"
UNTRUSTED_ROOT = "UntrustedRoot"
CHAIN_SIGNATURE_INVALID = "ChainSignatureInvalid"
ENDORSEMENT_NOT_YET_VALID = "EndorsementNotYetValid"
EXPIRED_ENDORSEMENT = "ExpiredEndorsement"
QUOTE_SIGNATURE_INVALID = "QuoteSignatureInvalid"
REPORT_DATA_MISMATCH = "ReportDataMismatch"
MEASUREMENT_MISMATCH = "MeasurementMismatch"
BUNDLE_ID_MISMATCH = "BundleIdMismatch"
NONZERO_EXIT = "NonZeroExit"
DIGEST_MISMATCH = "DigestMismatch"

# distinct chains whose signature outcomes are remembered; one per provider key in practice
CHAIN_MEMO_SIZE = 64


class Verdict:
    """Accept, or Reject with the name of the first failing check and a detail."""

    def __init__(self, accepted: bool, reason: str | None = None, detail: str | None = None) -> None:
        self.accepted = accepted
        self.reason = reason
        self.detail = detail

    def __eq__(self, other: object) -> bool:
        return self.to_dict() == other.to_dict() if type(other) is Verdict else NotImplemented

    def __repr__(self) -> str:
        return f"Verdict({self.to_dict()})"

    @classmethod
    def accept(cls) -> Verdict:
        return cls(accepted=True)

    @classmethod
    def reject(cls, reason: str, detail: str | None = None) -> Verdict:
        return cls(accepted=False, reason=reason, detail=detail)

    def __bool__(self) -> bool:
        return self.accepted

    def to_dict(self) -> dict:
        out: dict = {"verdict": "Accept" if self.accepted else "Reject"}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _normalize_roots(trust_roots: Iterable[bytes | str]) -> set[bytes]:
    roots: set[bytes] = set()
    for root in trust_roots:
        raw = bytes.fromhex(root) if isinstance(root, str) else bytes(root)
        if len(raw) != 32:
            raise ValueError(f"trust root must be 32 bytes, got {len(raw)}")
        roots.add(raw)
    return roots


# Keyed on the parsed structures: frozen ``Wire`` records whose equality covers
# every field, signature included, so a hit is the same statement the check passed on.
@functools.lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _root_statement_valid(statement: RootStatement) -> bool:
    return statement.verify()


@functools.lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _endorsement_valid(endorsement: AttestationEndorsement, root_public_key: bytes) -> bool:
    return endorsement.verify(root_public_key)


def verify_bundle(data: bytes, trust_roots: Iterable[bytes | str], now: int) -> Verdict:
    """Check serialized bundle bytes against trusted roots at time ``now``.

    Total: every failure is a Reject verdict, never an exception (bad
    ``trust_roots`` themselves are a caller error and do raise).
    """
    roots = _normalize_roots(trust_roots)

    try:
        bundle = parse_bundle(data)
    except VersionUnsupported as exc:
        return Verdict.reject(VERSION_UNSUPPORTED, str(exc))
    except BundleParseError as exc:
        return Verdict.reject(PARSE_ERROR, str(exc))

    chain = bundle.chain
    if not _root_statement_valid(chain.root_statement):
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "root statement self-signature invalid")
    if chain.root_statement.root_public_key not in roots:
        return Verdict.reject(UNTRUSTED_ROOT, "chain roots to a key outside the trusted set")
    endorsement = chain.attestation_endorsement
    if endorsement.not_before >= endorsement.not_after:
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "endorsement validity window is empty")
    if not _endorsement_valid(endorsement, chain.root_statement.root_public_key):
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "attestation endorsement signature invalid")

    if now < endorsement.not_before:
        return Verdict.reject(ENDORSEMENT_NOT_YET_VALID, f"valid from {endorsement.not_before}")
    if now > endorsement.not_after:
        return Verdict.reject(EXPIRED_ENDORSEMENT, f"expired at {endorsement.not_after}")

    if not bundle.quote.verify_signature(endorsement.attestation_public_key):
        return Verdict.reject(QUOTE_SIGNATURE_INVALID, "quote signature or signing key id invalid")

    expected_report_data = compute_report_data(
        bundle.package_digest.value, bundle.output_digest.value, bundle.execution.nonce
    )
    if bundle.quote.report_data != expected_report_data:
        return Verdict.reject(REPORT_DATA_MISMATCH, "report_data does not bind these digests and nonce")
    if bundle.quote.measurement != compute_measurement(bundle.package_digest.value):
        return Verdict.reject(MEASUREMENT_MISMATCH, "measurement does not match the package digest")

    if bundle.bundle_id != canonical_bundle_id(data):
        return Verdict.reject(BUNDLE_ID_MISMATCH, "bundle_id does not recompute from the body")

    if bundle.execution.exit_status != 0:
        return Verdict.reject(NONZERO_EXIT, f"exit status {bundle.execution.exit_status}")

    return Verdict.accept()


def verify_against_archive(bundle: ProofBundle, archived_digest: bytes) -> Verdict:
    """Second-stage check: the proof speaks about the archived package.

    ``archived_digest`` is the archived tree's 32-byte digest value. Callers
    must have Accepted the bundle via verify_bundle first.
    """
    if bundle.package_digest.value != archived_digest:
        return Verdict.reject(
            DIGEST_MISMATCH,
            f"bundle attests {bundle.package_digest.hex}, archive holds {archived_digest.hex()}",
        )
    return Verdict.accept()
