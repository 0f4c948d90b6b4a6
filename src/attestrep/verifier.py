"""Proof verification against pinned trust roots.

Runs on digests and signatures only, so cost does not depend on how large
the attested package was. All failures come back as Reject verdicts with
the first failing check named, in a fixed order:

    parse -> chain -> validity -> quote signature -> binding -> bundle_id
          -> exit status

Every check reads the bundle template's match of the bytes
(``bundle.match_bundle``), which proves them canonical; no record is built.
The quote's signed body and the body ``bundle_id`` hashes are cut from the
matched text, the bindings compare its groups. Bytes the template refuses
go to ``parse_bundle``, which names the fault.

A verdict is a pure function of (bytes, trust roots, now). The state kept
between calls is two bounded memos, and no verdict is among it:

- the chain memo here, keyed on the chain's exact canonical text: the
  outcomes of the root statement's self-signature and of the endorsement's
  signature under its root key, with the root key, the validity window and
  the attestation key the later checks read. Every bundle from one provider
  carries the same chain, so those two Ed25519 checks run once per process;
- the loaded public keys of ``attestation`` (``KEY_MEMO_SIZE``): a key's
  bytes become a key object once, and every signature is still checked.

The quote, which is new for every run, is checked on every call, as are
trust-root membership, the validity window and the bindings. The clock is a
parameter; nothing here reads wall time.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable

from attestrep.attestation import AttestationQuote, EndorsementChain
from attestrep.bundle import (
    BundleParseError,
    ProofBundle,
    VersionUnsupported,
    bundle_template,
    canonical_bundle_id,
    compute_measurement,
    compute_report_data,
    match_bundle,
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


@functools.lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _chain_checks(text: str) -> tuple[bool, bytes, int, int, bool, bytes]:
    """What the chain checks find in the chain whose canonical text is ``text``.

    (root statement self-signature valid, root key, not_before, not_after,
    endorsement signature valid under that root key, attestation key). The
    key is the exact text, so a chain one byte different is another entry;
    records are built only here, for a chain not seen before. The endorsement
    is checked only where a verdict can reach its check: the root statement
    valid and the window not empty.
    """
    chain = EndorsementChain.from_dict(json.loads(text))
    statement, endorsement = chain.root_statement, chain.attestation_endorsement
    root_valid = statement.verify()
    endorsement_valid = (root_valid and endorsement.not_before < endorsement.not_after
                         and endorsement.verify(statement.root_public_key))
    return (root_valid, statement.root_public_key, endorsement.not_before, endorsement.not_after,
            endorsement_valid, endorsement.attestation_public_key)


def verify_bundle(data: bytes, trust_roots: Iterable[bytes | str], now: int) -> Verdict:
    """Check serialized bundle bytes against trusted roots at time ``now``.

    Total: every failure is a Reject verdict, never an exception (bad
    ``trust_roots`` themselves are a caller error and do raise).
    """
    roots = _normalize_roots(trust_roots)

    match = match_bundle(data)
    if match is None:
        try:
            parse_bundle(data)  # accepts only what the template matches: here it names the fault
        except VersionUnsupported as exc:
            return Verdict.reject(VERSION_UNSUPPORTED, str(exc))
        except BundleParseError as exc:
            return Verdict.reject(PARSE_ERROR, str(exc))
        raise AssertionError("parse_bundle accepted bytes the bundle template refused")

    root_valid, root_key, not_before, not_after, endorsement_valid, attestation_key = _chain_checks(match["chain"])
    if not root_valid:
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "root statement self-signature invalid")
    if root_key not in roots:
        return Verdict.reject(UNTRUSTED_ROOT, "chain roots to a key outside the trusted set")
    if not_before >= not_after:
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "endorsement validity window is empty")
    if not endorsement_valid:
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "attestation endorsement signature invalid")

    if now < not_before:
        return Verdict.reject(ENDORSEMENT_NOT_YET_VALID, f"valid from {not_before}")
    if now > not_after:
        return Verdict.reject(EXPIRED_ENDORSEMENT, f"expired at {not_after}")

    if not AttestationQuote.verify_signature(
        attestation_key,
        bytes.fromhex(match["quote__signing_key_id"]),
        bytes.fromhex(match["quote__signature"]),
        bundle_template().signed_body(match, "quote"),
    ):
        return Verdict.reject(QUOTE_SIGNATURE_INVALID, "quote signature or signing key id invalid")

    package_digest = bytes.fromhex(match["package_digest__value"])
    expected_report_data = compute_report_data(
        package_digest, bytes.fromhex(match["output_digest__value"]), bytes.fromhex(match["execution__nonce"])
    )
    if bytes.fromhex(match["quote__report_data"]) != expected_report_data:
        return Verdict.reject(REPORT_DATA_MISMATCH, "report_data does not bind these digests and nonce")
    if bytes.fromhex(match["quote__measurement"]) != compute_measurement(package_digest):
        return Verdict.reject(MEASUREMENT_MISMATCH, "measurement does not match the package digest")

    if bytes.fromhex(match["bundle_id"]) != canonical_bundle_id(match):
        return Verdict.reject(BUNDLE_ID_MISMATCH, "bundle_id does not recompute from the body")

    exit_status = match["execution__exit_status"]  # canonical decimal: "0" is the only zero
    if exit_status != "0":
        return Verdict.reject(NONZERO_EXIT, f"exit status {exit_status}")

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
