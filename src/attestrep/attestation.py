"""Simulated VM-level attestation provider.

Produces signed quotes binding a 32-byte code-image measurement and a
64-byte caller-controlled report-data field, plus an endorsement chain
linking the quote-signing key to a simulated vendor root. The key hierarchy
is derived deterministically from a 32-byte seed so fixtures are stable; a
real TDX/SEV-SNP backend would slot in behind the same surface with
hardware-held keys and a vendor-issued chain.

Signatures are Ed25519 (deterministic, 64 bytes); hashes are SHA-256. Each
signed structure is a ``Wire`` field table; its signature covers the
canonical JSON of its constant tags and of every field the table marks
signed, which is all but ``signature`` (and, for quotes, ``signing_key_id``).
"""

from __future__ import annotations

import functools
import hashlib
import time

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from attestrep import AttestrepError
from attestrep.canonical import Wire, canonical_json_bytes, wire

QUOTE_VERSION = 1
SEED_SIZE = 32
MEASUREMENT_SIZE = 32
REPORT_DATA_SIZE = 64
SIGNATURE_SIZE = 64
KEY_ID_SIZE = 32
PUBLIC_KEY_SIZE = 32

ROOT_STATEMENT_TYPE = "vendor-root-v1"
ENDORSEMENT_STATEMENT_TYPE = "attestation-key-endorsement-v1"

_ATTEST_KEY_INFO = b"attest-key-v1"

DEFAULT_PROVIDER_ID = "SIM-VMTEE-1"
DEFAULT_VALIDITY_SECONDS = 10 * 365 * 24 * 3600

# distinct public keys kept loaded: a root and an attestation key for each of as
# many providers as the verifier's chain memo holds (``verifier.CHAIN_MEMO_SIZE``)
KEY_MEMO_SIZE = 128


class AttestationError(AttestrepError):
    """Base class for attestation provider failures."""


class BadSeedLength(AttestationError):
    def __init__(self, got: int) -> None:
        super().__init__(f"root_secret_seed must be {SEED_SIZE} bytes, got {got}")


class BadMeasurementLength(AttestationError):
    def __init__(self, got: int) -> None:
        super().__init__(f"measurement must be {MEASUREMENT_SIZE} bytes, got {got}")


class BadReportDataLength(AttestationError):
    def __init__(self, got: int) -> None:
        super().__init__(f"report_data must be {REPORT_DATA_SIZE} bytes, got {got}")


def key_fingerprint(public_key_bytes: bytes) -> bytes:
    """32-byte identifier of a raw Ed25519 public key."""
    return hashlib.sha256(public_key_bytes).digest()


# A loaded key is a pure function of its bytes; only the loading is remembered,
# never a signature's outcome. A key that fails to load raises and is not kept.
_public_key = functools.lru_cache(maxsize=KEY_MEMO_SIZE)(Ed25519PublicKey.from_public_bytes)


def _verify_ed25519(public_key_bytes: bytes, signature: bytes, message: bytes) -> bool:
    try:
        _public_key(public_key_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class ProviderConfig:
    """Simulated provider configuration; real backends supply external chains."""

    def __init__(self, provider_id: str = DEFAULT_PROVIDER_ID, root_secret_seed: bytes = b"\x00" * SEED_SIZE,
                 attestation_validity: int = DEFAULT_VALIDITY_SECONDS) -> None:
        if len(root_secret_seed) != SEED_SIZE:
            raise BadSeedLength(len(root_secret_seed))
        if attestation_validity <= 0:
            raise ValueError("attestation_validity must be positive seconds")
        self.provider_id = provider_id
        self.root_secret_seed = root_secret_seed
        self.attestation_validity = attestation_validity

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is ProviderConfig else NotImplemented


class _Signed(Wire):
    def canonical_body(self) -> bytes:
        """Serialization the signature covers: the constant tags and every signed field."""
        return canonical_json_bytes(self.to_dict(signed_only=True))


def _sign(key: Ed25519PrivateKey, unsigned: _Signed):
    """``unsigned`` with its signature field set to ``key``'s signature over its canonical body."""
    return unsigned.replace(signature=key.sign(unsigned.canonical_body()))


class AttestationQuote(_Signed):
    """Signed measurement + report-data structure, one format version so far."""

    version: int
    provider_id: str
    measurement: bytes = wire(hex_size=MEASUREMENT_SIZE)
    report_data: bytes = wire(hex_size=REPORT_DATA_SIZE)
    issued_at: int = wire(minimum=0)
    signature: bytes = wire(hex_size=SIGNATURE_SIZE, signed=False)
    signing_key_id: bytes = wire(hex_size=KEY_ID_SIZE, signed=False)

    @classmethod
    def verify_signature(cls, attestation_public_key: bytes, signing_key_id: bytes, signature: bytes,
                         body: bytes) -> bool:
        """Whether a quote whose signed part is ``body`` was signed by ``attestation_public_key`` and names it.

        Takes the quote's parts rather than a record, so a verifier can pass
        them straight from the bytes it matched.
        """
        if signing_key_id != key_fingerprint(attestation_public_key):
            return False
        return _verify_ed25519(attestation_public_key, signature, body)


class RootStatement(_Signed):
    """Self-signed statement naming the simulated vendor root public key."""

    TAGS = {"statement": ROOT_STATEMENT_TYPE}

    provider_id: str
    root_public_key: bytes = wire(hex_size=PUBLIC_KEY_SIZE)
    signature: bytes = wire(hex_size=SIGNATURE_SIZE, signed=False)

    def verify(self) -> bool:
        return _verify_ed25519(self.root_public_key, self.signature, self.canonical_body())


class AttestationEndorsement(_Signed):
    """Root-signed endorsement of the attestation public key with a validity window."""

    TAGS = {"statement": ENDORSEMENT_STATEMENT_TYPE}

    provider_id: str
    attestation_public_key: bytes = wire(hex_size=PUBLIC_KEY_SIZE)
    not_before: int = wire(minimum=0)
    not_after: int = wire(minimum=0)
    signature: bytes = wire(hex_size=SIGNATURE_SIZE, signed=False)

    def verify(self, root_public_key: bytes) -> bool:
        return _verify_ed25519(root_public_key, self.signature, self.canonical_body())


class EndorsementChain(Wire):
    root_statement: RootStatement
    attestation_endorsement: AttestationEndorsement


class AttestationProvider:
    """Holds the derived key pair hierarchy; read-only after construction.

    ``sign_quote`` may be called concurrently: key material never mutates
    after init.
    """

    def __init__(self, config: ProviderConfig, now: int | None = None) -> None:
        self.config = config
        self._root_key = Ed25519PrivateKey.from_private_bytes(config.root_secret_seed)
        attest_seed = hashlib.sha256(config.root_secret_seed + _ATTEST_KEY_INFO).digest()
        self._attestation_key = Ed25519PrivateKey.from_private_bytes(attest_seed)
        self.root_public_key = self._root_key.public_key().public_bytes_raw()
        self.attestation_public_key = self._attestation_key.public_key().public_bytes_raw()
        self.signing_key_id = key_fingerprint(self.attestation_public_key)

        not_before = int(time.time()) if now is None else int(now)
        not_after = not_before + config.attestation_validity
        root_stmt = _sign(self._root_key, RootStatement(config.provider_id, self.root_public_key, signature=b""))
        endorsement = _sign(
            self._root_key,
            AttestationEndorsement(config.provider_id, self.attestation_public_key, not_before, not_after, signature=b""),
        )
        self._chain = EndorsementChain(root_statement=root_stmt, attestation_endorsement=endorsement)

    def sign_quote(self, measurement: bytes, report_data: bytes, now: int | None = None) -> AttestationQuote:
        """Issue a quote over (measurement, report_data) at ``now`` UTC seconds."""
        if len(measurement) != MEASUREMENT_SIZE:
            raise BadMeasurementLength(len(measurement))
        if len(report_data) != REPORT_DATA_SIZE:
            raise BadReportDataLength(len(report_data))
        issued_at = int(time.time()) if now is None else int(now)
        unsigned = AttestationQuote(
            version=QUOTE_VERSION,
            provider_id=self.config.provider_id,
            measurement=measurement,
            report_data=report_data,
            issued_at=issued_at,
            signature=b"",
            signing_key_id=self.signing_key_id,
        )
        return _sign(self._attestation_key, unsigned)

    def export_chain(self) -> EndorsementChain:
        return self._chain
