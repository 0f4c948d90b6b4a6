"""The publishable proof bundle: package, outputs, and quote, bound together.

Binding scheme: the quote's 64-byte report_data carries
SHA-256(package_digest || output_digest || nonce) in its first half (second
half zero), and the simulated code-image measurement is
SHA-256("attestrep-image-v1" || package_digest). Changing any file in the
package or any produced output changes a digest, which breaks the quote
binding, so a bundle can never be moved to different code or results.

Bundles serialize to canonical JSON (``.arproof`` files); bundle_id is the
SHA-256 of the canonical body and doubles as the portal's verification
token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from attestrep.attestation import (
    ENDORSEMENT_STATEMENT_TYPE,
    KEY_ID_SIZE,
    MEASUREMENT_SIZE,
    REPORT_DATA_SIZE,
    ROOT_STATEMENT_TYPE,
    SIGNATURE_SIZE,
    AttestationEndorsement,
    AttestationProvider,
    AttestationQuote,
    EndorsementChain,
    RootStatement,
)
from attestrep.canonical import canonical_json_bytes, from_hex, sha256
from attestrep.package_model import PackageDigest
from attestrep.runner import ExecutionRecord

FORMAT_VERSION = 1
BUNDLE_EXTENSION = ".arproof"

_IMAGE_DOMAIN = b"attestrep-image-v1"
_ZERO_TAIL = b"\x00" * 32


class BundleError(Exception):
    """Base class for bundle construction and parsing failures."""


class NonZeroExit(BundleError):
    """Proofs are only issued for successful runs."""

    def __init__(self, status: int) -> None:
        super().__init__(f"run exited with status {status}; no proof issued")
        self.status = status


class BundleParseError(BundleError):
    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"bundle parse error at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class VersionUnsupported(BundleError):
    def __init__(self, version: object) -> None:
        super().__init__(f"unsupported bundle format_version {version!r}")
        self.version = version


def compute_measurement(package_digest_value: bytes) -> bytes:
    """Simulated code-image measurement for a package digest."""
    return sha256(_IMAGE_DOMAIN + package_digest_value)


def compute_report_data(package_digest_value: bytes, output_digest_value: bytes, nonce: bytes) -> bytes:
    """64-byte report_data binding package, outputs, and run nonce."""
    return sha256(package_digest_value + output_digest_value + nonce) + _ZERO_TAIL


@dataclass(frozen=True)
class ExecutionSummary:
    """The slice of an ExecutionRecord that travels inside the bundle."""

    exit_status: int
    wall_seconds: float
    started_at: int
    finished_at: int
    stdout_log_digest: bytes
    stderr_log_digest: bytes
    nonce: bytes

    def to_dict(self) -> dict:
        return {
            "exit_status": self.exit_status,
            "wall_seconds": self.wall_seconds,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "stdout_log_digest": self.stdout_log_digest.hex(),
            "stderr_log_digest": self.stderr_log_digest.hex(),
            "nonce": self.nonce.hex(),
        }


@dataclass(frozen=True)
class ProofBundle:
    format_version: int
    package_digest: PackageDigest
    output_digest: PackageDigest
    execution: ExecutionSummary
    quote: AttestationQuote
    chain: EndorsementChain
    bundle_id: bytes

    def body_dict(self) -> dict:
        """Everything bundle_id covers, i.e. all fields except bundle_id."""
        return {
            "format_version": self.format_version,
            "package_digest": self.package_digest.to_dict(),
            "output_digest": self.output_digest.to_dict(),
            "execution": self.execution.to_dict(),
            "quote": self.quote.to_dict(),
            "chain": self.chain.to_dict(),
        }

    def computed_bundle_id(self) -> bytes:
        return sha256(canonical_json_bytes(self.body_dict()))

    def to_dict(self) -> dict:
        body = self.body_dict()
        body["bundle_id"] = self.bundle_id.hex()
        return body

    @property
    def token(self) -> str:
        return self.bundle_id.hex()


def build_bundle(
    record: ExecutionRecord,
    provider: AttestationProvider,
    now: int | None = None,
) -> ProofBundle:
    """Assemble and sign the proof for a successful run."""
    if record.exit_status != 0:
        raise NonZeroExit(record.exit_status)
    measurement = compute_measurement(record.package_digest.value)
    report_data = compute_report_data(
        record.package_digest.value, record.output_digest.value, record.nonce
    )
    quote = provider.sign_quote(measurement, report_data, now=now)
    chain = provider.export_chain()
    summary = ExecutionSummary(
        exit_status=record.exit_status,
        wall_seconds=record.wall_seconds,
        started_at=record.started_at,
        finished_at=record.finished_at,
        stdout_log_digest=record.stdout_log_digest,
        stderr_log_digest=record.stderr_log_digest,
        nonce=record.nonce,
    )
    bundle = ProofBundle(
        format_version=FORMAT_VERSION,
        package_digest=record.package_digest,
        output_digest=record.output_digest,
        execution=summary,
        quote=quote,
        chain=chain,
        bundle_id=b"",
    )
    return replace(bundle, bundle_id=bundle.computed_bundle_id())


def serialize_bundle(bundle: ProofBundle) -> bytes:
    """Canonical bytes of the bundle; repeated calls are byte-identical."""
    return canonical_json_bytes(bundle.to_dict())


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict) or set(obj) != keys:
        raise BundleParseError(0, f"{where}: expected exactly keys {sorted(keys)}")


def _parse_int(obj: dict, key: str, where: str, minimum: int | None = None) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise BundleParseError(0, f"{where}.{key}: expected integer")
    if minimum is not None and value < minimum:
        raise BundleParseError(0, f"{where}.{key}: below minimum {minimum}")
    return value


def _parse_digest(obj: dict, where: str) -> PackageDigest:
    _require_keys(obj, {"value", "file_count", "total_bytes"}, where)
    try:
        value = from_hex(obj["value"], 32, f"{where}.value")
    except ValueError as exc:
        raise BundleParseError(0, str(exc)) from exc
    return PackageDigest(
        value=value,
        file_count=_parse_int(obj, "file_count", where, minimum=0),
        total_bytes=_parse_int(obj, "total_bytes", where, minimum=0),
    )


def _parse_hex_field(obj: dict, key: str, size: int, where: str) -> bytes:
    try:
        return from_hex(obj[key], size, f"{where}.{key}")
    except ValueError as exc:
        raise BundleParseError(0, str(exc)) from exc


def parse_bundle(data: bytes) -> ProofBundle:
    """Parse canonical ``.arproof`` bytes back into a ProofBundle.

    Strict: unknown or missing keys, malformed fields, and any
    non-canonical encoding are rejected, so parse(serialize(b)) == b and
    serialize(parse(data)) == data both hold.
    """
    try:
        top = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        offset = getattr(exc, "pos", 0) if isinstance(exc, json.JSONDecodeError) else 0
        raise BundleParseError(offset, f"invalid JSON: {exc}") from exc
    if not isinstance(top, dict):
        raise BundleParseError(0, "top level is not an object")
    if top.get("format_version") != FORMAT_VERSION:
        raise VersionUnsupported(top.get("format_version"))
    _require_keys(
        top,
        {"format_version", "package_digest", "output_digest", "execution", "quote", "chain", "bundle_id"},
        "bundle",
    )

    package_digest = _parse_digest(top["package_digest"], "package_digest")
    output_digest = _parse_digest(top["output_digest"], "output_digest")

    execution_obj = top["execution"]
    _require_keys(
        execution_obj,
        {"exit_status", "wall_seconds", "started_at", "finished_at",
         "stdout_log_digest", "stderr_log_digest", "nonce"},
        "execution",
    )
    wall = execution_obj["wall_seconds"]
    if isinstance(wall, bool) or not isinstance(wall, (int, float)) or wall < 0:
        raise BundleParseError(0, "execution.wall_seconds: expected non-negative number")
    execution = ExecutionSummary(
        exit_status=_parse_int(execution_obj, "exit_status", "execution"),
        wall_seconds=float(wall) if isinstance(wall, float) else wall,
        started_at=_parse_int(execution_obj, "started_at", "execution", minimum=0),
        finished_at=_parse_int(execution_obj, "finished_at", "execution", minimum=0),
        stdout_log_digest=_parse_hex_field(execution_obj, "stdout_log_digest", 32, "execution"),
        stderr_log_digest=_parse_hex_field(execution_obj, "stderr_log_digest", 32, "execution"),
        nonce=_parse_hex_field(execution_obj, "nonce", 32, "execution"),
    )

    quote_obj = top["quote"]
    _require_keys(
        quote_obj,
        {"version", "provider_id", "measurement", "report_data", "issued_at", "signature", "signing_key_id"},
        "quote",
    )
    if not isinstance(quote_obj["provider_id"], str):
        raise BundleParseError(0, "quote.provider_id: expected string")
    quote = AttestationQuote(
        version=_parse_int(quote_obj, "version", "quote"),
        provider_id=quote_obj["provider_id"],
        measurement=_parse_hex_field(quote_obj, "measurement", MEASUREMENT_SIZE, "quote"),
        report_data=_parse_hex_field(quote_obj, "report_data", REPORT_DATA_SIZE, "quote"),
        issued_at=_parse_int(quote_obj, "issued_at", "quote", minimum=0),
        signature=_parse_hex_field(quote_obj, "signature", SIGNATURE_SIZE, "quote"),
        signing_key_id=_parse_hex_field(quote_obj, "signing_key_id", KEY_ID_SIZE, "quote"),
    )

    chain_obj = top["chain"]
    _require_keys(chain_obj, {"root_statement", "attestation_endorsement"}, "chain")
    root_obj = chain_obj["root_statement"]
    _require_keys(root_obj, {"statement", "provider_id", "root_public_key", "signature"}, "chain.root_statement")
    if root_obj["statement"] != ROOT_STATEMENT_TYPE or not isinstance(root_obj["provider_id"], str):
        raise BundleParseError(0, "chain.root_statement: bad statement type or provider_id")
    root_statement = RootStatement(
        provider_id=root_obj["provider_id"],
        root_public_key=_parse_hex_field(root_obj, "root_public_key", 32, "chain.root_statement"),
        signature=_parse_hex_field(root_obj, "signature", SIGNATURE_SIZE, "chain.root_statement"),
    )
    endo_obj = chain_obj["attestation_endorsement"]
    _require_keys(
        endo_obj,
        {"statement", "provider_id", "attestation_public_key", "not_before", "not_after", "signature"},
        "chain.attestation_endorsement",
    )
    if endo_obj["statement"] != ENDORSEMENT_STATEMENT_TYPE or not isinstance(endo_obj["provider_id"], str):
        raise BundleParseError(0, "chain.attestation_endorsement: bad statement type or provider_id")
    endorsement = AttestationEndorsement(
        provider_id=endo_obj["provider_id"],
        attestation_public_key=_parse_hex_field(endo_obj, "attestation_public_key", 32, "chain.attestation_endorsement"),
        not_before=_parse_int(endo_obj, "not_before", "chain.attestation_endorsement", minimum=0),
        not_after=_parse_int(endo_obj, "not_after", "chain.attestation_endorsement", minimum=0),
        signature=_parse_hex_field(endo_obj, "signature", SIGNATURE_SIZE, "chain.attestation_endorsement"),
    )

    bundle = ProofBundle(
        format_version=FORMAT_VERSION,
        package_digest=package_digest,
        output_digest=output_digest,
        execution=execution,
        quote=quote,
        chain=EndorsementChain(root_statement=root_statement, attestation_endorsement=endorsement),
        bundle_id=_parse_hex_field(top, "bundle_id", 32, "bundle"),
    )
    if serialize_bundle(bundle) != data:
        raise BundleParseError(0, "input is not the canonical serialization of its contents")
    return bundle
