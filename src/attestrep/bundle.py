"""The publishable proof bundle: package, outputs, and quote, bound together.

Binding scheme: the quote's 64-byte report_data carries
SHA-256(package_digest || output_digest || nonce) in its first half (second
half zero), and the simulated code-image measurement is
SHA-256("attestrep-image-v1" || package_digest). Changing any file in the
package or any produced output changes a digest, which breaks the quote
binding, so a bundle can never be moved to different code or results.

``PackageDigest`` and ``ExecutionSummary`` are defined here beside the
``ProofBundle`` that carries them; ``package_model`` computes the one and the
runner's ``ExecutionRecord`` extends the other, and reading a bundle loads
neither.

Bundles serialize to canonical JSON (``.arproof`` files); bundle_id is the
SHA-256 of the canonical body (every field but bundle_id) and doubles as
the portal's verification token. Parsing is one match of the bytes against
the bundle's canonical template (``attestrep.canonical.Template``, with
``format_version`` the literal 1): the input must be exactly the canonical
serialization of what it parses to. Bytes the template refuses are always
rejected; they are decoded strictly (``json.loads``, the version check,
``from_dict``) only to name the fault.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING

from attestrep import AttestrepError
from attestrep.attestation import AttestationProvider, AttestationQuote, EndorsementChain
from attestrep.canonical import SchemaError, Template, Wire, canonical_json_bytes, sha256, wire

if TYPE_CHECKING:  # the reader path never loads the runner
    from attestrep.runner import ExecutionRecord

FORMAT_VERSION = 1

_IMAGE_DOMAIN = b"attestrep-image-v1"
_ZERO_TAIL = b"\x00" * 32
# canonical bundle bytes open with '{"bundle_id":"<64 hex>",': the key sorts first
_BODY_START = len('{"bundle_id":"') + 64 + len('",')


class BundleError(AttestrepError):
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


class PackageDigest(Wire):
    """Canonical content digest of a package file tree (``package_model.digest_entries``)."""

    value: bytes = wire(hex_size=32)
    file_count: int = wire(minimum=0)
    total_bytes: int = wire(minimum=0)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if len(self.value) != 32:
            raise ValueError("digest value must be 32 bytes")
        if self.file_count < 0 or self.total_bytes < 0:
            raise ValueError("counts must be non-negative")

    @property
    def hex(self) -> str:
        return self.value.hex()


class ExecutionSummary(Wire):
    """What a run states about itself inside a proof bundle."""

    exit_status: int
    wall_seconds: float = wire(minimum=0)
    started_at: int = wire(minimum=0)
    finished_at: int = wire(minimum=0)
    stdout_log_digest: bytes = wire(hex_size=32)
    stderr_log_digest: bytes = wire(hex_size=32)
    nonce: bytes = wire(hex_size=32)


class ProofBundle(Wire):
    format_version: int
    package_digest: PackageDigest
    output_digest: PackageDigest
    execution: ExecutionSummary
    quote: AttestationQuote
    chain: EndorsementChain
    bundle_id: bytes = wire(hex_size=32, signed=False)

    def computed_bundle_id(self) -> bytes:
        return sha256(canonical_json_bytes(self.to_dict(signed_only=True)))

    @property
    def token(self) -> str:
        return self.bundle_id.hex()


def canonical_bundle_id(data: bytes) -> bytes:
    """``parse_bundle(data).computed_bundle_id()``, from the bytes ``parse_bundle`` accepted.

    The canonical body without ``bundle_id`` is ``{`` and the rest of ``data``
    after that first member, so nothing is encoded again.
    """
    return sha256(b"{" + data[_BODY_START:])


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
    bundle = ProofBundle(
        format_version=FORMAT_VERSION,
        package_digest=record.package_digest,
        output_digest=record.output_digest,
        execution=record.summary(),
        quote=quote,
        chain=provider.export_chain(),
        bundle_id=b"",
    )
    return bundle.replace(bundle_id=bundle.computed_bundle_id())


def serialize_bundle(bundle: ProofBundle) -> bytes:
    """Canonical bytes of the bundle; repeated calls are byte-identical."""
    return canonical_json_bytes(bundle.to_dict())


@functools.cache
def _template() -> Template:
    """The bundle's canonical template, compiled at the first parse, not at import."""
    return Template(ProofBundle, format_version=FORMAT_VERSION)


def parse_bundle(data: bytes) -> ProofBundle:
    """Parse canonical ``.arproof`` bytes back into a ProofBundle.

    Strict: unknown or missing keys, malformed fields, non-finite numbers,
    and any non-canonical encoding are rejected, so parse(serialize(b)) == b
    and serialize(parse(data)) == data both hold. Only the template accepts;
    the strict decoding below runs on bytes it refused, to name the fault.
    """
    try:
        bundle = _template().read(data.decode("utf-8"))
    except UnicodeDecodeError:
        bundle = None
    if bundle is not None:
        return bundle
    try:
        top = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise BundleParseError(0, "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # includes UnicodeDecodeError and over-long integers
        raise BundleParseError(getattr(exc, "pos", 0), f"invalid JSON: {exc}") from exc
    if not isinstance(top, dict):
        raise BundleParseError(0, "top level is not an object")
    if top.get("format_version") != FORMAT_VERSION:
        raise VersionUnsupported(top.get("format_version"))
    try:
        ProofBundle.from_dict(top)
    except SchemaError as exc:
        raise BundleParseError(0, str(exc)) from exc
    # every field is valid, so what the template refused is the encoding itself
    raise BundleParseError(0, "input is not the canonical serialization of its contents")
