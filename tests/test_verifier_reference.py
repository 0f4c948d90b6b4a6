"""``verify_bundle`` gives the verdict of the record-based algorithm, on every input.

``verify_bundle`` reads what it checks from the bundle template's match and
builds no record. The reference below is the algorithm it replaced: parse
the bundle into records with ``parse_bundle``, then check the records with
their own methods, the chain with no memo. Verdict, reason and detail must
be equal, on fixed mutation classes and on Hypothesis edits: field edits,
byte flips, re-signing with a test key, and provider ids that hold
``","signature":"``, escapes and astral text. Wherever the template matches,
the signed bodies sliced from the text must equal the records' encodings.
"""

from __future__ import annotations

import json

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep.attestation import (
    DEFAULT_VALIDITY_SECONDS,
    AttestationEndorsement,
    AttestationProvider,
    AttestationQuote,
    ProviderConfig,
    RootStatement,
    key_fingerprint,
)
from attestrep.bundle import (
    BundleParseError,
    ProofBundle,
    VersionUnsupported,
    build_bundle,
    bundle_template,
    canonical_bundle_id,
    compute_measurement,
    compute_report_data,
    match_bundle,
    parse_bundle,
    serialize_bundle,
)
from attestrep.canonical import canonical_json_bytes, sha256
from attestrep.verifier import (
    BUNDLE_ID_MISMATCH,
    CHAIN_SIGNATURE_INVALID,
    ENDORSEMENT_NOT_YET_VALID,
    EXPIRED_ENDORSEMENT,
    MEASUREMENT_MISMATCH,
    NONZERO_EXIT,
    PARSE_ERROR,
    QUOTE_SIGNATURE_INVALID,
    REPORT_DATA_MISMATCH,
    UNTRUSTED_ROOT,
    VERSION_UNSUPPORTED,
    Verdict,
    verify_bundle,
)
from conftest import NOW, OTHER_SEED, PROVIDER_SEED, T0
from test_bundle import golden_record
from test_bundle_schema import _bundles
from test_bundle_template import MUTATIONS


def reference_verify(data: bytes, trust_roots: list[bytes], now: int) -> Verdict:
    """The record-based verifier: ``parse_bundle``, then each check on the records, in the fixed order."""
    roots = set(trust_roots)
    try:
        bundle = parse_bundle(data)
    except VersionUnsupported as exc:
        return Verdict.reject(VERSION_UNSUPPORTED, str(exc))
    except BundleParseError as exc:
        return Verdict.reject(PARSE_ERROR, str(exc))
    statement, endorsement, quote = bundle.chain.root_statement, bundle.chain.attestation_endorsement, bundle.quote
    if not statement.verify():
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "root statement self-signature invalid")
    if statement.root_public_key not in roots:
        return Verdict.reject(UNTRUSTED_ROOT, "chain roots to a key outside the trusted set")
    if endorsement.not_before >= endorsement.not_after:
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "endorsement validity window is empty")
    if not endorsement.verify(statement.root_public_key):
        return Verdict.reject(CHAIN_SIGNATURE_INVALID, "attestation endorsement signature invalid")
    if now < endorsement.not_before:
        return Verdict.reject(ENDORSEMENT_NOT_YET_VALID, f"valid from {endorsement.not_before}")
    if now > endorsement.not_after:
        return Verdict.reject(EXPIRED_ENDORSEMENT, f"expired at {endorsement.not_after}")
    if not AttestationQuote.verify_signature(endorsement.attestation_public_key, quote.signing_key_id,
                                             quote.signature, quote.canonical_body()):
        return Verdict.reject(QUOTE_SIGNATURE_INVALID, "quote signature or signing key id invalid")
    package = bundle.package_digest.value
    if quote.report_data != compute_report_data(package, bundle.output_digest.value, bundle.execution.nonce):
        return Verdict.reject(REPORT_DATA_MISMATCH, "report_data does not bind these digests and nonce")
    if quote.measurement != compute_measurement(package):
        return Verdict.reject(MEASUREMENT_MISMATCH, "measurement does not match the package digest")
    if bundle.bundle_id != bundle.computed_bundle_id():
        return Verdict.reject(BUNDLE_ID_MISMATCH, "bundle_id does not recompute from the body")
    if bundle.execution.exit_status != 0:
        return Verdict.reject(NONZERO_EXIT, f"exit status {bundle.execution.exit_status}")
    return Verdict.accept()


def _assert_agrees(data: bytes, roots: list[bytes], now: int) -> Verdict:
    """``verify_bundle`` and the reference agree on ``data``; where the template matches, so do the signed bodies."""
    verdict = verify_bundle(data, roots, now=now)
    assert verdict == reference_verify(data, roots, now)
    match = match_bundle(data)
    assert (match is None) == (verdict.reason in (PARSE_ERROR, VERSION_UNSUPPORTED))
    if match is not None:
        bundle = parse_bundle(data)
        assert bundle_template().signed_body(match, "quote") == bundle.quote.canonical_body()
        assert canonical_bundle_id(match) == bundle.computed_bundle_id()
    return verdict


ROOT_KEY = Ed25519PrivateKey.from_private_bytes(PROVIDER_SEED)  # the simulated root's key is its seed
TEST_KEY = Ed25519PrivateKey.from_private_bytes(b"\x07" * 32)
TEST_PUBLIC = TEST_KEY.public_key().public_bytes_raw()
OTHER_ROOT = AttestationProvider(ProviderConfig(root_secret_seed=OTHER_SEED), now=T0).root_public_key
GOLDEN_ROOT = AttestationProvider(ProviderConfig(root_secret_seed=b"\x00" * 32), now=0).root_public_key


def _bundle_bytes(provider_id: str = "SIM-VMTEE-1") -> bytes:
    provider = AttestationProvider(ProviderConfig(provider_id=provider_id, root_secret_seed=PROVIDER_SEED), now=T0)
    return serialize_bundle(build_bundle(golden_record(), provider, now=NOW))


def _flip_hex(text: str) -> str:
    return ("1" if text[0] == "0" else "0") + text[1:]


def _resign(node: dict, kind: type, key: Ed25519PrivateKey) -> None:
    node["signature"] = key.sign(kind.from_dict(node).canonical_body()).hex()


def _set(path: str, value):
    def edit(obj: dict) -> None:
        *parents, leaf = path.split(".")
        for step in parents:
            obj = obj[step]
        obj[leaf] = value(obj[leaf]) if callable(value) else value
    return edit


def _quote_by_test_key(obj: dict) -> None:
    obj["quote"]["signing_key_id"] = key_fingerprint(TEST_PUBLIC).hex()
    _resign(obj["quote"], AttestationQuote, TEST_KEY)


def _chain_endorses_test_key(obj: dict) -> None:
    endorsement = obj["chain"]["attestation_endorsement"]
    endorsement["attestation_public_key"] = TEST_PUBLIC.hex()
    _resign(endorsement, AttestationEndorsement, ROOT_KEY)
    _quote_by_test_key(obj)


def _test_key_binds_other_outputs(obj: dict) -> None:
    obj["output_digest"]["value"] = sha256(b"other outputs").hex()
    report_data = compute_report_data(bytes.fromhex(obj["package_digest"]["value"]),
                                      bytes.fromhex(obj["output_digest"]["value"]),
                                      bytes.fromhex(obj["execution"]["nonce"]))
    obj["quote"]["report_data"] = report_data.hex()
    _chain_endorses_test_key(obj)


def _test_key_signs_other_measurement(obj: dict) -> None:
    _set("quote.measurement", _flip_hex)(obj)
    _chain_endorses_test_key(obj)


def _root_of_test_key(obj: dict) -> None:
    statement = obj["chain"]["root_statement"]
    statement["root_public_key"] = TEST_PUBLIC.hex()
    _resign(statement, RootStatement, TEST_KEY)


# name -> edit of the bundle's JSON object; bundle_id is recomputed after it or not, both ways
EDITS = {
    "output-digest": _set("output_digest.value", sha256(b"other tree").hex()),
    "package-digest": _set("package_digest.value", sha256(b"imposter").hex()),
    "file-count": _set("package_digest.file_count", lambda count: count + 1),
    "nonce": _set("execution.nonce", _flip_hex),
    "exit-status": _set("execution.exit_status", 3),
    "negative-exit-status": _set("execution.exit_status", -1),
    "wall-seconds": _set("execution.wall_seconds", 999.0),
    "measurement": _set("quote.measurement", _flip_hex),
    "report-data": _set("quote.report_data", _flip_hex),
    "issued-at": _set("quote.issued_at", lambda at: at + 1),
    "quote-version": _set("quote.version", 2),
    "quote-provider-id": _set("quote.provider_id", "X"),
    "quote-signature": _set("quote.signature", _flip_hex),
    "signing-key-id": _set("quote.signing_key_id", _flip_hex),
    "root-provider-id": _set("chain.root_statement.provider_id", "X"),
    "root-key": _set("chain.root_statement.root_public_key", OTHER_ROOT.hex()),
    "root-signature": _set("chain.root_statement.signature", _flip_hex),
    "endorsement-key": _set("chain.attestation_endorsement.attestation_public_key", TEST_PUBLIC.hex()),
    "empty-window": _set("chain.attestation_endorsement.not_before", 2**40),
    "not-after": _set("chain.attestation_endorsement.not_after", lambda at: at + 1),
    "endorsement-signature": _set("chain.attestation_endorsement.signature", _flip_hex),
    "bundle-id": _set("bundle_id", _flip_hex),
    "quote-by-test-key": _quote_by_test_key,
    "chain-endorses-test-key": _chain_endorses_test_key,
    "test-key-binds-other-outputs": _test_key_binds_other_outputs,
    "test-key-signs-other-measurement": _test_key_signs_other_measurement,
    "root-of-test-key": _root_of_test_key,
}

# (trust roots, now): the chain's root trusted inside its window, and each of the three ways out of it
ROOT = ROOT_KEY.public_key().public_bytes_raw()
WHEN = {
    "trusted": ([ROOT, TEST_PUBLIC], NOW),
    "untrusted": ([OTHER_ROOT], NOW),
    "expired": ([ROOT], T0 + DEFAULT_VALIDITY_SECONDS + 1),
    "not-yet-valid": ([ROOT], T0 - 1),
}


def _edited(data: bytes, edit, rehash: bool) -> bytes:
    obj = json.loads(data)
    edit(obj)
    if rehash:
        obj["bundle_id"] = sha256(canonical_json_bytes({k: v for k, v in obj.items() if k != "bundle_id"})).hex()
    return canonical_json_bytes(obj)


@pytest.mark.parametrize("when", sorted(WHEN))
@pytest.mark.parametrize("rehash", [True, False], ids=["rehashed", "stale-id"])
@pytest.mark.parametrize("name", sorted(EDITS))
def test_every_edit_gets_the_reference_verdict(name: str, rehash: bool, when: str) -> None:
    _assert_agrees(_edited(_bundle_bytes(), EDITS[name], rehash), *WHEN[when])


def test_the_reference_accepts_what_its_edits_should_leave_valid() -> None:
    roots, now = WHEN["trusted"]
    assert _assert_agrees(_bundle_bytes(), roots, now).accepted
    for name in ("chain-endorses-test-key", "test-key-binds-other-outputs"):  # the root signs for the test key
        assert _assert_agrees(_edited(_bundle_bytes(), EDITS[name], True), roots, now).accepted


@pytest.mark.parametrize("when", sorted(WHEN))
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_encoding_mutation_gets_the_reference_verdict(name: str, when: str) -> None:
    data, _ = MUTATIONS[name]
    roots = [OTHER_ROOT] if when == "untrusted" else [GOLDEN_ROOT]
    _assert_agrees(data, roots, WHEN[when][1] - T0)  # the golden chain is endorsed from 0, not from T0


_SPECIAL_IDS = ['","signature":"', '","signing_key_id":"', '\\"', "\\", '"', "\n\t\x00\x1f\x7f", "é€",
                "\U0001f600", '"},"quote":{"', ""]
_provider_ids = st.one_of(
    st.sampled_from(_SPECIAL_IDS),
    st.lists(st.sampled_from(_SPECIAL_IDS) | st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
             max_size=4).map("".join),
)


@settings(max_examples=150, deadline=None)
@given(
    provider_id=_provider_ids,
    edit=st.sampled_from([None, *sorted(EDITS)]),
    rehash=st.booleans(),
    flip=st.none() | st.tuples(st.floats(min_value=0, max_value=1, exclude_max=True), st.integers(0, 255)),
    when=st.sampled_from(sorted(WHEN)),
)
def test_hypothesis_edits_get_the_reference_verdict(provider_id: str, edit, rehash: bool, flip, when: str) -> None:
    data = _bundle_bytes(provider_id)
    if edit is not None:
        data = _edited(data, EDITS[edit], rehash)
    if flip is not None:
        where, value = flip
        mutated = bytearray(data)
        mutated[int(where * len(data))] = value
        data = bytes(mutated)
    _assert_agrees(data, *WHEN[when])


@settings(max_examples=100, deadline=None)
@given(_bundles)
def test_random_bundles_get_the_reference_verdict(bundle: ProofBundle) -> None:
    data = serialize_bundle(bundle)
    roots = [bundle.chain.root_statement.root_public_key]
    _assert_agrees(data, roots, bundle.chain.attestation_endorsement.not_before)

