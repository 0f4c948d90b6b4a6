"""The bundle parser's rules, leaf by leaf, and a round trip over generated bundles.

Every edit below is re-serialized canonically, so each rejection comes from
the field rules themselves, not from the canonical byte-equality check.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep.attestation import (
    AttestationEndorsement,
    AttestationProvider,
    AttestationQuote,
    EndorsementChain,
    ProviderConfig,
    RootStatement,
)
from attestrep.bundle import (
    BundleParseError,
    ExecutionSummary,
    ProofBundle,
    VersionUnsupported,
    build_bundle,
    canonical_bundle_id,
    parse_bundle,
    serialize_bundle,
)
from attestrep.canonical import SchemaError, canonical_json_bytes, sha256
from attestrep.package_model import PackageDigest
from attestrep.verifier import NONZERO_EXIT, PARSE_ERROR, verify_bundle
from conftest import NOW, PROVIDER_SEED, T0
from test_bundle import golden_bundle_bytes, golden_record

# integer leaves that may be negative; every other integer leaf has minimum 0
_SIGNED_INTS = {"exit_status", "version"}
_TEXT_LEAVES = {"provider_id"}
_TAG_LEAVES = {"statement"}


def _provider() -> AttestationProvider:
    return AttestationProvider(ProviderConfig(root_secret_seed=PROVIDER_SEED), now=T0)


def _valid_obj() -> dict:
    return json.loads(serialize_bundle(build_bundle(golden_record(), _provider(), now=NOW)))


def _leaves(obj: dict, path: tuple = ()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _nodes(obj: dict, path: tuple = ()):
    yield path, obj
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _nodes(value, path + (key,))


def _edited(path: tuple, edit) -> bytes:
    obj = _valid_obj()
    node = obj
    for key in path[:-1]:
        node = node[key]
    edit(node, path[-1])
    return canonical_json_bytes(obj)


def _set(value):
    def edit(node: dict, key: str) -> None:
        node[key] = value

    return edit


def _wrong_forms(key: str, value) -> list:
    if key in _TAG_LEAVES:
        return [value + "x", value.replace("v1", "v2"), "", 1, None]
    if key in _TEXT_LEAVES:
        return [1, 1.5, True, None, ["x"], {"x": 1}]
    if isinstance(value, str):  # fixed-length lowercase hex
        size = len(value) // 2
        return ["AB" * size, value[:-2], value[:-1], value + "00", "zz" * size, " " + value[1:], 1, None, True]
    if isinstance(value, float):
        return [True, "1.5", -1.5, -1, None, [1.5]]
    forms = [True, False, 1.5, float(value), str(value), None, [value]]
    if key not in _SIGNED_INTS:
        forms.append(-1)
    return forms


def _case_id(path: tuple, form) -> str:
    return f"{'.'.join(path)}={form!r}"


def test_leaf_kinds_cover_the_bundle() -> None:
    kinds = {type(value) for _path, value in _leaves(_valid_obj())}
    assert kinds == {int, float, str}
    assert len(list(_leaves(_valid_obj()))) == 32


def test_every_wrong_leaf_form_is_a_parse_error() -> None:
    escaped = []
    for path, value in _leaves(_valid_obj()):
        if path == ("format_version",):
            continue
        for form in _wrong_forms(path[-1], value):
            try:
                parse_bundle(_edited(path, _set(form)))
            except BundleParseError:
                continue
            except Exception as exc:  # noqa: BLE001 - reported below
                escaped.append(f"{_case_id(path, form)} raised {type(exc).__name__}")
            else:
                escaped.append(f"{_case_id(path, form)} parsed")
    assert escaped == []


def test_wrong_format_version_is_refused() -> None:
    for form in (True, 1.0):  # equal to 1, so only the field rule catches them
        with pytest.raises(BundleParseError):
            parse_bundle(_edited(("format_version",), _set(form)))
    for form in ("1", 0, 2, -1, None):
        with pytest.raises(VersionUnsupported):
            parse_bundle(_edited(("format_version",), _set(form)))


@pytest.mark.parametrize("tag", ["vendor-root-v1", "attestation-key-endorsement-v1"])
def test_statement_tags_are_not_interchangeable(tag: str) -> None:
    for where in ("root_statement", "attestation_endorsement"):
        path = ("chain", where, "statement")
        obj = _valid_obj()
        if obj["chain"][where]["statement"] == tag:
            continue
        with pytest.raises(BundleParseError):
            parse_bundle(_edited(path, _set(tag)))


def test_extra_or_missing_key_at_every_level_is_a_parse_error() -> None:
    escaped = []
    for path, node in _nodes(_valid_obj()):
        edits = [("+extra", lambda n, _k: n.__setitem__("extra", 1))]
        edits += [(f"-{key}", lambda n, _k, key=key: n.pop(key)) for key in node]
        for name, edit in edits:
            if path == () and name == "-format_version":
                continue  # a missing version is VersionUnsupported, below
            target = path + ("",)  # edit the node itself
            try:
                parse_bundle(_edited(target, edit))
            except BundleParseError:
                continue
            except Exception as exc:  # noqa: BLE001
                escaped.append(f"{'.'.join(path) or 'bundle'} {name} raised {type(exc).__name__}")
            else:
                escaped.append(f"{'.'.join(path) or 'bundle'} {name} parsed")
    assert escaped == []
    with pytest.raises(VersionUnsupported):
        parse_bundle(_edited(("format_version",), lambda n, k: n.pop(k)))


def test_a_structure_that_is_not_an_object_is_a_parse_error() -> None:
    for path, _node in _nodes(_valid_obj()):
        if not path:
            continue
        for form in ([], "x", 1, None):
            with pytest.raises(BundleParseError):
                parse_bundle(_edited(path, _set(form)))


def test_negative_exit_status_parses_and_is_rejected_as_nonzero_exit() -> None:
    obj = _valid_obj()
    obj["execution"]["exit_status"] = -1
    body = {key: value for key, value in obj.items() if key != "bundle_id"}
    obj["bundle_id"] = sha256(canonical_json_bytes(body)).hex()
    data = canonical_json_bytes(obj)
    assert parse_bundle(data).execution.exit_status == -1
    verdict = verify_bundle(data, [_provider().root_public_key], now=NOW)
    assert verdict.reason == NONZERO_EXIT


def test_valid_bundle_accepts_and_parses_back() -> None:
    data = canonical_json_bytes(_valid_obj())
    assert verify_bundle(data, [_provider().root_public_key], now=NOW).accepted
    assert serialize_bundle(parse_bundle(data)) == data


def _golden_with(old: bytes, new: bytes) -> bytes:
    data = golden_bundle_bytes()
    assert data.count(old) == 1
    return data.replace(old, new)


# each escaped verify_bundle as an exception before the parser refused it
HOSTILE = {
    **{
        f"wall-seconds-{text}": _golden_with(b'"wall_seconds":1.5', b'"wall_seconds":' + text.encode())
        for text in ("1e400", "-1e400", "NaN", "Infinity")
    },
    "lone-surrogate": _golden_with(b'"provider_id":"SIM-VMTEE-1","root', b'"provider_id":"\\ud800","root'),
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "deep-object": b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
    "5000-digit-int": b'{"format_version":' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_is_a_parse_error(name: str) -> None:
    with pytest.raises(BundleParseError):
        parse_bundle(HOSTILE[name])
    assert verify_bundle(HOSTILE[name], [_provider().root_public_key], now=NOW).reason == PARSE_ERROR


_hex32 = st.binary(min_size=32, max_size=32)
_hex64 = st.binary(min_size=64, max_size=64)
_count = st.integers(min_value=0, max_value=2**64)
_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)
_digests = st.builds(PackageDigest, value=_hex32, file_count=_count, total_bytes=_count)
_bundles = st.builds(
    ProofBundle,
    format_version=st.just(1),
    package_digest=_digests,
    output_digest=_digests,
    execution=st.builds(
        ExecutionSummary,
        exit_status=st.integers(min_value=-(2**31), max_value=2**31),
        wall_seconds=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        started_at=_count,
        finished_at=_count,
        stdout_log_digest=_hex32,
        stderr_log_digest=_hex32,
        nonce=_hex32,
    ),
    quote=st.builds(
        AttestationQuote,
        version=st.integers(min_value=-5, max_value=5),
        provider_id=_text,
        measurement=_hex32,
        report_data=_hex64,
        issued_at=_count,
        signature=_hex64,
        signing_key_id=_hex32,
    ),
    chain=st.builds(
        EndorsementChain,
        root_statement=st.builds(RootStatement, provider_id=_text, root_public_key=_hex32, signature=_hex64),
        attestation_endorsement=st.builds(
            AttestationEndorsement,
            provider_id=_text,
            attestation_public_key=_hex32,
            not_before=_count,
            not_after=_count,
            signature=_hex64,
        ),
    ),
    bundle_id=_hex32,
)


@settings(max_examples=200, deadline=None)
@given(_bundles)
def test_parse_inverts_serialize(bundle: ProofBundle) -> None:
    data = serialize_bundle(bundle)
    assert parse_bundle(data) == bundle
    assert serialize_bundle(parse_bundle(data)) == data


@settings(max_examples=200, deadline=None)
@given(_bundles)
def test_bundle_id_read_off_the_bytes_is_the_computed_one(bundle: ProofBundle) -> None:
    assert canonical_bundle_id(serialize_bundle(bundle)) == bundle.computed_bundle_id()


def _pop(node: dict, key: str) -> None:
    del node[key]


_QUOTE_KEYS = "['issued_at', 'measurement', 'provider_id', 'report_data', 'signature', 'signing_key_id', 'version']"
_EXECUTION_KEYS = ("['exit_status', 'finished_at', 'nonce', 'started_at', 'stderr_log_digest', "
                   "'stdout_log_digest', 'wall_seconds']")
_ENDORSEMENT_KEYS = "['attestation_public_key', 'not_after', 'not_before', 'provider_id', 'signature', 'statement']"
_BUNDLE_KEYS = "['bundle_id', 'chain', 'execution', 'format_version', 'output_digest', 'package_digest', 'quote']"


# (field edited, edit, the Reject detail after "bundle parse error at byte 0: ")
PARSE_ERROR_DETAILS = {
    "quote.signature": (("quote", "signature"), _set("AB" * 64), "quote.signature: expected 64 bytes as lowercase hex"),
    "chain.root_statement.signature": (
        ("chain", "root_statement", "signature"), _set("00" * 63),
        "chain.root_statement.signature: expected 64 bytes as lowercase hex",
    ),
    "chain.attestation_endorsement.not_after": (
        ("chain", "attestation_endorsement", "not_after"), _set(-1),
        "chain.attestation_endorsement.not_after: expected an integer >= 0",
    ),
    "chain.root_statement.statement": (
        ("chain", "root_statement", "statement"), _set("x"),
        "chain.root_statement.statement: expected 'vendor-root-v1'",
    ),
    "execution.wall_seconds": (("execution", "wall_seconds"), _set("1.5"),
                               "execution.wall_seconds: expected a finite number >= 0"),
    "quote.provider_id": (("quote", "provider_id"), _set(1), "quote.provider_id: expected a string of Unicode text"),
    "package_digest.value": (("package_digest", "value"), _set(None),
                             "package_digest.value: expected 32 bytes as lowercase hex"),
    "execution-missing-nonce": (("execution", "nonce"), _pop, f"execution: expected exactly keys {_EXECUTION_KEYS}"),
    "endorsement-missing-signature": (
        ("chain", "attestation_endorsement", "signature"), _pop,
        f"chain.attestation_endorsement: expected exactly keys {_ENDORSEMENT_KEYS}",
    ),
    "quote-not-an-object": (("quote",), _set([]), f"quote: expected exactly keys {_QUOTE_KEYS}"),
    "bundle-extra-key": (("extra",), _set(1), f"ProofBundle: expected exactly keys {_BUNDLE_KEYS}"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERROR_DETAILS))
def test_parse_error_detail_names_the_field_at_fault(case: str) -> None:
    path, edit, detail = PARSE_ERROR_DETAILS[case]
    verdict = verify_bundle(_edited(path, edit), [_provider().root_public_key], now=NOW)
    assert (verdict.reason, verdict.detail) == (PARSE_ERROR, f"bundle parse error at byte 0: {detail}")


@pytest.mark.parametrize(
    ("decode", "message"),
    [
        (lambda: RootStatement.from_dict({"statement": "x", "provider_id": "p", "root_public_key": "00" * 32,
                                          "signature": "00" * 64}), "statement: expected 'vendor-root-v1'"),
        (lambda: RootStatement.from_dict({}),
         "RootStatement: expected exactly keys ['provider_id', 'root_public_key', 'signature', 'statement']"),
        (lambda: PackageDigest.from_dict({"value": "zz", "file_count": 1, "total_bytes": 1}, "package_digest"),
         "package_digest.value: expected 32 bytes as lowercase hex"),
        (lambda: PackageDigest.from_dict([], "package_digest"),
         "package_digest: expected exactly keys ['file_count', 'total_bytes', 'value']"),
    ],
    ids=["tag-at-top", "keys-at-top", "field-under-where", "keys-under-where"],
)
def test_schema_error_names_the_field_outside_a_bundle(decode, message: str) -> None:
    with pytest.raises(SchemaError) as caught:
        decode()
    assert str(caught.value) == message
