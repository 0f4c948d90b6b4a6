"""The bundle's canonical template accepts exactly the canonical bytes, with the structure they encode.

``oracles.naive_bundle_read`` is the reference: strict UTF-8, ``json.loads``,
exact keys and types, then byte equality with ``json.dumps`` of the result.
``parse_bundle`` must accept exactly what it accepts, and read the same
values, types and signs included.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attestrep.bundle import BundleError, ProofBundle, parse_bundle, serialize_bundle
from oracles import naive_bundle_read
from test_bundle import golden_bundle_bytes
from test_bundle_schema import _golden_with as _with

GOLDEN = golden_bundle_bytes()
_QUOTE_ID = b'"provider_id":"SIM-VMTEE-1","report_data"'  # the quote's; the chain holds two more
_DIGITS = 4300  # ``int`` reads at most this many decimal digits (sys.get_int_max_str_digits)


def _parsed(data: bytes) -> ProofBundle | None:
    try:
        return parse_bundle(data)
    except BundleError:
        return None


def _assert_agrees(data: bytes) -> bool:
    """``parse_bundle`` and the oracle agree on ``data``; True when both accept it."""
    oracle, bundle = naive_bundle_read(data), _parsed(data)
    assert (bundle is None) == (oracle is None)
    if bundle is None:
        return False
    assert bundle.to_dict() == oracle
    assert serialize_bundle(bundle) == data  # the same types and signs, not only equal values
    return True


def _quote_id(text: bytes) -> bytes:
    return _with(_QUOTE_ID, b'"provider_id":"' + text + b'","report_data"')


def _wall(text: bytes) -> bytes:
    return _with(b'"wall_seconds":1.5', b'"wall_seconds":' + text)


def _count(text: bytes) -> bytes:
    return _with(b'"file_count":2,', b'"file_count":' + text + b",")


def _exit(text: bytes) -> bytes:
    return _with(b'"exit_status":0,', b'"exit_status":' + text + b",")


# name -> (bytes, whether they are canonical)
MUTATIONS = {
    "golden": (GOLDEN, True),
    # whitespace, key order, duplicate keys
    "space-after-brace": (_with(b'{"bundle_id"', b'{ "bundle_id"'), False),
    "space-after-colon": (_with(b'"format_version":1', b'"format_version": 1'), False),
    "space-after-comma": (_with(b',"format_version"', b', "format_version"'), False),
    "newline-inside": (_with(b',"format_version"', b',\n"format_version"'), False),
    "reordered-keys": (_with(b'"file_count":2,"total_bytes":10', b'"total_bytes":10,"file_count":2'), False),
    "duplicated-key": (_with(b'"format_version":1,', b'"format_version":1,"format_version":1,'), False),
    # string escapes
    "escaped-letter": (_quote_id(b"SIM-VMTEE-\\u0041"), False),
    "escaped-slash": (_quote_id(b"SIM\\/VMTEE-1"), False),
    "uppercase-u-escape": (_quote_id(b"SIM\\u001F"), False),
    "lowercase-u-escape": (_quote_id(b"SIM\\u001f"), True),
    "short-escapes": (_quote_id(b'\\"\\\\\\b\\f\\n\\r\\t'), True),
    "u-escape-for-newline": (_quote_id(b"SIM\\u000a"), False),
    "raw-control": (_quote_id(b"SIM\x01"), False),
    "raw-del": (_quote_id(b"SIM\x7f"), True),
    "escaped-del": (_quote_id(b"SIM\\u007f"), False),
    "raw-non-ascii": (_quote_id("SIM-é€".encode()), True),
    "escaped-non-ascii": (_quote_id(b"SIM-\\u00e9"), False),
    "raw-astral": (_quote_id("SIM-\U0001f600".encode()), True),
    "escaped-astral": (_quote_id(b"SIM-\\ud83d\\ude00"), False),
    "lone-surrogate": (_quote_id(b"\\ud800"), False),
    "invalid-utf8": (_quote_id(b"SIM\xff"), False),
    "overlong-utf8": (_quote_id(b"SIM\xc0\xaf"), False),
    "encoded-surrogate": (_quote_id(b"SIM\xed\xa0\x80"), False),
    "uppercase-hex": (_with(GOLDEN[14:78], GOLDEN[14:78].upper()), False),
    # numbers
    "minus-zero-int": (_exit(b"-0"), False),
    "negative-int": (_exit(b"-1"), True),
    "plus-int": (_exit(b"+1"), False),
    "negative-leading-zero": (_exit(b"-01"), False),
    "float-for-int": (_count(b"2.0"), False),
    "exponent-for-int": (_count(b"2e0"), False),
    "leading-zero": (_count(b"02"), False),
    "negative-count": (_count(b"-2"), False),
    "4300-digit-int": (_count(b"9" * _DIGITS), True),
    "4301-digit-int": (_count(b"9" * (_DIGITS + 1)), False),
    "minus-zero-in-float-field": (_wall(b"-0"), False),
    "minus-zero-float": (_wall(b"-0.0"), True),
    "integral-float": (_wall(b"1.0"), True),
    "int-in-float-field": (_wall(b"2"), True),
    "big-int-in-float-field": (_wall(b"9" * _DIGITS), True),
    "uppercase-exponent": (_wall(b"1E5"), False),
    "exponent-without-sign": (_wall(b"1e16"), False),
    "exponent-with-sign": (_wall(b"1e+16"), True),
    "exponent-repr": (_wall(b"1.5e+16"), True),
    "long-form-of-exponent": (_wall(b"100000.0"), True),
    "short-form-of-long": (_wall(b"1e5"), False),
    "small-exponent": (_wall(b"1e-05"), True),
    "small-without-exponent": (_wall(b"0.00001"), False),
    "trailing-zero": (_wall(b"1.50"), False),
    "leading-zero-float": (_wall(b"01.5"), False),
    "bare-fraction": (_wall(b".5"), False),
    "negative-float": (_wall(b"-1.5"), False),
    "overflow": (_wall(b"1e400"), False),
    "nan": (_wall(b"NaN"), False),
    "not-shortest": (_wall(b"0.30000000000000004"), True),
    "not-round-trip": (_wall(b"0.3000000000000000444"), False),
    # the whole input
    "bom": (b"\xef\xbb\xbf" + GOLDEN, False),
    "leading-space": (b" " + GOLDEN, False),
    "trailing-newline": (GOLDEN + b"\n", False),
    "trailing-nul": (GOLDEN + b"\x00", False),
    "second-object": (GOLDEN + b"{}", False),
    "empty": (b"", False),
    "format-version-2": (_with(b'"format_version":1', b'"format_version":2'), False),
    "format-version-1.0": (_with(b'"format_version":1', b'"format_version":1.0'), False),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_template_accepts_exactly_the_canonical_bytes(name: str) -> None:
    data, canonical = MUTATIONS[name]
    assert (naive_bundle_read(data) is not None) == canonical
    assert _assert_agrees(data) == canonical


def test_a_long_string_is_matched_in_memory_proportional_to_it() -> None:
    data = _quote_id(b"x" * 1_000_000)
    tracemalloc.start()
    try:
        bundle = parse_bundle(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.quote.provider_id == "x" * 1_000_000
    assert peak < 8 * len(data)  # a pattern with one alternation per character keeps ~150 bytes per character


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(GOLDEN)), st.integers(min_value=0, max_value=3), st.binary(max_size=3))
def test_any_small_edit_is_judged_as_the_oracle_judges_it(at: int, cut: int, insert: bytes) -> None:
    _assert_agrees(GOLDEN[:at] + insert + GOLDEN[at + cut:])


_CONTROLS = "".join(map(chr, range(0x20)))
_HOSTILE_CHARS = list(_CONTROLS + '"\\/\x7f\xe9\u20ac\u2028\ufeff\U0001f600\U0010ffff')
_text = st.text(st.sampled_from(_HOSTILE_CHARS) | st.characters(exclude_categories=("Cs",)), max_size=30)
_huge = st.integers(min_value=0, max_value=10**_DIGITS - 1)
_wall_seconds = (st.sampled_from([1e-05, 1.5e16, -0.0, 0.0, 0, 7, 10**30, 0.1, 5e-324, 1.7976931348623157e308])
                 | st.floats(min_value=0, allow_nan=False, allow_infinity=False) | _huge)
GOLDEN_BUNDLE = parse_bundle(GOLDEN)


@settings(max_examples=300, deadline=None)
@given(quote_id=_text, root_id=_text, count=_huge, exit_status=st.integers(-10**_DIGITS + 1, 10**_DIGITS - 1),
       wall_seconds=_wall_seconds)
@example(quote_id=_CONTROLS, root_id='"\\/\x7f', count=10**_DIGITS - 1, exit_status=-(10**_DIGITS) + 1,
         wall_seconds=-0.0)
def test_template_reads_back_what_the_encoder_writes(quote_id: str, root_id: str, count: int, exit_status: int,
                                                      wall_seconds: float) -> None:
    golden = GOLDEN_BUNDLE
    chain = golden.chain
    bundle = golden.replace(
        package_digest=golden.package_digest.replace(file_count=count),
        execution=golden.execution.replace(exit_status=exit_status, wall_seconds=wall_seconds),
        quote=golden.quote.replace(provider_id=quote_id),
        chain=chain.replace(root_statement=chain.root_statement.replace(provider_id=root_id)),
    )
    data = serialize_bundle(bundle)
    parsed = parse_bundle(data)
    assert parsed == bundle and hash(parsed) == hash(bundle)
    assert _assert_agrees(data)  # and re-encodes to ``data``: -0.0 keeps its sign, an int stays an int
