"""``canonical_json_bytes`` is ``json.dumps`` with the canonical arguments, encoded as UTF-8."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep.canonical import canonical_json_bytes

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()  # non-ASCII included
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(_values)
def test_encoding_is_the_canonical_dumps(obj) -> None:
    assert canonical_json_bytes(obj) == _dumps(obj)


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1, x], lambda x: {"a": {"b": x}}], ids=["bare", "list", "nested"])
def test_non_finite_numbers_have_no_encoding(number: float, wrap) -> None:
    with pytest.raises(ValueError):
        canonical_json_bytes(wrap(number))
