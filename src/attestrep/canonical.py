r"""Canonical JSON, and the one field table per wire structure that maps to it.

One encoding rule for everything that gets hashed or signed: UTF-8 JSON,
object keys sorted ascending by byte order, no insignificant whitespace,
integers in decimal, binary fields as lowercase hex strings. Anything that
recomputes a hash must go through this module, whose one module-level
encoder writes every canonical byte string.

A wire structure is a class deriving from ``Wire``. Its field table is its
annotated class attributes, after those of a ``Wire`` base, typed ``int``,
``float``, ``str``, ``bytes``, ``dict`` (any JSON object, taken as is) or
another ``Wire``, with the rules given by ``wire(...)`` (hex byte length,
integer minimum, whether the signature covers the field) and the constant
``TAGS`` of the class. The table is compiled when the class is defined into
a frozen record (constructor, equality, hash, ``repr``, ``replace``) and the
one encode/decode pair every structure uses, ``to_dict`` and ``from_dict``.
A field that fails to decode is named by its dotted path, which is put
together only as the ``SchemaError`` passes up; a field that decodes builds
no location text.

The same table gives a structure its canonical template (``Template``): one
regular expression that matches exactly the bytes the encoder writes for
some valid value of the structure, each key a literal in sorted order and
each field the one token form its kind has in canonical text:

- bytes: ``"`` then lowercase hex of the stated length, then ``"``;
- int: ``0|-?[1-9][0-9]*``, with no sign where the minimum is 0;
- float: the int form, or the ``float.__repr__`` of a finite float
  (``1.5``, ``1e-05``, ``1.5e+16``, ``-0.0``), checked after the match;
- str: any character but ``"``, ``\`` and U+0000-U+001F, or one of the
  escapes ``\"`` ``\\`` ``\b`` ``\f`` ``\n`` ``\r`` ``\t``, or ``\u00XX``
  in lowercase hex for any other control character; nothing else is escaped.

Text the template matches is read straight into records from its groups,
with no JSON decoding and no re-encoding. A structure with a ``dict`` field
has no template.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import re
import sys
from json.decoder import scanstring
from operator import itemgetter
from typing import Any, ClassVar


# One encoder for every call: ``json.dumps`` with any non-default argument builds a
# new ``JSONEncoder`` each time. ``encode`` keeps no state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def canonical_json_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical JSON bytes.

    Keys in our schemas are ASCII, for which code-point order (what
    ``sort_keys`` uses) coincides with UTF-8 byte order. NaN/Infinity are
    rejected: they have no JSON form and would break round-trips.
    """
    return _ENCODER.encode(obj).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class SchemaError(ValueError):
    """A decoded value breaks the field table of its structure.

    ``path`` holds the field names from the outermost structure down to the
    value at fault, each added by ``from_dict`` as the error passes up, so a
    location is only ever spelled out for a value that failed.
    """

    def __init__(self, problem: str, owner: str = "") -> None:
        super().__init__(problem)
        self.problem = problem
        self.owner = owner  # the structure's name, shown when the fault is its own key set at the top
        self.path: list[str] = []

    def __str__(self) -> str:
        return f"{'.'.join(self.path) or self.owner}: {self.problem}"


def wire(*, hex_size: int | None = None, minimum: int | None = None, signed: bool = True) -> Any:
    """The wire rules of the field it is assigned to; ``signed=False`` leaves it out of the signed body."""
    return hex_size, minimum, signed


def _decoder(kind: type, hex_size: int | None, minimum: int | None):
    if issubclass(kind, Wire):
        return kind.from_dict
    if kind is bytes:
        def decode(value: Any) -> bytes:
            try:
                raw = bytes.fromhex(value)
            except (TypeError, ValueError):
                raw = None
            if raw is None or len(raw) != hex_size or raw.hex() != value:
                raise SchemaError(f"expected {hex_size} bytes as lowercase hex")
            return raw
    elif kind is str:
        def decode(value: Any) -> str:
            if type(value) is str:
                try:
                    value.encode("utf-8")  # a lone surrogate from a \u escape has no UTF-8 form
                    return value
                except UnicodeEncodeError:
                    pass
            raise SchemaError("expected a string of Unicode text")
    elif kind is dict:
        def decode(value: Any) -> dict:
            if type(value) is not dict:
                raise SchemaError("expected a JSON object")
            return value
    else:
        types = (int,) if kind is int else (int, float)
        bound = "" if minimum is None else f" >= {minimum}"
        problem = f"expected {'an integer' if kind is int else 'a finite number'}{bound}"

        def decode(value: Any) -> int | float:
            if (type(value) not in types or (type(value) is float and not math.isfinite(value))
                    or (minimum is not None and value < minimum)):
                raise SchemaError(problem)
            return value
    return decode


class Wire:
    """Base of the wire structures: a frozen record, its dict form, its signed part and its strict parser."""

    TAGS: ClassVar[dict[str, str]] = {}
    FIELDS: ClassVar[tuple[str, ...]] = ()  # field names, in constructor order
    _rows: ClassVar[tuple] = ()  # (name, kind, hex_size, minimum, signed) per field, inherited ones first

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        scope = {**vars(builtins), **vars(sys.modules[cls.__module__])}  # annotations are names, not evaluated
        for name, annotation in vars(cls).get("__annotations__", {}).items():
            cls._rows += ((name, scope[annotation], *vars(cls).get(name, (None, None, True))),)
            if name in vars(cls):
                delattr(cls, name)  # the rules of ``wire(...)``; the value lives on the instance
        cls.FIELDS = tuple(row[0] for row in cls._rows)
        cls._keys = frozenset(cls.TAGS).union(cls.FIELDS)
        cls._encoders = tuple((name, bytes.hex if kind is bytes else kind.to_dict if issubclass(kind, Wire) else None)
                              for name, kind, *_ in cls._rows)
        cls._signed = tuple(encoder for encoder, row in zip(cls._encoders, cls._rows) if row[4])
        cls._decoders = tuple((row[0], _decoder(*row[1:4])) for row in cls._rows)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        values = dict(zip(self.FIELDS, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes each of {self.FIELDS} once")
        self.__dict__.update((name, values[name]) for name in self.FIELDS)  # in field order: equal ones hash alike

    def _frozen(self, *args: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in self.__dict__.items())})"

    def replace(self, **changes: Any):
        """A copy with ``changes`` applied, built (and checked) like a new structure."""
        return type(self)(**{**self.__dict__, **changes})

    def to_dict(self, signed_only: bool = False) -> dict:
        """The JSON object of this structure; ``signed_only`` drops the unsigned fields."""
        out = dict(self.TAGS)
        for name, encode in self._signed if signed_only else self._encoders:
            value = self.__dict__[name]
            out[name] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_dict(cls, obj: Any, where: str = ""):
        """Inverse of ``to_dict``: exact keys, constant tags, every field by its rule.

        A ``SchemaError`` names the value at fault by its dotted path under ``where``.
        """
        name = None
        try:
            if type(obj) is not dict or obj.keys() != cls._keys:
                raise SchemaError(f"expected exactly keys {sorted(cls._keys)}", cls.__name__)
            for name, value in cls.TAGS.items():
                if obj[name] != value:
                    raise SchemaError(f"expected {value!r}")
            # the decoders checked every value, so the instance is filled without a second pass
            out = object.__new__(cls)
            fields = out.__dict__
            for name, decode in cls._decoders:
                fields[name] = decode(obj[name])
            return out
        except SchemaError as exc:
            exc.path[:0] = [step for step in (where, name) if step]
            raise


# The token forms of the module docstring, each as one group. ``_STR`` is unrolled
# (plain runs between escapes): one alternation per character keeps match state per
# character, about 540 MiB for a 4 MB string. ``_NUMBER`` also takes forms that
# ``float.__repr__`` never writes (``01.5``); ``_read_number`` refuses them.
_STR = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\bfnrt]|u00(?:0[0-7bef]|1[0-9a-f]))[^"\\\x00-\x1f]*)*)"'
_INT = r"(0|-?[1-9][0-9]*)"
_NATURAL = r"(0|[1-9][0-9]*)"
_NUMBER = r"(0|-?[1-9][0-9]*|-?[0-9]+(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+))"


def _read_str(text: str) -> str:
    return text if "\\" not in text else scanstring(text + '"', 0)[0]


def _read_number(text: str) -> int | float:
    if "." not in text and "e" not in text:
        return int(text)
    value = float(text)
    if float.__repr__(value) != text:  # also refuses what overflows to inf
        raise ValueError(f"{text} is not the canonical form of a float")
    return value


def _token(kind: type, hex_size: int | None, minimum: int | None):
    """The pattern of a field's canonical token and the reader of its group, which raises ``ValueError``."""
    if kind is bytes:
        return f'"([0-9a-f]{{{2 * hex_size}}})"', bytes.fromhex
    if kind is str:
        return _STR, _read_str
    if kind not in (int, float):
        raise TypeError(f"a {kind.__name__} field has no canonical template")
    if kind is int and minimum == 0:
        return _NATURAL, int  # the pattern keeps the bound: no sign
    pattern, read = (_INT, int) if kind is int else (_NUMBER, _read_number)
    if minimum is None:
        return pattern, read

    def read_at_least(text: str) -> int | float:
        value = read(text)
        if value < minimum:
            raise ValueError(f"{value} < {minimum}")
        return value
    return pattern, read_at_least


def _picker(slots: list[int]):
    """``values -> (values[slot] for slot in slots)`` as a tuple; ``itemgetter`` returns a bare item for one slot."""
    return itemgetter(*slots) if len(slots) > 1 else lambda values: (values[slots[0]],)


class Template:
    """The canonical encoding of one ``Wire`` structure as one regular expression.

    Built from the field table: each key a literal in sorted order, each tag
    and each ``fixed`` top-level field its constant, each other field the one
    token form the encoder writes for its kind, a nested structure its own
    template. A structure with a ``dict`` field has none. ``read`` fills the
    records straight from the groups, so text the template matches is never
    decoded as JSON or encoded again.
    """

    def __init__(self, cls: type[Wire], **fixed: Any) -> None:
        self._readers: list = []  # one per group, in text order
        steps: list = []  # (structure, its fields' slots in constructor order), innermost first
        self._match = re.compile(self._pattern(cls, fixed, steps)).fullmatch
        groups = len(self._readers)  # the values list holds every group's value, then each structure built
        self._steps = tuple((kind, kind.FIELDS, _picker([slot if slot >= 0 else groups + ~slot for slot in slots]))
                            for kind, slots in steps)

    def _pattern(self, cls: type[Wire], fixed: dict, steps: list) -> str:
        rows = {row[0]: row for row in cls._rows}
        slots, parts = {}, []
        for key in sorted(cls._keys):
            if key in cls.TAGS:
                token = re.escape(_ENCODER.encode(cls.TAGS[key]))
            elif issubclass(rows[key][1], Wire):
                token = self._pattern(rows[key][1], {}, steps)
                slots[key] = ~(len(steps) - 1)  # ~k: the k-th structure built, placed after the groups
            else:
                token, read = _token(*rows[key][1:4])
                if key in fixed:
                    token = f"({re.escape(_ENCODER.encode(fixed[key]))})"
                slots[key] = len(self._readers)
                self._readers.append(read)
            parts.append(re.escape(_ENCODER.encode(key)) + ":" + token)
        steps.append((cls, [slots[name] for name in cls.FIELDS]))
        return r"\{" + ",".join(parts) + r"\}"

    def read(self, text: str):
        """The structure whose canonical encoding is exactly ``text``, or None."""
        match = self._match(text)
        if match is None:
            return None
        try:
            values = [read(group) for read, group in zip(self._readers, match.groups())]
        except ValueError:  # a token of the right form but no canonical value, or an integer over the digit limit
            return None
        for cls, names, pick in self._steps:
            out = object.__new__(cls)  # filled in constructor order, so equal records hash alike
            out.__dict__.update(zip(names, pick(values)))
            values.append(out)
        return values[-1]

