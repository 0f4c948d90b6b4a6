"""Canonical JSON, and the one field table per wire structure that maps to it.

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
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import sys
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
