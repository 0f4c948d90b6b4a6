"""Canonical JSON, and the one field table per wire structure that maps to it.

One encoding rule for everything that gets hashed or signed: UTF-8 JSON,
object keys sorted ascending by byte order, no insignificant whitespace,
integers in decimal, binary fields as lowercase hex strings. Anything that
recomputes a hash must go through this module.

A wire structure is a frozen dataclass deriving from ``Wire``. Its field
table is its dataclass fields, typed ``int``, ``float``, ``str``, ``bytes``
or another ``Wire``, with the rules given by ``wire(...)`` (hex byte length,
integer minimum, whether the signature covers the field) and the constant
``TAGS`` of the class. ``Wire.to_dict`` and ``Wire.from_dict`` are the one
encode/decode pair every structure uses; the table is compiled once per
class.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import field, fields
from typing import Any, ClassVar, get_type_hints


def canonical_json_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical JSON bytes.

    Keys in our schemas are ASCII, for which code-point order (what
    ``sort_keys`` uses) coincides with UTF-8 byte order. NaN/Infinity are
    rejected: they have no JSON form and would break round-trips.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class SchemaError(ValueError):
    """A decoded value breaks the field table of its structure."""


def wire(*, hex_size: int | None = None, minimum: int | None = None, signed: bool = True) -> Any:
    """A dataclass field with its wire rules; ``signed=False`` leaves it out of the signed body."""
    return field(metadata={"hex_size": hex_size, "minimum": minimum, "signed": signed})


def _decoder(kind: type, hex_size: int | None, minimum: int | None):
    if issubclass(kind, Wire):
        return kind.from_dict
    if kind is bytes:
        def decode(value: Any, where: str) -> bytes:
            try:
                raw = bytes.fromhex(value)
            except (TypeError, ValueError):
                raw = None
            if raw is None or len(raw) != hex_size or raw.hex() != value:
                raise SchemaError(f"{where}: expected {hex_size} bytes as lowercase hex")
            return raw
    elif kind is str:
        def decode(value: Any, where: str) -> str:
            if type(value) is str:
                try:
                    value.encode("utf-8")  # a lone surrogate from a \u escape has no UTF-8 form
                    return value
                except UnicodeEncodeError:
                    pass
            raise SchemaError(f"{where}: expected a string of Unicode text")
    else:
        types = (int,) if kind is int else (int, float)
        bound = "" if minimum is None else f" >= {minimum}"

        def decode(value: Any, where: str) -> int | float:
            if (type(value) not in types or (type(value) is float and not math.isfinite(value))
                    or (minimum is not None and value < minimum)):
                raise SchemaError(f"{where}: expected {'an integer' if kind is int else 'a finite number'}{bound}")
            return value
    return decode


@functools.cache
def _table(cls: type) -> tuple[frozenset, tuple, tuple, tuple]:
    """Key set, all ``(name, encode)`` rows, the signed ones, and ``(name, decode)`` rows of ``cls``."""
    hints = get_type_hints(cls)
    encoders, signed, decoders = [], [], []
    for f in fields(cls):
        kind, meta = hints[f.name], f.metadata
        row = (f.name, bytes.hex if kind is bytes else (kind.to_dict if issubclass(kind, Wire) else None))
        encoders.append(row)
        if meta.get("signed", True):
            signed.append(row)
        decoders.append((f.name, _decoder(kind, meta.get("hex_size"), meta.get("minimum"))))
    return frozenset(cls.TAGS).union(f.name for f in fields(cls)), tuple(encoders), tuple(signed), tuple(decoders)


class Wire:
    """Base of the wire structures: the dict form, its signed part and its strict parser."""

    TAGS: ClassVar[dict[str, str]] = {}

    def to_dict(self, signed_only: bool = False) -> dict:
        """The JSON object of this structure; ``signed_only`` drops the unsigned fields."""
        _keys, every, signed, _decoders = _table(type(self))
        out = dict(self.TAGS)
        for name, encode in signed if signed_only else every:
            value = getattr(self, name)
            out[name] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_dict(cls, obj: Any, where: str = ""):
        """Inverse of ``to_dict``: exact keys, constant tags, every field by its rule."""
        keys, _encoders, _signed, decoders = _table(cls)
        if type(obj) is not dict or obj.keys() != keys:
            raise SchemaError(f"{where or cls.__name__}: expected exactly keys {sorted(keys)}")
        prefix = f"{where}." if where else ""
        for tag, value in cls.TAGS.items():
            if obj[tag] != value:
                raise SchemaError(f"{prefix}{tag}: expected {value!r}")
        return cls(*[decode(obj[name], prefix + name) for name, decode in decoders])
