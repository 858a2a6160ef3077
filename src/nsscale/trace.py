"""Canonical event-trace records and serialization helpers."""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# `JSONEncoder.encode` builds its C core afresh on every call; build it
# once. It keeps no circular-reference markers: a value that refers to
# itself recurses until RecursionError, in `_is_canonical`, `_normalize`
# or, for `payload_text`, the encoder.
if c_make_encoder is None:  # no C accelerator
    _encode = _ENCODER.encode
else:
    _iterencode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)

    def _encode(obj) -> str:
        return "".join(_iterencode(obj, 0))


def canonical_json(obj) -> str:
    """Byte-stable JSON: sorted keys, no whitespace, integral floats
    collapsed to ints, tuples written as lists, sets sorted."""
    return _encode(obj if _is_canonical(obj) else _normalize(obj))


def _is_canonical(obj) -> bool:
    """Whether the encoder writes `obj` as `_normalize` would rewrite it:
    str-keyed dicts, lists, str, int, bool, None and non-integral floats,
    by exact type. Anything else (another key type, a tuple, a set, a
    subclass, an integral float) needs `_normalize`."""
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return True
    if kind is float:
        return not obj.is_integer()
    if kind is dict:
        for key, value in obj.items():
            if type(key) is not str or not _is_canonical(value):
                return False
        return True
    if kind is list:
        for value in obj:
            if not _is_canonical(value):
                return False
        return True
    return False


def _normalize(obj):
    if isinstance(obj, float) and obj.is_integer():
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_normalize(v) for v in obj)
    return obj


def payload_text(payload: dict) -> str:
    """The canonical JSON of a payload that is canonical as built
    (`_is_canonical`), encoded as it stands, without `_normalize`."""
    return _encode(payload)


def object_prefix(fields: dict, last: str) -> str:
    """The canonical JSON of the non-empty object `fields` with one more
    key, `last`, cut after that key's colon: a value's canonical JSON and
    "}" complete it. `last` sorts after every key of `fields`, which are
    str."""
    return "%s,%s:" % (_encode(fields)[:-1], _encode(last))


# How the encoder writes the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def number_text(value) -> str:
    """`canonical_json` of an int or a float: an integral float is written
    as an int, NaN and the infinities as the encoder writes them."""
    if type(value) is float:
        if value.is_integer():
            return repr(int(value))
        text = repr(value)
        return _NON_FINITE.get(text, text)
    return repr(value)


def payload_digest(text: str) -> str:
    """16 hex digits of SHA-256 over a payload's canonical JSON `text`."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class EventRecord(NamedTuple):
    seq: int
    tick: int
    step: int | None
    src: str
    dst: str
    message: str
    digest: str

    def line(self) -> str:
        step = "-" if self.step is None else str(self.step)
        return "%d %d %s %s %s %s %s" % (
            self.seq, self.tick, step, self.src, self.dst, self.message,
            self.digest)


def trace_lines(trace: list) -> str:
    return "".join(record.line() + "\n" for record in trace)
