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
# or, for `payload_digest`, the encoder.
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


def payload_digest(payload: dict) -> str:
    """16 hex digits of SHA-256 over `payload`'s JSON, which is encoded as it
    stands: the payload must be canonical as built (`_is_canonical`)."""
    return hashlib.sha256(_encode(payload).encode()).hexdigest()[:16]


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
