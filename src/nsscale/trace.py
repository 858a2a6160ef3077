"""Canonical event-trace records and serialization helpers."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


def canonical_json(obj) -> str:
    """Byte-stable JSON: sorted keys, no whitespace, integral floats
    collapsed to ints."""
    return json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))


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
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EventRecord:
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
