"""The event trace, its text, and canonical JSON serialization helpers."""

from __future__ import annotations

import hashlib
import json
import operator
from array import array
from bisect import bisect_right
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .capacity import DIMENSIONS

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# `JSONEncoder.encode` builds its C core afresh on every call; build it
# once. It keeps no circular-reference markers: a value that refers to
# itself recurses until RecursionError, in `_is_canonical` or `_normalize`.
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
    collapsed to ints, tuples written as lists, sets sorted.

    A dict or list that holds a dict or list is written member by member,
    down to its scalars, and its text grows in place, as `trace_lines`
    grows its text: the encoder keeps every token of what it writes as
    its own str until it joins them, about 13 times the text of a run's
    final state. The walk keeps its open containers on a stack in this
    one frame, and writes a str member as the encoder does, any other
    scalar with one `_encode` call. Anything else, as each flat payload
    of a run, is one `_encode` call."""
    if not _is_canonical(obj):
        obj = _normalize(obj)
    if not _nests(obj):
        return _encode(obj)
    text = ""
    stack = []  # per open container: (its members, the dict or None, closer)
    value = obj
    while True:
        kind = type(value)
        if kind is dict:
            text += "{"
            stack.append((iter(sorted(value)), value, "}"))
        elif kind is list:
            text += "["
            stack.append((iter(value), None, "]"))
        elif kind is str:
            text += encode_basestring_ascii(value)
        else:
            text += _encode(value)
        while True:  # the next member of the innermost open container
            if not stack:
                return text
            members, mapping, closer = stack[-1]
            member = next(members, _DONE)
            if member is not _DONE:
                break
            text += closer
            stack.pop()
        if text[-1] not in "{[":  # not the container's first member
            text += ","
        if mapping is None:
            value = member
        else:
            text += encode_basestring_ascii(member) + ":"
            value = mapping[member]


_DONE = object()


def _nests(obj) -> bool:
    """Whether `obj` is a dict or a list that holds a dict or a list."""
    members = obj.values() if type(obj) is dict else \
        obj if type(obj) is list else ()
    return any(type(value) in (dict, list) for value in members)


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


# The canonical text of a str: JSON with every non-ASCII character escaped.
string_text = encode_basestring_ascii


def strings_text(items) -> str:
    """`canonical_json` of a list of str."""
    return "[%s]" % ",".join(map(encode_basestring_ascii, items))


def object_form(*keys) -> str:
    """The `%` template of the canonical JSON of an object with `keys`:
    `'{"k1":%s,"k2":%s}'`, to be formatted with each value's canonical
    text in key order. `keys` are str, given as `canonical_json` sorts
    them, and none repeats; the check lets a caller's value tuple read in
    the template's order."""
    if not all(type(key) is str for key in keys) \
            or any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError("object keys must be distinct str in sorted "
                         "order: %r" % (keys,))
    return "{%s}" % ",".join(encode_basestring_ascii(key).replace("%", "%%")
                             + ":%s" for key in keys)


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


# A CapacityVector's fields in the order `canonical_json` writes its dict.
_CAPACITY_FORM = object_form(*sorted(DIMENSIONS))
_capacity_values = operator.attrgetter(*sorted(DIMENSIONS))


def capacity_text(vector) -> str:
    """`canonical_json` of a CapacityVector's `as_dict()`."""
    return _CAPACITY_FORM % (*map(number_text, _capacity_values(vector)),)


# A payload digest's raw bytes, and the hex digits a trace line shows.
DIGEST_BYTES = 8
DIGEST_DIGITS = 2 * DIGEST_BYTES


def payload_digest(text: str) -> bytes:
    """The first 8 raw bytes of SHA-256 over a payload's canonical JSON
    `text`; their hex is the digest a trace line shows."""
    return hashlib.sha256(text.encode()).digest()[:DIGEST_BYTES]


class EventRecord(NamedTuple):
    """One event of a `Trace`, as reading it builds it."""
    seq: int
    tick: int
    step: int | None
    src: str
    dst: str
    message: str
    digest: str


# The route id that no longer fits the `_routes` typecode -> the next one.
_WIDER = {256: "H", 65536: "I"}


class Trace:
    """A run's events, held as columns rather than one record each: a
    route id indexing the table of the distinct `(arrow, src, dst)` seen,
    `arrow` being a `(step, message)` pair, in an `array("B")` widened to
    "H" as route 256 is made and to "I" at route 65,536; the payload
    digest's 8 raw bytes, appended to one `bytearray`; and, in two
    `array("q")`, the position and tick of each jump, an event whose tick
    is not the previous event's tick + 1 (as the first is not). That is 9
    bytes per event under 256 routes, and 16 per jump. An event's seq is
    its position, counted from 1. Reading an event (by an int or negative
    index, a slice or iteration) builds its `EventRecord`, whose digest is
    hex; a slice reads as a list."""

    __slots__ = ("_routes", "_digests", "_jump_at", "_jump_tick",
                 "_next_tick", "_route_ids", "_route_table")

    def __init__(self):
        self._routes = array("B")
        self._digests = bytearray()
        self._jump_at = array("q")
        self._jump_tick = array("q")
        self._next_tick = None  # the tick that would not be a jump
        self._route_ids = {}  # (arrow, src, dst) -> index in _route_table
        self._route_table = []  # [(step, src, dst, message)]

    def append(self, tick: int, arrow, src: str, dst: str, digest: bytes):
        """Add the event of `arrow` from `src` to `dst` at `tick`, whose
        payload digest is the `DIGEST_BYTES` bytes `digest`."""
        key = (arrow, src, dst)
        route = self._route_ids.get(key)
        if route is None:
            route = self._route_ids[key] = len(self._route_table)
            self._route_table.append((arrow[0], src, dst, arrow[1]))
            if route in _WIDER:
                self._routes = array(_WIDER[route], self._routes)
        if tick != self._next_tick:
            self._jump_at.append(len(self._routes))
            self._jump_tick.append(tick)
        self._next_tick = tick + 1
        self._routes.append(route)
        self._digests += digest

    def __len__(self) -> int:
        return len(self._routes)

    def _ticks(self, start: int, stop: int):
        """An iterator over the ticks of the events at positions `start` up
        to `stop`, within the trace: one `range` per jump they span."""
        at, ticks = self._jump_at, self._jump_tick
        j = bisect_right(at, start)  # the first jump after `start`
        runs = []
        while start < stop:
            end = min(at[j], stop) if j < len(at) else stop
            shift = ticks[j - 1] - at[j - 1]
            runs.append(range(start + shift, end + shift))
            start = end
            j += 1
        return chain.from_iterable(runs)

    def _record(self, i: int) -> EventRecord:
        step, src, dst, message = self._route_table[self._routes[i]]
        j = bisect_right(self._jump_at, i) - 1
        at = DIGEST_BYTES * i
        return tuple.__new__(EventRecord, (
            i + 1, self._jump_tick[j] + i - self._jump_at[j], step, src, dst,
            message, self._digests[at:at + DIGEST_BYTES].hex()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._record, range(*index.indices(len(self)))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("trace index out of range")
        return self._record(i)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def step_log(self, begun: int, end: int | None) -> list:
        """The `(step, tick)` of the events at positions `begun` up to
        `end` (the trace's end when None) that carry a step."""
        steps = [route[0] for route in self._route_table]
        end = len(self) if end is None else end
        return [(steps[route], tick) for route, tick in
                zip(self._routes[begun:end], self._ticks(begun, end))
                if steps[route] is not None]


# Lines formatted per chunk: one chunk and its per-line strings are what
# the trace's text costs beyond itself, about 15 KiB at 64 lines. 256
# lines cost 47 KiB and formatted 1-9% faster.
LINES_PER_JOIN = 64


def trace_chunks(trace: Trace):
    """The text of `trace_lines`, yielded `LINES_PER_JOIN` lines at a
    time; each chunk writes only its own events' digests as hex."""
    heads = ["%s %s %s %s" % ("-" if step is None else step, src, dst,
                              message)
             for step, src, dst, message in trace._route_table]
    line = "%d %d %s %s\n".__mod__
    # Where each line's digest starts and ends in its chunk's digests.
    starts = range(0, DIGEST_DIGITS * LINES_PER_JOIN, DIGEST_DIGITS)
    ends = range(DIGEST_DIGITS, DIGEST_DIGITS * (LINES_PER_JOIN + 1),
                 DIGEST_DIGITS)
    for start in range(0, len(trace), LINES_PER_JOIN):
        stop = min(start + LINES_PER_JOIN, len(trace))
        digests = trace._digests[DIGEST_BYTES * start:
                                 DIGEST_BYTES * stop].hex()
        yield "".join(map(line, zip(
            range(start + 1, stop + 1), trace._ticks(start, stop),
            map(heads.__getitem__, trace._routes[start:stop]),
            map(digests.__getitem__, map(slice, starts, ends)))))


def trace_lines(trace: Trace) -> str:
    """The trace as text, one `seq tick step src dst message digest` line
    per event; a step-less event's step reads `-`."""
    text = ""
    for chunk in trace_chunks(trace):
        # CPython grows `text` in place while this is its only reference,
        # so the text costs about one chunk beyond itself. Without that
        # growth the result is the same, but each `+=` copies the text so
        # far: it then costs twice its size.
        text += chunk
    return text
