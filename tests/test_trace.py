import hashlib
import json

from hypothesis import given, settings, strategies as st

import nsscale.trace
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Simulator
from nsscale.trace import canonical_json, payload_digest
from test_sample_digests import sample_scenarios


def reference_json(obj) -> str:
    """Canonical JSON as it was written before the fast path: every value
    copied through `_normalize`, then a fresh encoder."""
    return json.dumps(nsscale.trace._normalize(obj), sort_keys=True,
                      separators=(",", ":"))


class Tag(str):
    """A str subclass, which the fast path must hand to `_normalize`."""


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, 1.0, -3.0, 1e16, 1e300, 2.5, float("nan"),
                     float("inf"), float("-inf"))))
leaves = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                   floats, st.text(max_size=4),
                   st.builds(Tag, st.text(max_size=3)))
keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.none(), st.builds(Tag, st.text(max_size=2)))
# Sorting a set needs comparable members, as it always did.
sets = st.one_of(st.sets(st.integers(-5, 5), max_size=4),
                 st.frozensets(st.text(max_size=3), max_size=4),
                 st.sets(st.floats(-1e6, 1e6), max_size=4))
json_like = st.recursive(
    st.one_of(leaves, sets),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(keys, children, max_size=4)),
    max_leaves=16)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(json_like)
def test_canonical_json_equals_the_normalized_encoding(obj):
    expected = reference_json(obj)
    assert canonical_json(obj) == expected
    assert payload_digest(obj) == \
        hashlib.sha256(expected.encode()).hexdigest()[:16]


def test_integral_floats_and_foreign_keys_take_the_normalizing_path():
    assert canonical_json({"a": 1.0, "b": -0.0, "c": 1e16}) == \
        '{"a":1,"b":0,"c":10000000000000000}'
    assert canonical_json({2: "x", "10": "y", True: None}) == \
        '{"10":"y","2":"x","True":null}'
    assert canonical_json([(1, 2), {3, 1}]) == "[[1,2],[1,3]]"
    assert canonical_json({"b": [0.5, float("nan")], "a": None}) == \
        '{"a":null,"b":[0.5,NaN]}'


def test_no_workflow_payload_needs_normalizing(monkeypatch):
    """Every payload the workflow builds is already canonical, so its
    digest skips `_normalize`. Monitoring notifications (steps 1-3) echo a
    workload value, which may be an integral float: those alone may take
    the slow path, and only for that reason."""
    routed = []  # (step, payload) digested through _normalize
    sending = []
    normalize = nsscale.trace._normalize

    def counting(obj):
        if sending:
            routed.append(sending[-1])
            sending.clear()  # count the payload, not its recursive calls
        return normalize(obj)

    send = Simulator._send

    def send_recording(self, src, dst, message, payload, step=None, op=None):
        sending.append((step, payload))
        try:
            return send(self, src, dst, message, payload, step, op)
        finally:
            sending.clear()

    monkeypatch.setattr(nsscale.trace, "_normalize", counting)
    monkeypatch.setattr(Simulator, "_send", send_recording)
    for scenario in sample_scenarios().values():
        Simulator(scenario_from_dict(scenario)).run()
    for step, payload in routed:
        assert step in (1, 2, 3), (step, payload)
        assert type(payload["value"]) is float \
            and payload["value"].is_integer()
        assert nsscale.trace._is_canonical(dict(payload, value=0.5))

