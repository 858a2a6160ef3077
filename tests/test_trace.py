import hashlib
import json
import random

from hypothesis import given, settings, strategies as st

import nsscale.simulator
import nsscale.trace
import sample_catalog as sc
import scenario_gen
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Simulator
from nsscale.trace import canonical_json, payload_digest
from test_sample_digests import sample_digests


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
# What `_is_canonical` accepts: the payloads `payload_digest` is given.
canonical_like = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
              floats.filter(lambda f: not f.is_integer()),
              st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=16)


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(json_like)
def test_canonical_json_equals_the_normalized_encoding(obj):
    expected = reference_json(obj)
    assert canonical_json(obj) == expected
    if nsscale.trace._is_canonical(obj):
        assert payload_digest(obj) == sha16(expected)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canonical_like)
def test_digest_of_a_canonical_payload_is_that_of_its_canonical_json(obj):
    assert nsscale.trace._is_canonical(obj)
    assert payload_digest(obj) == sha16(reference_json(obj))


def test_integral_floats_and_foreign_keys_take_the_normalizing_path():
    assert canonical_json({"a": 1.0, "b": -0.0, "c": 1e16}) == \
        '{"a":1,"b":0,"c":10000000000000000}'
    assert canonical_json({2: "x", "10": "y", True: None}) == \
        '{"10":"y","2":"x","True":null}'
    assert canonical_json([(1, 2), {3, 1}]) == "[[1,2],[1,3]]"
    assert canonical_json({"b": [0.5, float("nan")], "a": None}) == \
        '{"a":null,"b":[0.5,NaN]}'


def test_every_sent_payload_is_canonical(monkeypatch):
    """`payload_digest` encodes a payload as it stands, so every payload the
    simulator sends must be canonical as built. Covers the sample scenarios
    with their fault sweeps, random scenarios, and free-form indicator
    values, integral or nested."""
    digest = nsscale.simulator.payload_digest
    sent = []
    bad = []

    def checking(payload):
        sent.append(1)
        if not nsscale.trace._is_canonical(payload) \
                or digest(payload) != sha16(canonical_json(payload)):
            bad.append(payload)
        return digest(payload)

    monkeypatch.setattr(nsscale.simulator, "payload_digest", checking)
    sample_digests()
    for seed in range(200):
        Simulator(scenario_from_dict(
            scenario_gen.random_scenario(random.Random(seed)))).run()
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["indicators"] = [
        [11, "vnfd-b", "congestion", 2.0],
        [12, "vnfd-b", "congestion", {"level": [1.0, 0.5], "note": "x"}]]
    Simulator(scenario_from_dict(scenario)).run()
    assert len(sent) > 100_000
    assert bad == []
