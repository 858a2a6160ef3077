import ast
import hashlib
import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import nsscale.simulator
import nsscale.trace
import sample_catalog as sc
import scenario_gen
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Simulator
from nsscale.trace import canonical_json, payload_digest, payload_text
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
# What `_is_canonical` accepts: the payloads `payload_text` is given.
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
        assert payload_text(obj) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canonical_like)
def test_digest_of_a_canonical_payload_is_that_of_its_canonical_json(obj):
    assert nsscale.trace._is_canonical(obj)
    assert payload_digest(payload_text(obj)) == sha16(reference_json(obj))


def test_integral_floats_and_foreign_keys_take_the_normalizing_path():
    assert canonical_json({"a": 1.0, "b": -0.0, "c": 1e16}) == \
        '{"a":1,"b":0,"c":10000000000000000}'
    assert canonical_json({2: "x", "10": "y", True: None}) == \
        '{"10":"y","2":"x","True":null}'
    assert canonical_json([(1, 2), {3, 1}]) == "[[1,2],[1,3]]"
    assert canonical_json({"b": [0.5, float("nan")], "a": None}) == \
        '{"a":null,"b":[0.5,NaN]}'


def test_every_sent_payload_is_canonical(monkeypatch):
    """Every payload reaches `payload_digest` as text: the canonical JSON
    of what it parses to, since a workflow payload is encoded as it
    stands and a notification is built as text. Its digest is that of the
    text. Covers the sample scenarios with their fault sweeps, random
    scenarios, and free-form indicator values, integral or nested."""
    digest = nsscale.simulator.payload_digest
    sent = []
    bad = []

    def checking(text):
        sent.append(1)
        if canonical_json(json.loads(text)) != text \
                or digest(text) != sha16(text):
            bad.append(text)
        return digest(text)

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


def test_only_the_trace_module_writes_json():
    """The canonical encoding lives in `trace.py`: the modules that build
    payloads ask it for their text and import no JSON encoder."""
    package = Path(nsscale.trace.__file__).parent
    for module in ("monitoring.py", "simulator.py"):
        tree = ast.parse((package / module).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [name for name in imported
                    if name == "json" or name.startswith("json.")], module
