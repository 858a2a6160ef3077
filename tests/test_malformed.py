"""Any malformed catalog or scenario exits 1, never 4: a property over
random edits of the sample scenario and of the broken descriptor sets."""

import json
import signal

import broken_descriptors
import sample_catalog as sc
from hypothesis import HealthCheck, given, settings, strategies as st
from nsscale.cli import main
from nsscale.descriptors import Nsd, Vld, VnffgDescriptor, Vnfd
from nsscale.scenario import SCENARIO

# What an edit sets a field to; DELETE removes it.
DELETE = "<delete>"
VALUES = (None, "x", [], [1], {}, {"a": 1}, True, float("nan"), 10**20, -1,
          0, 1.5, DELETE)
CASE_SECONDS = 5


def _paths(value, path=()):
    """The path of every field and element inside the JSON `value`."""
    if type(value) is dict:
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _scenario(base: int) -> dict:
    """The escalation sample with a congestion indicator; from 1 on, with
    the catalog of broken descriptor set `base - 1`."""
    scenario = sc.sample_scenario(workload=sc.escalation_workload())
    scenario["workload"]["indicators"] = [[12, "vnfd-b", "congestion", "hi"]]
    if base:
        scenario["catalog"] = broken_descriptors.broken_corpus()[base - 1][1]
    return scenario


def _timeout(signum, frame):
    raise TimeoutError("a case ran beyond %d s" % CASE_SECONDS)


def _exit(argv: list) -> int:
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CASE_SECONDS)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(st.integers(0, len(broken_descriptors.broken_corpus())), st.data())
def test_a_malformed_input_never_exits_four(tmp_path, capsys, base, data):
    scenario = _scenario(base)
    edited = []
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(scenario))))
        value = data.draw(st.sampled_from(VALUES))
        owner = scenario
        for key in path[:-1]:
            owner = owner[key]
        if value == DELETE:
            del owner[path[-1]]
        else:
            owner[path[-1]] = json.loads(json.dumps(value))
        edited.append(path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert _exit(["run", str(path)]) in (0, 1, 3)
    if all(p[0] == "catalog" for p in edited) and "catalog" in scenario:
        path.write_text(json.dumps(scenario["catalog"]))
        assert _exit(["validate", str(path)]) in (0, 1)
    capsys.readouterr()


def test_the_labelling_pass_builds_what_the_first_pass_builds():
    """A shape walks faulty input a second time, to label each fault; on
    valid input that pass finds none and builds the same values."""
    shapes = {"nsd": Nsd.shape, "vnfd": Vnfd.shape, "vld": Vld.shape,
              "vnffgd": VnffgDescriptor.shape}
    scenario = _scenario(0)
    scenario["rules"]["placement_constraints"] = {"anti_affinity": {"B1": "x"}}
    cases = [(SCENARIO, scenario)] + [(shapes[doc["kind"]], doc)
                                      for doc in scenario["catalog"]]
    for shape, value in cases:
        lines = []
        assert shape.report(value, "top:", None, lines) == shape.build(value)
        assert lines == []
