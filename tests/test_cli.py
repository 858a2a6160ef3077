import json
import os
import subprocess
import sys
import time
from pathlib import Path

import broken_descriptors
import pytest
import sample_catalog as sc
import nsscale.cli
import nsscale.scenario
import nsscale.simulator
from conftest import SEVEN_AND_SEVEN, refuse_large_vnfcs, run_dict
from nsscale.capacity import CapacityVector
from nsscale.cli import main
from nsscale.descriptors import load_catalog, validate_catalog
from nsscale.inventory import (
    ConservationError, IllegalTransitionError, ResourceZone,
)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def catalog_file(tmp_path, documents=None):
    return write_json(tmp_path / "catalog.json",
                      documents or sc.sample_documents())


def scenario_file(tmp_path, scenario=None):
    return write_json(tmp_path / "scenario.json",
                      scenario or sc.sample_scenario(
                          workload=sc.jump_workload()))


# validate and graph share one catalog front half
CATALOG_COMMANDS = pytest.mark.parametrize(
    "command, options", [("validate", []), ("graph", ["--flavor", "df-1"])],
    ids=["validate", "graph"])


@pytest.mark.parametrize("command, status", [("validate", 0), ("run", 1)])
def test_python_m_nsscale_runs_the_cli_from_a_checkout(tmp_path, command,
                                                      status):
    """With only `src` on the path, `python -m nsscale` validates the
    sample catalog (exit 0) and refuses a scenario whose options are
    `[0.6]`, not an object (exit 1)."""
    path = catalog_file(tmp_path) if command == "validate" else \
        scenario_file(tmp_path, dict(sc.sample_scenario(), options=[0.6]))
    done = subprocess.run(
        [sys.executable, "-m", "nsscale", command, path], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(
            Path(__file__).parent.parent / "src")))
    assert done.returncode == status, done.stderr
    assert "Traceback" not in done.stderr


def test_validate_clean_catalog(tmp_path, capsys):
    assert main(["validate", catalog_file(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


@CATALOG_COMMANDS
def test_validate_broken_catalog(tmp_path, capsys, command, options):
    _, documents, kind, path, message = broken_descriptors.broken_corpus()[0]
    assert main([command, catalog_file(tmp_path, documents)] + options) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert kind in out[0] and path in out[0]


def test_validate_malformed_rule_number_exits_one(tmp_path, capsys):
    documents = sc.sample_documents()
    [rule] = [r for r in documents[-1]["auto_scaling_rules"]
              if r["id"] == "r-out"]
    rule["text"] = "WHEN avg(cpu_load, 1) > 0.7.1 THEN scale_out COOLDOWN 5"
    assert main(["validate", catalog_file(tmp_path, documents)]) == 1
    [line] = capsys.readouterr().out.splitlines()
    assert "rule 'r-out': malformed number '0.7.1' (column 24)" in line


@pytest.mark.parametrize("text, problem", [
    ("WHEN avg(cpu_load, 1.5) > 0.7 THEN scale_out COOLDOWN 5",
     "window length '1.5' is not a whole number (column 19)"),
    ("WHEN avg(cpu_load, 1) > 0.7 THEN scale_out COOLDOWN 2.7",
     "cooldown tick count '2.7' is not a whole number (column 52)"),
])
def test_validate_fractional_rule_count_exits_one(tmp_path, capsys, text,
                                                  problem):
    documents = sc.sample_documents()
    [rule] = [r for r in documents[-1]["auto_scaling_rules"]
              if r["id"] == "r-out"]
    rule["text"] = text
    assert main(["validate", catalog_file(tmp_path, documents)]) == 1
    [line] = capsys.readouterr().out.splitlines()
    assert "rule 'r-out': " + problem in line


@CATALOG_COMMANDS
def test_validate_missing_path_is_io_error(tmp_path, capsys, command,
                                           options):
    assert main([command, str(tmp_path / "nope.json")] + options) == 2
    assert "io error" in capsys.readouterr().err


def test_validate_malformed_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2


def test_run_writes_trace_and_state(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    state = tmp_path / "state.json"
    code = main(["run", scenario_file(tmp_path),
                 "--trace", str(trace), "--state", str(state)])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: completed" in out
    assert "final ns-il: level-3" in out
    assert trace.read_text().splitlines()
    final = json.loads(state.read_text())
    assert final["ns_info"]["current_ns_il"] == "level-3"


def test_run_is_reproducible(tmp_path):
    scenario = scenario_file(tmp_path)
    t1, t2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["run", scenario, "--trace", str(t1)]) == 0
    assert main(["run", scenario, "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "x.json", "--bogus"],
    ["run", "x.json", "--seed", "7"],
    ["explain", "x.json"],
    ["graph", "a.json"],
    [],
])
def test_argument_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: nsscale")
    assert "error:" in err


def test_run_no_reservation_flag(tmp_path):
    trace = tmp_path / "trace.txt"
    assert main(["run", scenario_file(tmp_path), "--no-reservation",
                 "--trace", str(trace)]) == 0
    assert "Reserve" not in trace.read_text()


def test_run_invalid_scenario_exits_one(tmp_path, capsys):
    scenario = sc.sample_scenario()
    scenario["initial_instance"]["ns_il_ref"] = "level-99"
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert "level-99" in capsys.readouterr().out


def _vnfc_count(documents, count):
    documents[0]["flavors"][0]["ils"][0]["counts"]["vdu-1"] = count


def _max_instances(documents, count):
    documents[-1]["flavors"][0]["vnf_profiles"][1]["max_instances"] = count


@pytest.mark.parametrize("edit, line", [
    (_vnfc_count, "catalog: range vnfd:vnfd-a/flavors/f1/ils/il-1: "
                  "VNFC counts must be <= 1000"),
    (_max_instances, "catalog: range nsd:nsd-1/flavors/df-1/vnf_profiles/"
                     "p-b: max_instances must be <= 1000"),
], ids=["vnfc-count", "max-instances"])
def test_a_count_beyond_the_limit_exits_one_at_once(tmp_path, capsys, edit,
                                                     line):
    # The simulator creates every instance one by one: a count of 10**20
    # would run without end.
    documents = sc.sample_documents()
    edit(documents, 10**20)
    scenario = sc.with_documents(
        sc.sample_scenario(workload=sc.jump_workload()), documents)
    begun = time.perf_counter()
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert time.perf_counter() - begun < 1
    assert capsys.readouterr().out.splitlines() == [line]


def test_a_count_at_the_limit_is_valid():
    documents = sc.sample_documents()
    _vnfc_count(documents, 1000)
    _max_instances(documents, 1000)
    assert validate_catalog(load_catalog(documents)).issues == []


@pytest.mark.parametrize("ref, line", [
    ("vnfd-z.cpu_load", "catalog: dangling-ref nsd:nsd-1/auto_scaling_rules/"
     "r-out: rule references undeclared metric 'vnfd-z.cpu_load'"),
    ("vnfd-b.cpu_load", None),
    ("ns.net_load", None),
], ids=["unknown-subject", "monitored-item", "ns-item"])
def test_a_dotted_rule_ref_names_a_monitored_item(tmp_path, capsys, ref,
                                                  line):
    """"subject.name" must be the (subject, name) of a monitored item, as
    `MetricStore.resolve` reads it; the name alone is not enough."""
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    [rule] = [r for r in _nsd(scenario)["auto_scaling_rules"]
              if r["id"] == "r-out"]
    rule["text"] = "WHEN avg(%s, 1) > 0.7 THEN scale_out COOLDOWN 5" % ref
    code = main(["run", scenario_file(tmp_path, scenario)])
    out = capsys.readouterr().out.splitlines()
    if line is None:
        assert code == 0 and "status: completed" in out
    else:
        assert (code, out) == (1, [line])


MEM_THRESHOLD = {"id": "t-mem", "subject": "vnfd-b", "metric": "mem_load",
                 "bound": 0.3, "direction": "below"}


@pytest.mark.parametrize("edit, extra, lines", [
    ({"bound": None}, [], ["rules: thresholds[0] bound is missing"]),
    ({"direction": "abvoe"}, [],
     ["rules: thresholds[0] direction 'abvoe' is not 'above' or 'below'"]),
    ({"id": "t"}, [dict(MEM_THRESHOLD, id="t")],
     ["rules: thresholds[1] id 't' repeats thresholds[0]"]),
    ({"id": 7, "subject": None, "metric": None}, [],
     ["rules: thresholds[0] id 7 is not a string, subject is missing, "
      "metric is missing"]),
    ({"bound": "0.7"}, [MEM_THRESHOLD, dict(MEM_THRESHOLD, bound=True)],
     ["rules: thresholds[0] bound '0.7' is not a finite number",
      "rules: thresholds[2] bound True is not a finite number, "
      "id 't-mem' repeats thresholds[1]"]),
    ({"bound": float("inf")}, [["t-mem"]],
     ["rules: thresholds[0] bound inf is not a finite number",
      "rules: thresholds[1] is not an object: ['t-mem']"]),
    ({}, [{"id": "t-x", "subject": "nope", "metric": "nothing", "bound": 0.5,
           "direction": "above"}, dict(MEM_THRESHOLD, subject="ns")],
     ["rules: thresholds[1] metric 'nothing' of subject 'nope' is not "
      "monitored by NSD 'nsd-1'",
      "rules: thresholds[2] metric 'mem_load' of subject 'ns' is not "
      "monitored by NSD 'nsd-1'"]),
], ids=["missing-bound", "misspelt-direction", "repeated-id", "not-strings",
        "not-numbers", "not-an-object", "unmonitored-stream"])
def test_bad_threshold_exits_one(tmp_path, capsys, edit, extra, lines):
    """One line per bad entry; `None` in `edit` deletes the field."""
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    thresholds = scenario["rules"]["thresholds"]
    for field, value in edit.items():
        if value is None:
            del thresholds[0][field]
        else:
            thresholds[0][field] = value
    thresholds.extend(extra)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def test_an_integer_bound_of_any_size_is_finite(tmp_path, capsys):
    # math.isfinite cannot convert 10**400 to a float
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["rules"]["thresholds"][0]["bound"] = 10**400
    assert main(["run", scenario_file(tmp_path, scenario)]) == 0
    assert "status: completed" in capsys.readouterr().out


def _utilization_line(value):
    return "options: target_utilization %r is not a number in (0, 1]" % value


@pytest.mark.parametrize("options, lines", [
    ({"target_utilization": 0}, [_utilization_line(0)]),
    ({"target_utilization": "x"}, [_utilization_line("x")]),
    ({"target_utilization": None}, [_utilization_line(None)]),
    ({"target_utilization": -0.5}, [_utilization_line(-0.5)]),
    ({"target_utilization": 1.5}, [_utilization_line(1.5)]),
    ({"target_utilization": float("nan")}, [_utilization_line(float("nan"))]),
    ({"target_utilization": True}, [_utilization_line(True)]),
    ({"reservation_enabled": "no"},
     ["options: reservation_enabled 'no' is not a bool"]),
    ({"reservation_enabled": 1},
     ["options: reservation_enabled 1 is not a bool"]),
    ({"cost_weights": {"w_cpu": 1, "memory": -1, "w_storage": True,
                       "bandwidth": float("inf"), "w_vcpu": 2}},
     ["options: cost_weights key 'w_cpu' is not a dimension",
      "options: cost_weights 'memory' weight -1 is not a finite number >= 0",
      "options: cost_weights 'w_storage' weight True is not a finite "
      "number >= 0",
      "options: cost_weights 'bandwidth' weight inf is not a finite "
      "number >= 0"]),
    ({"cost_weights": [1, 2], "target_utilization": 2},
     [_utilization_line(2), "options: cost_weights [1, 2] is not an object"]),
    # one line, whichever name comes first
    ({"cost_weights": {"vcpu": 1, "memory": 2, "w_vcpu": 5}},
     ["options: cost_weights: vcpu is weighted both as 'vcpu' and as "
      "'w_vcpu'"]),
    ({"cost_weights": {"w_bandwidth": 5, "bandwidth": 1}},
     ["options: cost_weights: bandwidth is weighted both as 'bandwidth' and "
      "as 'w_bandwidth'"]),
    ([0.6], ["options: [0.6] is not an object"]),
], ids=["zero-target", "text-target", "null-target", "negative-target",
        "target-above-one", "nan-target", "bool-target", "text-reservation",
        "int-reservation", "bad-weights", "weights-not-an-object",
        "weight-named-both-ways", "weight-named-both-ways-reversed",
        "not-an-object"])
def test_bad_options_exit_one(tmp_path, capsys, options, lines):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["options"] = options
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def _nsd(scenario) -> dict:
    return scenario["catalog"][-1]


def _set_vim_ids(scenario, value):
    scenario["topology"]["vims"][0]["id"] = value
    scenario["topology"]["pops"][0]["vim_ref"] = value


def _anti_affinity(scenario, anti):
    scenario["rules"]["placement_constraints"] = {"anti_affinity": anti}


# Ids a workflow payload writes as JSON strings, a rule's text and the
# shapes of `rules`: each fault is one located line, exit 1.
@pytest.mark.parametrize("mutate, lines", [
    (lambda s: _nsd(s)["flavors"][0]["ns_ils"][2].update(id=7),
     ["catalog: nsd[5]: NS-IL id 7 is not a string"]),
    (lambda s: _nsd(s)["flavors"][0]["ns_ils"][1]["vnf_entries"]["p-b"]
     .update(vnf_il_ref=None),
     ["catalog: nsd[5]: NS-IL 'level-2' entry 'p-b' vnf_il_ref None is not "
      "a string"]),
    (lambda s: _nsd(s)["auto_scaling_rules"][0].update(text=7),
     ["catalog: nsd[5]: rule 'r-out' text 7 is not a string"]),
    (lambda s: s["topology"]["pops"][0].update(id=None),
     ["topology: pops[0] id None is not a string"]),
    (lambda s: s["topology"]["pops"][0]["zones"][0].update(id=7),
     ["topology: PoP 'pop-1' zones[0] id 7 is not a string"]),
    (lambda s: _set_vim_ids(s, 7),
     ["topology: vims[0] id 7 is not a string",
      "topology: PoP 'pop-1' references unknown VIM 7"]),
    (lambda s: _anti_affinity(s, {"B1": 7}),
     ["rules: placement_constraints anti_affinity 'B1' label 7 is not a "
      "string"]),
    (lambda s: _anti_affinity(s, {"ZZ": "spread"}),
     ["rules: placement_constraints anti_affinity 'ZZ' is neither a VNFC "
      "name nor a VNF profile id of NSD 'nsd-1'"]),
    (lambda s: _anti_affinity(s, 3),
     ["rules: placement_constraints anti_affinity 3 is not an object"]),
    (lambda s: s["rules"].update(placement_constraints=[1]),
     ["rules: placement_constraints [1] is not an object"]),
    (lambda s: s["rules"].update(placement_constraints={"affinity": {}}),
     ["rules: placement_constraints key 'affinity' is not a constraint"]),
    (lambda s: s["rules"].update(metric_dimensions=[1]),
     ["rules: metric_dimensions [1] is not an object"]),
    (lambda s: s["rules"].update(metric_dimensions="x"),
     ["rules: metric_dimensions 'x' is not an object"]),
    (lambda s: s["rules"]["metric_dimensions"].update(cpu_load="gpu"),
     ["rules: metric_dimensions 'cpu_load' maps to 'gpu', not a dimension "
      "(vcpu, memory, storage, bandwidth)"]),
    (lambda s: s["rules"]["metric_dimensions"].update(cpu_load=5),
     ["rules: metric_dimensions 'cpu_load' maps to 5, not a dimension "
      "(vcpu, memory, storage, bandwidth)"]),
    (lambda s: s.update(rules=[]), ["rules: [] is not an object"]),
], ids=["ns-il-id", "vnf-il-ref", "rule-text", "pop-id", "zone-id", "vim-id",
        "anti-affinity-label", "anti-affinity-name", "anti-affinity-shape",
        "constraints-shape", "constraint-key", "dimensions-list",
        "dimensions-text", "unknown-dimension", "number-dimension",
        "rules-shape"])
def test_bad_ids_and_rules_exit_one(tmp_path, capsys, mutate, lines):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    mutate(scenario)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def _zone(scenario) -> dict:
    return scenario["topology"]["pops"][0]["zones"][0]


# A field of the wrong JSON type anywhere in the catalog or the scenario
# is one located line, exit 1, before any cross-reference check.
@pytest.mark.parametrize("mutate, lines", [
    (lambda s: s["catalog"][1].update(vdus=5),
     ["catalog: vnfd[1]: vdus is not a list"]),
    (lambda s: s["catalog"][1]["vcds"][0].update(vcpu="x"),
     ["catalog: vnfd[1]: VCD 'vcd-b1-small' vcpu 'x' is not a finite "
      "number"]),
    (lambda s: _nsd(s)["flavors"][0]["ns_ils"][0].update(vnf_entries=[]),
     ["catalog: nsd[5]: NS-IL 'level-1' vnf_entries [] is not an object"]),
    (lambda s: s.update(topology=[]), ["topology: [] is not an object"]),
    (lambda s: s.update(workload=[]), ["workload: [] is not an object"]),
    (lambda s: _zone(s).update(total=[]),
     ["topology: PoP 'pop-1' zones[0] total [] is not an object"]),
    (lambda s: s["initial_instance"].update(nsd_ref=[]),
     ["initial_instance: nsd_ref [] is not a string"]),
    (lambda s: s.update(catalog_refs=[5]),
     ["scenario: catalog_refs[0] is not a string: 5"]),
    (lambda s: s.update(catalog_refs="x"),
     ["scenario: catalog_refs is not a list"]),
    (lambda s: (s["catalog"][1].update(vdus=5),
                s["catalog"][0]["vcds"][0].update(vcpu=True),
                s["topology"]["vims"].append({"id": "vim-1"})),
     ["catalog: vnfd[0]: VCD 'vcd-1' vcpu True is not a finite number",
      "catalog: vnfd[1]: vdus is not a list",
      "topology: vims[1] id 'vim-1' repeats vims[0]"]),
], ids=["vdus", "vcpu", "vnf-entries", "topology", "workload", "zone-total",
        "nsd-ref", "catalog-ref", "catalog-refs-text", "every-fault"])
def test_a_field_of_the_wrong_type_exits_one(tmp_path, capsys, mutate,
                                             lines):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    mutate(scenario)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def test_a_scenario_that_is_no_object_exits_one(tmp_path, capsys):
    assert main(["run", write_json(tmp_path / "s.json", [1])]) == 1
    assert capsys.readouterr().out == "scenario: [1] is not an object\n"


@pytest.mark.parametrize("mutate, line", [
    (lambda s: s["topology"].update(pops=[]),
     "topology: at least one PoP required"),
    (lambda s: s["initial_instance"].update(nsd_ref="nsd-9"),
     "initial_instance: unknown NSD 'nsd-9'"),
    (lambda s: s["initial_instance"].update(flavor_ref="df-9"),
     "initial_instance: unknown flavor 'df-9'"),
], ids=["no-pop", "unknown-nsd", "unknown-flavor"])
def test_an_unknown_or_missing_part_exits_one(tmp_path, capsys, mutate,
                                              line):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    mutate(scenario)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert capsys.readouterr().out.splitlines() == [line]


def test_validate_reports_every_malformed_document(tmp_path, capsys):
    documents = sc.sample_documents()
    documents[0]["vdus"][0]["vcd_ref"] = 7
    del documents[-1]["flavors"][0]["ns_ils"][1]["vnf_entries"]
    documents.append(5)
    assert main(["validate", catalog_file(tmp_path, documents)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "vnfd[0]: VDU 'vdu-1' vcd_ref 7 is not a string",
        "nsd[5]: NS-IL 'level-2' vnf_entries is missing",
        "document[6] is not an object: 5"]


def test_a_zone_total_names_only_dimensions(tmp_path, capsys):
    """A total names each dimension at most once, by name; one it leaves
    out is 0."""
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    _zone(scenario)["total"]["gpus"] = 2
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "topology: PoP 'pop-1' zones[0] total key 'gpus' is not a dimension"]
    _zone(scenario)["total"] = {"vcpu": 64, "memory": 128, "storage": 256}
    [zone] = nsscale.scenario.scenario_from_dict(
        scenario).topology["pops"][0]["zones"]
    assert zone["total"] == CapacityVector(64, 128, 256, 0)


def _catalog_in_files(directory: Path) -> list:
    """The sample catalog as three files under `directory`: two lists of
    documents and one document on its own. Returns their names."""
    documents = sc.sample_documents()
    directory.mkdir()
    write_json(directory / "vnfds.json", documents[:3])
    write_json(directory / "vld.json", documents[3])
    write_json(directory / "rest.json", documents[4:])
    return ["parts/vnfds.json", "parts/vld.json", "parts/rest.json"]


def test_catalog_refs_are_read_from_the_scenario_directory(
        tmp_path, capsys, monkeypatch):
    embedded = tmp_path / "embedded.txt"
    assert main(["run", scenario_file(tmp_path), "--trace",
                 str(embedded)]) == 0
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    del scenario["catalog"]
    scenario["catalog_refs"] = _catalog_in_files(tmp_path / "parts")
    path = scenario_file(tmp_path, scenario)
    monkeypatch.chdir(tmp_path / "parts")  # a relative ref is not the cwd's
    referred = tmp_path / "referred.txt"
    assert main(["run", path, "--trace", str(referred)]) == 0
    assert referred.read_bytes() == embedded.read_bytes()
    capsys.readouterr()


def test_a_missing_catalog_ref_is_an_io_error(tmp_path, capsys):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["catalog_refs"] = ["nope.json"]
    assert main(["run", scenario_file(tmp_path, scenario)]) == 2
    assert "io error" in capsys.readouterr().err


def _string_fields(value, path=()):
    """The path of every str in the JSON `value`."""
    if type(value) is dict:
        for key, item in value.items():
            yield from _string_fields(item, path + (key,))
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _string_fields(item, path + (i,))
    elif type(value) is str:
        yield path


def test_no_string_field_set_to_a_number_or_null_is_an_internal_error(
        tmp_path, capsys):
    # Every str of the jump sample with anti-affinity, set to 7 or null in
    # turn under both reservation settings, is refused or runs; none is
    # written into a payload or parsed as a rule and breaks the run.
    internal = []
    runs = 0
    for reservation in (True, False):
        base = sc.sample_scenario(
            workload=sc.jump_workload(),
            options={"reservation_enabled": reservation})
        _anti_affinity(base, {"B1": "spread"})
        for path in list(_string_fields(base)):
            for value in (7, None):
                scenario = json.loads(json.dumps(base))
                owner = scenario
                for key in path[:-1]:
                    owner = owner[key]
                owner[path[-1]] = value
                if main(["run", scenario_file(tmp_path, scenario)]) == 4:
                    internal.append((reservation, path, value))
                runs += 1
    capsys.readouterr()
    assert runs >= 500
    assert internal == []


def test_options_that_are_not_an_object_exit_one_with_no_reservation(
        tmp_path, capsys):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["options"] = [0.6]
    assert main(["run", scenario_file(tmp_path, scenario),
                 "--no-reservation"]) == 1
    assert capsys.readouterr().out == "options: [0.6] is not an object\n"


def test_valid_options_run(tmp_path, capsys):
    scenario = sc.sample_scenario(workload=sc.jump_workload(), options={
        "target_utilization": 1, "reservation_enabled": False,
        "cost_weights": {"vcpu": 2, "w_memory": 0.5, "storage": 0}})
    trace = tmp_path / "trace.txt"
    assert main(["run", scenario_file(tmp_path, scenario),
                 "--trace", str(trace)]) == 0
    events = len(trace.read_text().splitlines())
    assert capsys.readouterr().out.splitlines() == [
        "status: completed", "events: %d" % events, "final ns-il: level-2"]
    assert "Reserve" not in trace.read_text()


def test_initial_level_that_breaks_anti_affinity_exits_one(tmp_path,
                                                           capsys):
    # level-2's two B1 VNFCs must take distinct PoPs; there is one
    scenario = sc.sample_scenario(ns_il="level-2")
    scenario["rules"]["placement_constraints"] = {
        "anti_affinity": {"B1": "spread"}}
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "initial instantiation: no site fits p-b/inst0/vnfc/vdu-1/1 "
        "(short on ['anti-affinity'])"]


def test_run_operation_failure_exits_three(tmp_path, capsys, monkeypatch):
    refuse_large_vnfcs(monkeypatch)
    assert main(["run", scenario_file(tmp_path)]) == 3
    assert "failure" in capsys.readouterr().out


def test_run_refused_by_the_drpa_exits_zero(tmp_path, capsys):
    scenario = sc.sample_scenario(workload=sc.jump_workload(),
                                  topology=SEVEN_AND_SEVEN)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 0
    assert "failure" not in capsys.readouterr().out


def test_graph_emits_all_edges(tmp_path, capsys):
    out_doc = tmp_path / "graph.json"
    code = main(["graph", catalog_file(tmp_path), "--flavor", "df-1",
                 "--out", str(out_doc)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "->" in l]
    assert len(lines) == 12  # 4 levels, every ordered pair
    doc = json.loads(out_doc.read_text())
    assert doc["nodes"] == ["level-1", "level-2", "level-3", "level-4"]
    edges = {(e["from"], e["to"]): e["classification"] for e in doc["edges"]}
    assert edges[("level-3", "level-4")] == "add-vnf"
    assert edges[("level-4", "level-3")] == "remove-vnf"
    assert edges[("level-1", "level-2")] == "vnf-scaling"


def test_graph_single_level_flavor(tmp_path, capsys):
    documents = sc.sample_documents()
    nsd = [d for d in documents if d["kind"] == "nsd"][0]
    nsd["flavors"][0]["ns_ils"] = nsd["flavors"][0]["ns_ils"][:1]
    out_doc = tmp_path / "graph.json"
    assert main(["graph", catalog_file(tmp_path, documents),
                 "--flavor", "df-1", "--out", str(out_doc)]) == 0
    doc = json.loads(out_doc.read_text())
    assert len(doc["nodes"]) == 1 and doc["edges"] == []


def test_graph_unknown_flavor(tmp_path, capsys):
    assert main(["graph", catalog_file(tmp_path), "--flavor", "df-9"]) == 1


def test_graph_output_is_byte_stable(tmp_path):
    catalog = catalog_file(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["graph", catalog, "--flavor", "df-1", "--out", str(a)])
    main(["graph", catalog, "--flavor", "df-1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_graph_document_is_unchanged(tmp_path):
    out_doc = tmp_path / "graph.json"
    assert main(["graph", catalog_file(tmp_path), "--flavor", "df-1",
                 "--out", str(out_doc)]) == 0
    golden = Path(__file__).parent / "data" / "sample_graph.json"
    assert out_doc.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command", [["run"], ["explain", "--at", "10"]])
@pytest.mark.parametrize("field, record", [
    ("metrics", [12, "vnfd-b", "cpu_load", "high"]),
    ("metrics", [12, "vnfd-b", "cpu_load", None]),
    ("metrics", [12, "vnfd-b", "cpu_load", True]),
    ("metrics", ["12", "vnfd-b", "cpu_load", 0.9]),
    ("metrics", [12, "vnfd-b", "cpu_load"]),
    ("metrics", [12, "vnfd-b", "cpu_load", float("nan")]),
    ("metrics", [12, "vnfd-b", "cpu_load", float("inf")]),
    ("indicators", [12, "vnfd-b", "congestion"]),
    ("indicators", [12, "vnfd-b", "congestion", float("nan")]),
    ("indicators", [12, "vnfd-b", "congestion", float("inf")]),
    ("indicators", [12, "vnfd-b", "congestion", float("-inf")]),
])
def test_malformed_workload_record_exits_one(tmp_path, capsys, command,
                                             field, record):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    records = scenario["workload"].setdefault(field, [])
    records.append(record)
    path = scenario_file(tmp_path, scenario)
    assert main([command[0], path] + command[1:]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("workload: %s[%d] is not "
                             % (field, len(records) - 1))


@pytest.mark.parametrize("value", [2, -0.5, 1e300, "high", True, None])
def test_a_finite_or_non_numeric_indicator_value_runs(tmp_path, value):
    """An indicator value is free-form; only a non-finite float, which
    strict JSON cannot carry, is refused."""
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["indicators"] = [[12, "vnfd-b", "congestion", value]]
    trace = tmp_path / "trace.txt"
    assert main(["run", scenario_file(tmp_path, scenario),
                 "--trace", str(trace)]) == 0
    assert trace.read_text().count(" VnfIndicatorChange ") == 2


def test_workload_field_that_is_not_a_list_exits_one(tmp_path, capsys):
    scenario = sc.sample_scenario(workload={"metrics": None})
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert capsys.readouterr().out == "workload: metrics is not a list\n"


@pytest.mark.parametrize("field, record", [
    ("metrics", [10**20, "vnfd-b", "cpu_load", 0.9]),
    ("metrics", [-2**62 - 1, "vnfd-b", "cpu_load", 0.9]),
    ("indicators", [2**62 + 1, "vnfd-b", "congestion", 2]),
])
def test_tick_beyond_the_limit_exits_one(tmp_path, capsys, field, record):
    """The trace holds ticks as signed 64-bit integers: a record's tick is
    refused beyond +/-2**62, leaving the clock room to count events."""
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    records = scenario["workload"].setdefault(field, [])
    records.append(record)
    assert main(["run", scenario_file(tmp_path, scenario)]) == 1
    assert capsys.readouterr().out == (
        "workload: %s[%d] tick %d is beyond the limit of +/-2**62\n"
        % (field, len(records) - 1, record[0]))


def test_a_tick_at_the_limit_runs(tmp_path, capsys):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["metrics"].append([2**62, "vnfd-b", "cpu_load", 0.9])
    trace = tmp_path / "trace.txt"
    assert main(["run", scenario_file(tmp_path, scenario),
                 "--trace", str(trace)]) == 0
    last = trace.read_text().splitlines()[-1].split()
    assert int(last[1]) >= 2**62


def test_explain_at_decision_tick(tmp_path, capsys):
    assert main(["explain", scenario_file(tmp_path), "--at", "10"]) == 0
    out = capsys.readouterr().out
    assert "action: scale" in out
    assert "chosen: level-3" in out
    assert "candidate level-3" in out and "candidate level-4" in out
    assert "rule r-out: violated" in out
    # the plan names each item's PoP and zone
    assert "  place p-b/scale0/vnfc/vdu-2/0 at pop-1/zone-a\n" in out
    assert "  place vl/vlp-1 at pop-1/zone-a\n" in out


def test_explain_prints_a_drpa_error(tmp_path, capsys):
    """A load of 5.0 at level-1 asks for 50 vcpu, which no level has: the
    decision at tick 10 is the DRPA's error."""
    scenario = sc.sample_scenario(
        workload={"metrics": [[10, "vnfd-b", "cpu_load", 5.0]]})
    assert main(["explain", scenario_file(tmp_path, scenario),
                 "--at", "10"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "tick 10: action: error (no scale-out level in flavor df-1 "
        "satisfies demand {'vcpu': 50, 'memory': 12, 'storage': 20, "
        "'bandwidth': 100})"]


def test_explain_prints_an_infeasible_candidate(tmp_path, capsys):
    """With 16 vcpu in the one zone, level-4 (22 vcpu) is a candidate that
    no site fits, and level-3 is chosen."""
    scenario = sc.sample_scenario(workload=sc.jump_workload(),
                                  topology=sc.sample_topology(vcpu=16))
    assert main(["explain", scenario_file(tmp_path, scenario),
                 "--at", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  candidate level-4: infeasible (no site fits "\
        "p-b/inst0/vnfc/vdu-2/0 (short on ['vcpu']))" in out
    assert "  chosen: level-3 (vnf-scaling)" in out


def test_explain_quiet_tick(tmp_path, capsys):
    assert main(["explain", scenario_file(tmp_path), "--at", "5"]) == 0
    assert "action: none" in capsys.readouterr().out


def test_explain_beyond_horizon(tmp_path, capsys):
    assert main(["explain", scenario_file(tmp_path), "--at", "9999"]) == 1
    assert "horizon" in capsys.readouterr().out


@pytest.mark.parametrize("at", ["10", "5", "9999"])
def test_explain_takes_the_workload_records_once(tmp_path, capsys,
                                                 monkeypatch, at):
    calls = []
    real = nsscale.scenario.workload_records

    def counting(workload):
        calls.append(workload)
        return real(workload)

    for module in (nsscale.cli, nsscale.simulator):
        monkeypatch.setattr(module, "workload_records", counting)
    main(["explain", scenario_file(tmp_path), "--at", at])
    assert len(calls) == 1


def test_run_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    def broken(zone):
        raise ConservationError(zone.id, "available", "vcpu", -1)

    monkeypatch.setattr(ResourceZone, "check_conservation", broken)
    assert main(["run", scenario_file(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "internal error: ConservationError: zone zone-a: available vcpu is -1"]
    assert "Traceback" not in captured.out + captured.err


def test_an_unlabelled_inventory_error_exits_four(tmp_path, capsys,
                                                  monkeypatch):
    # An operation fails only at the step of a zone write; any other
    # InventoryError, here a VNF record write, is a fault of the program.
    def broken(*args, **kwargs):
        raise IllegalTransitionError("injected fault")

    monkeypatch.setattr(nsscale.simulator, "record_vnf_info_update", broken)
    with pytest.raises(IllegalTransitionError):
        run_dict(sc.sample_scenario(workload=sc.jump_workload()))
    assert main(["run", scenario_file(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "internal error: IllegalTransitionError: injected fault"]


@pytest.mark.parametrize("command", [["run"], ["explain", "--at", "10"]])
@pytest.mark.parametrize("record, problem", [
    ([12, "vnf-nope", "congestion", "high"],
     "subject 'vnf-nope' is neither a VNFD of the NSD nor a VNF instance"),
    ([12, "vnfd-b", "bogus", "high"],
     "indicator 'bogus' not declared in VNFD 'vnfd-b'"),
])
def test_unknown_indicator_record_exits_one(tmp_path, capsys, command,
                                            record, problem):
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["indicators"] = [
        [11, "vnfd-b", "congestion", "low"], record]
    path = scenario_file(tmp_path, scenario)
    assert main([command[0], path] + command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "workload: indicators[1] at tick 12: %s" % problem]
    assert captured.err == ""


@pytest.mark.parametrize("command", [["run"], ["explain", "--at", "10"]])
@pytest.mark.parametrize("record", [
    [10, "vnfd-zz", "cpu_load", 0.5],  # no such subject
    [10, "vnfd-a", "cpu_load", 0.5],  # a VNFD of the NSD, not monitored
    [10, "vnfd-b", "cpu_lod", 0.5],  # a monitored subject, not this name
])
def test_unmonitored_metric_record_exits_one(tmp_path, capsys, command,
                                             record):
    scenario = sc.sample_scenario(workload={"metrics": [record],
                                            "indicators": []})
    path = scenario_file(tmp_path, scenario)
    assert main([command[0], path] + command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "workload: metrics[0] at tick 10: metric %r of subject %r is not "
        "monitored by NSD 'nsd-1'" % (record[2], record[1])]
    assert captured.err == ""


@pytest.mark.parametrize("command", [["run"], ["explain", "--at", "10"]])
@pytest.mark.parametrize("kind, record, problem", [
    ("metrics", [5, "vnfd-zz", "cpu_load", 0.5],
     "metric 'cpu_load' of subject 'vnfd-zz' is not monitored by NSD "
     "'nsd-1'"),
    ("indicators", [5, "vnf-nope", "congestion", "high"],
     "subject 'vnf-nope' is neither a VNFD of the NSD nor a VNF instance"),
])
def test_a_record_delivered_out_of_file_order_is_named_by_its_place(
        tmp_path, capsys, command, kind, record, problem):
    """The bad record is the second of its kind in the file and the first
    record delivered, and metrics precede indicators in the file: its
    error names its own place in its own list."""
    workload = {"metrics": [[12, "vnfd-b", "cpu_load", 0.5]],
                "indicators": [[11, "vnfd-b", "congestion", "low"]]}
    workload[kind].append(record)
    path = scenario_file(tmp_path, sc.sample_scenario(workload=workload))
    assert main([command[0], path] + command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "workload: %s[1] at tick 5: %s" % (kind, problem)]
    assert captured.err == ""


@pytest.mark.parametrize("at, status, out", [
    ("30", 0, "tick 30: action: none"),
    ("31", 1, "tick 31 is beyond the workload horizon (30)"),
])
def test_explain_takes_the_horizon_from_the_latest_tick(tmp_path, capsys,
                                                       at, status, out):
    """The last record in file order, an indicator, is not the latest."""
    workload = sc.jump_workload()
    workload["indicators"] = [[30, "vnfd-b", "congestion", "low"],
                              [12, "vnfd-b", "congestion", "high"]]
    path = scenario_file(tmp_path, sc.sample_scenario(workload=workload))
    assert main(["explain", path, "--at", at]) == status
    assert capsys.readouterr().out.splitlines() == [out]


@pytest.mark.parametrize("tick, status", [(75, 0), (65, 1)])
def test_indicator_subject_is_a_vnf_instance_of_its_tick(tmp_path, capsys,
                                                        tick, status):
    # the tick-70 load adds vnf-p-b-4 on the way to level-4
    scenario = sc.sample_scenario(workload=sc.escalation_workload())
    scenario["workload"]["indicators"] = [[tick, "vnf-p-b-4", "congestion",
                                           "high"]]
    assert main(["run", scenario_file(tmp_path, scenario)]) == status
    out = capsys.readouterr().out
    assert ("final ns-il: level-4" in out) == (status == 0)
