import pytest
from hypothesis import given, strategies as st

import broken_descriptors
import sample_catalog as sc
from nsscale.capacity import CapacityVector
from nsscale.descriptors import (
    CLASS_ADD_VNF, CLASS_NONE, CLASS_REMOVE_VNF, CLASS_VNF_SCALING,
    CatalogSyntaxError, DuplicateIdentifierError, UnknownLevelError,
    aggregate_capacity, load_catalog, ns_il_delta, validate_catalog,
    vdu_capacity, vnf_il_capacity,
)


def test_sample_catalog_loads_and_validates(catalog):
    assert set(catalog.nsds) == {"nsd-1"}
    assert set(catalog.vnfds) == {"vnfd-a", "vnfd-b", "vnfd-c"}
    report = validate_catalog(catalog)
    assert not report.issues, report.sorted_lines()


def test_load_rejects_unknown_kind():
    with pytest.raises(CatalogSyntaxError):
        load_catalog([{"kind": "mystery", "id": "x"}])


def test_load_rejects_missing_fields():
    with pytest.raises(CatalogSyntaxError) as err:
        load_catalog([{"kind": "vnfd"}])
    assert "id" in str(err.value)


def test_load_rejects_duplicate_ids(documents):
    with pytest.raises(DuplicateIdentifierError):
        load_catalog(documents + [documents[1]])


def test_load_rejects_bad_rule_text(documents):
    documents[-1]["auto_scaling_rules"][0]["text"] = "WHEN THEN scale_out"
    with pytest.raises(CatalogSyntaxError) as err:
        load_catalog(documents)
    assert "r-out" in str(err.value)


def test_direction_hint_defaults_from_action(catalog):
    rules = {r.id: r for r in catalog.nsds["nsd-1"].auto_scaling_rules}
    assert rules["r-out"].direction_hint == "scale-out"
    assert rules["r-in"].direction_hint == "scale-in"


def test_vdu_capacity_sums_compute_and_storage(catalog):
    vnfd = catalog.vnfds["vnfd-b"]
    assert vdu_capacity(vnfd, "vdu-1") == CapacityVector(2, 4, 10, 0)
    assert vdu_capacity(vnfd, "vdu-2") == CapacityVector(8, 16, 20, 0)


def test_vnf_il_capacity(catalog):
    vnfd = catalog.vnfds["vnfd-b"]
    flavor = vnfd.flavor("f1")
    assert vnf_il_capacity(vnfd, flavor.il("il-1")) == CapacityVector(4, 8, 20, 0)
    assert vnf_il_capacity(vnfd, flavor.il("il-3")) == CapacityVector(10, 20, 30, 0)


def test_unknown_level_raises(catalog):
    flavor = catalog.vnfds["vnfd-b"].flavor("f1")
    with pytest.raises(UnknownLevelError):
        flavor.il("il-99")


def test_aggregate_capacity_matches_hand_computed_table(catalog, flavor):
    for level, expected in sc.LEVEL_AGGREGATES.items():
        got = aggregate_capacity(catalog, flavor, level)
        assert got.as_dict() == expected, level


def test_profile_delta_vnfc_add_and_remove(catalog, flavor):
    # p-b moves from VNF level il-1 to il-3 in place
    [delta] = ns_il_delta(catalog, flavor, "level-1",
                          "level-3").profile_deltas
    assert delta.vnfc_add == {"vdu-2": 1}
    assert delta.vnfc_remove == {"vdu-1": 1}
    # p-b stays at il-3 and gains an instance
    [same] = ns_il_delta(catalog, flavor, "level-3",
                         "level-4").profile_deltas
    assert same.vnfc_add == same.vnfc_remove == {}


def test_ns_il_delta_from_the_empty_level(catalog, flavor):
    delta = ns_il_delta(catalog, flavor, None, "level-2")
    assert [(d.profile_id, d.from_il, d.to_il, d.count_delta, d.retained)
            for d in delta.profile_deltas] == [
        ("p-a", None, "il-1", 1, 0), ("p-b", None, "il-2", 1, 0),
        ("p-c", None, "il-1", 1, 0)]
    assert all(d.vnfc_add == d.vnfc_remove == {}
               for d in delta.profile_deltas)
    assert delta.vl_changes == {"vlp-1": (0, 200)}


def test_ns_il_delta_classifications(catalog, flavor):
    expect = {
        ("level-1", "level-2"): CLASS_VNF_SCALING,
        ("level-1", "level-3"): CLASS_VNF_SCALING,
        ("level-2", "level-3"): CLASS_VNF_SCALING,
        ("level-3", "level-4"): CLASS_ADD_VNF,
        ("level-4", "level-3"): CLASS_REMOVE_VNF,
        ("level-2", "level-1"): CLASS_VNF_SCALING,
    }
    for (src, dst), cls in expect.items():
        delta = ns_il_delta(catalog, flavor, src, dst)
        assert delta.classification == cls, (src, dst)
    assert ns_il_delta(catalog, flavor, "level-2", "level-2"
                       ).classification == CLASS_NONE


def test_ns_il_delta_vl_changes(catalog, flavor):
    delta = ns_il_delta(catalog, flavor, "level-1", "level-3")
    assert delta.vl_changes == {"vlp-1": (100, 400)}


levels = st.sampled_from(sc.LEVELS)


@given(levels, levels)
def test_delta_net_is_antisymmetric(a, b):
    catalog = load_catalog(sc.sample_documents())
    flavor = catalog.nsds["nsd-1"].flavor("df-1")
    fwd = ns_il_delta(catalog, flavor, a, b)
    back = ns_il_delta(catalog, flavor, b, a)
    fwd_cap = aggregate_capacity(catalog, flavor, b) - \
        aggregate_capacity(catalog, flavor, a)
    back_cap = aggregate_capacity(catalog, flavor, a) - \
        aggregate_capacity(catalog, flavor, b)
    assert aggregate_capacity(catalog, flavor, a) + fwd_cap == \
        aggregate_capacity(catalog, flavor, b)
    assert (back_cap + fwd_cap).is_zero()
    if a == b:
        assert fwd.classification == CLASS_NONE and not fwd.profile_deltas
    else:
        assert {d.profile_id for d in fwd.profile_deltas} == \
            {d.profile_id for d in back.profile_deltas}


@pytest.mark.parametrize(
    "name,documents,kind,path,message",
    broken_descriptors.broken_corpus(),
    ids=[c[0] for c in broken_descriptors.broken_corpus()])
def test_broken_descriptor_yields_exactly_one_entry(name, documents, kind,
                                                    path, message):
    report = validate_catalog(load_catalog(documents))
    assert len(report.issues) == 1, report.sorted_lines()
    issue = report.issues[0]
    assert issue.kind == kind
    assert issue.path == path
    assert message in issue.message


def _nsd(documents) -> dict:
    return documents[-1]


def _ns_flavor(documents) -> dict:
    return _nsd(documents)["flavors"][0]


def _twin(items: list):
    items.append(dict(items[0]))


def _internal_vld(documents):
    flavor = {"id": "f", "latency": 1, "jitter": -1, "reliability_class": 1}
    documents[1]["internal_vlds"] = [
        {"id": "ivl", "flavors": [flavor, dict(flavor, jitter=0)]}]


def _twin_internal_vld(documents):
    vld = {"id": "ivl", "flavors": [
        {"id": "f", "latency": 1, "jitter": 0, "reliability_class": 1}]}
    documents[1]["internal_vlds"] = [vld, dict(vld)]


@pytest.mark.parametrize("edit, lines", [
    (lambda d: _nsd(d)["vnffgd_refs"].append("fg-x"),
     ["dangling-ref nsd:nsd-1/vnffgd_refs: unknown VNFFGD 'fg-x'"]),
    (lambda d: d[4]["vld_refs"].append("vld-x"),
     ["dangling-ref vnffgd:fg-1/vld_refs: unknown VLD 'vld-x'"]),
    (lambda d: _nsd(d)["monitored_info"][0].update(subject="vnfd-x"),
     ["dangling-ref nsd:nsd-1/monitored_info/m-cpu: unknown subject VNFD "
      "'vnfd-x'"]),
    (lambda d: _nsd(d)["monitored_info"][4].update(subject="vnfd-x"),
     ["dangling-ref nsd:nsd-1/monitored_info/m-cong: unknown subject VNFD "
      "'vnfd-x'"]),
    (lambda d: _nsd(d)["monitored_info"][0].update(collection_period=-1),
     ["range nsd:nsd-1/monitored_info/m-cpu: collection_period must be "
      ">= 0"]),
    (lambda d: _ns_flavor(d)["vnf_profiles"][0].update(vnfd_ref="vnfd-x"),
     ["dangling-ref nsd:nsd-1/flavors/df-1/vnf_profiles/p-a: unknown VNFD "
      "'vnfd-x'"]),
    (lambda d: _ns_flavor(d)["vnf_profiles"][0].update(vnf_flavor_ref="f9"),
     ["dangling-ref nsd:nsd-1/flavors/df-1/vnf_profiles/p-a: unknown VNF "
      "flavor 'f9'"]),
    (lambda d: _ns_flavor(d)["vl_profiles"][0].update(vld_ref="vld-x"),
     ["dangling-ref nsd:nsd-1/flavors/df-1/vl_profiles/vlp-1: unknown VLD "
      "'vld-x'"]),
    (lambda d: _ns_flavor(d)["vl_profiles"][0].update(vl_flavor_ref="vlf-x"),
     ["dangling-ref nsd:nsd-1/flavors/df-1/vl_profiles/vlp-1: unknown VL "
      "flavor 'vlf-x'"]),
    (_internal_vld,
     ["duplicate-id vnfd:vnfd-b/internal_vlds/ivl/flavors/f: duplicate VL "
      "flavor id",
      "range vnfd:vnfd-b/internal_vlds/ivl/flavors/f: jitter must be >= 0"]),
    (lambda d: _twin(d[0]["flavors"]),
     ["duplicate-id vnfd:vnfd-a/flavors/f1: duplicate VNF flavor id"]),
    (lambda d: _twin(d[0]["flavors"][0]["ils"]),
     ["duplicate-id vnfd:vnfd-a/flavors/f1/ils/il-1: duplicate VNF-IL id"]),
    (lambda d: _twin(_nsd(d)["flavors"]),
     ["duplicate-id nsd:nsd-1/flavors/df-1: duplicate NS flavor id"]),
    (lambda d: _twin(_ns_flavor(d)["vnf_profiles"]),
     ["duplicate-id nsd:nsd-1/flavors/df-1/vnf_profiles/p-a: duplicate VNF "
      "profile id"]),
    (lambda d: _twin(_ns_flavor(d)["vl_profiles"]),
     ["duplicate-id nsd:nsd-1/flavors/df-1/vl_profiles/vlp-1: duplicate VL "
      "profile id"]),
    (lambda d: _twin(_ns_flavor(d)["ns_ils"]),
     ["duplicate-id nsd:nsd-1/flavors/df-1/ns_ils/level-1: duplicate NS-IL "
      "id"]),
    (lambda d: _twin(_nsd(d)["auto_scaling_rules"]),
     ["duplicate-id nsd:nsd-1/auto_scaling_rules/r-out: duplicate rule id"]),
    (lambda d: _twin(_nsd(d)["monitored_info"]),
     ["duplicate-id nsd:nsd-1/monitored_info/m-cpu: duplicate monitored "
      "item id"]),
    (lambda d: _twin(d[0]["vcds"]),
     ["duplicate-id vnfd:vnfd-a/vcds/vcd-1: duplicate VCD id"]),
    (lambda d: _twin(d[1]["vsds"]),
     ["duplicate-id vnfd:vnfd-b/vsds/vsd-small: duplicate VSD id"]),
    (_twin_internal_vld,
     ["duplicate-id vnfd:vnfd-b/internal_vlds/ivl: duplicate internal VLD "
      "id"]),
    (lambda d: _nsd(d).update(flavors=[]),
     ["cardinality nsd:nsd-1: NSD must declare at least one flavor"]),
], ids=["vnffgd-ref", "vnffgd-vld-ref", "metric-subject", "indicator-subject",
        "collection-period", "profile-vnfd", "profile-vnf-flavor",
        "vl-profile-vld", "vl-profile-flavor", "internal-vld",
        "twin-vnf-flavor", "twin-vnf-il", "twin-ns-flavor", "twin-profile",
        "twin-vl-profile", "twin-ns-il", "twin-rule", "twin-monitored-item",
        "twin-vcd", "twin-vsd", "twin-internal-vld", "no-ns-flavor"])
def test_a_well_shaped_catalog_is_checked_against_itself(edit, lines):
    """References, ranges and ids that the shapes cannot see: each fault
    is one report line."""
    documents = sc.sample_documents()
    edit(documents)
    assert validate_catalog(load_catalog(documents)).sorted_lines() == lines
