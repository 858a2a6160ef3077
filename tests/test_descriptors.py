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
