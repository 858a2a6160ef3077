import pytest
from hypothesis import given, strategies as st

from nsscale.capacity import CapacityVector, DIMENSIONS, KIND_DIMENSIONS, ZERO

amounts = st.integers(min_value=-50, max_value=50)
vectors = st.builds(CapacityVector, amounts, amounts, amounts, amounts)


def test_componentwise_arithmetic():
    a = CapacityVector(2, 4, 10, 100)
    b = CapacityVector(1, 1, 5, 50)
    assert a + b == CapacityVector(3, 5, 15, 150)
    assert a - b == CapacityVector(1, 3, 5, 50)
    assert a.scaled(3) == CapacityVector(6, 12, 30, 300)


def test_covers_is_componentwise():
    big = CapacityVector(4, 8, 0, 0)
    assert big.covers(CapacityVector(4, 8))
    assert not big.covers(CapacityVector(4, 9))
    assert big.covers(ZERO)


def test_deficient_dimensions_names_the_short_ones():
    have = CapacityVector(4, 8, 10, 100)
    need = CapacityVector(5, 8, 20, 50)
    assert have.deficient_dimensions(need) == ["vcpu", "storage"]


def test_restricted_masks_foreign_dimensions():
    v = CapacityVector(2, 4, 10, 100)
    assert v.restricted("compute") == CapacityVector(vcpu=2, memory=4)
    assert v.restricted("storage") == CapacityVector(storage=10)
    assert v.restricted("network") == CapacityVector(bandwidth=100)
    with pytest.raises(KeyError):
        v.restricted("gpu")


def test_kind_dimensions_partition_the_space():
    covered = [d for dims in KIND_DIMENSIONS.values() for d in dims]
    assert sorted(covered) == sorted(DIMENSIONS)


def test_as_dict_collapses_integral_floats():
    v = CapacityVector(2.0, 4.5, 0.0, 100)
    d = v.as_dict()
    assert d["vcpu"] == 2 and isinstance(d["vcpu"], int)
    assert d["memory"] == 4.5


def test_from_dict_rejects_unknown_dimensions():
    with pytest.raises(ValueError):
        CapacityVector.from_dict({"vcpu": 1, "gpus": 2})
    assert CapacityVector.from_dict({"vcpu": 1}) == CapacityVector(vcpu=1)


@given(vectors, vectors)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(vectors, vectors)
def test_covers_iff_difference_nonnegative(a, b):
    difference = a - b
    assert a.covers(b) == all(difference.get(d) >= 0 for d in DIMENSIONS)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
mixed_vectors = st.builds(CapacityVector, *[st.one_of(amounts, finite)] * 4)


@given(mixed_vectors, mixed_vectors)
def test_direct_field_methods_match_per_dimension_definitions(a, b):
    assert a.covers(b) == all(a.get(d) >= b.get(d) for d in DIMENSIONS)
    assert a.is_zero() == all(a.get(d) == 0 for d in DIMENSIONS)
    assert a - b == CapacityVector(**{d: a.get(d) - b.get(d)
                                      for d in DIMENSIONS})
    assert a - b == a + (ZERO - b)


def by_dimension(fn, *vectors) -> CapacityVector:
    return CapacityVector(**{d: fn(*(v.get(d) for v in vectors))
                             for d in DIMENSIONS})


@given(mixed_vectors, mixed_vectors, st.lists(mixed_vectors, max_size=4),
       finite, st.sampled_from(sorted(KIND_DIMENSIONS)))
def test_arithmetic_is_componentwise_never_tuple_concatenation(a, b, vs,
                                                               factor, kind):
    kept = KIND_DIMENSIONS[kind]
    results = [
        (a + b, by_dimension(lambda x, y: x + y, a, b)),
        (a - b, by_dimension(lambda x, y: x - y, a, b)),
        (a.scaled(factor), by_dimension(lambda x: x * factor, a)),
        (a.restricted(kind),
         CapacityVector(**{d: a.get(d) for d in kept})),
        (sum(vs, ZERO), by_dimension(lambda *xs: sum(xs, 0), *vs)
         if vs else ZERO),
    ]
    for result, expected in results:
        assert type(result) is CapacityVector and len(result) == 4
        assert result == expected


def test_repr_names_every_dimension():
    assert repr(CapacityVector(1, 2.5, 0, -3)) == \
        "CapacityVector(vcpu=1, memory=2.5, storage=0, bandwidth=-3)"
