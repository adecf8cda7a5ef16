"""Value-generated additive subgroups, checked against an independent
set-based closure (plain Python sets, no bitmask machinery).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.combinatorics import config_count, verify_difference_free
from ringlab.errors import NotASubgroup, ParseError
from ringlab.paley import build_paley, uniformity_measure
from ringlab.polynomials import RingPoly
from ringlab.rings import element_set, make_ring
from ringlab.subgroups import (
    SubgroupSet,
    constant_in_subgroup,
    from_elements,
    from_generators,
    full_subgroup,
    trivial_subgroup,
    value_subgroup,
)


def closure_oracle(ring, gens):
    """Additive closure by plain BFS over Python sets."""
    out = {0}
    frontier = [0]
    gens = sorted({int(g) for g in gens} | {0})
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ring.add(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return sorted(out)


@pytest.mark.parametrize(
    "spec,gens",
    [
        ("Z/12", [4]),
        ("Z/12", [3, 8]),
        ("GF(9)", [5]),
        ("GR(2,2,2)", [2, 7]),
        ("prod(Z/4;GF(4))", [3]),
        ("PQ(q=2;g=0,1,1)", [1, 2]),
    ],
)
def test_closure_matches_oracle(spec, gens):
    ring = make_ring(spec)
    H = from_generators(ring, gens)
    assert sorted(int(x) for x in H.elements) == closure_oracle(ring, gens)


def test_lagrange():
    ring = make_ring("Z/360")
    for g in (2, 3, 8, 45, 75):
        H = from_generators(ring, [g])
        assert ring.order % len(H) == 0
        assert H.index == ring.order // len(H)


def test_membership_bitmask():
    ring = make_ring("Z/24")
    H = from_generators(ring, [6])
    members = set(closure_oracle(ring, [6]))
    for x in range(ring.order):
        assert (x in H) == (x in members)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(
        ["Z/24", "Z/97", "GF(9)", "GF(16)", "GR(2,2,2)", "PQ(q=3;g=0,0,1)", "prod(Z/4;Z/6)"]
    ),
    data=st.data(),
)
def test_membership_matches_the_element_set(spec, data):
    """Membership agrees with the element set, also just outside the index
    range on both sides."""
    ring = make_ring(spec)
    n = ring.order
    gens = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="gens")
    for H in (from_generators(ring, gens), trivial_subgroup(ring), full_subgroup(ring)):
        members = set(H.elements)
        assert not H.elements.flags.writeable and not H.generators.flags.writeable
        for x in range(-3, n + 3):
            assert (x in H) == (x in members)


def test_value_subgroup_x2_on_dual_numbers():
    """Squares in F_2[t]/(t^2) land in {0, 1}: index 2."""
    ring = make_ring("PQ(q=2;g=0,0,1)")
    P = RingPoly.make(ring, (0, 0, 1))
    H = value_subgroup(ring, P)
    assert len(H) == 2
    assert H.index == 2
    assert sorted(H.elements) == [0, 1]


def test_constant_outside_subgroup_on_dual_numbers():
    """P = x^2 + t: values minus P(0) generate {0,1} but P(0) = t is not
    in it."""
    ring = make_ring("PQ(q=2;g=0,0,1)")
    t = ring.from_digits((0, 1))
    P = RingPoly.make(ring, (t, 0, 1))
    assert not constant_in_subgroup(ring, P)


def test_value_subgroup_x2_on_z5_is_full():
    ring = make_ring("Z/5")
    P = RingPoly.make(ring, (0, 0, 1))
    H = value_subgroup(ring, P)
    assert H.is_full
    assert len(H) == 5


def test_subtract_constant_invariance():
    """Shifting a polynomial by a constant leaves the recentred value
    subgroup unchanged."""
    ring = make_ring("Z/16")
    P = RingPoly.make(ring, (0, 0, 1))
    Q = RingPoly.make(ring, (7, 0, 1))
    assert sorted(value_subgroup(ring, P).elements) == sorted(
        value_subgroup(ring, Q).elements
    )


def test_raw_value_subgroup_differs_when_constant_outside():
    ring = make_ring("PQ(q=2;g=0,0,1)")
    t = ring.from_digits((0, 1))
    P = RingPoly.make(ring, (t, 0, 1))
    recentred = value_subgroup(ring, P, subtract_constant=True)
    raw = value_subgroup(ring, P, subtract_constant=False)
    assert len(raw) > len(recentred)


def test_from_elements_accepts_subgroup():
    ring = make_ring("Z/12")
    H = from_elements(ring, [0, 4, 8])
    assert len(H) == 3


def test_from_elements_rejects_non_subgroup():
    ring = make_ring("Z/12")
    with pytest.raises(NotASubgroup):
        from_elements(ring, [0, 4, 5])
    with pytest.raises(NotASubgroup):
        from_elements(ring, [4, 8])


def test_trivial_and_full():
    ring = make_ring("GF(8)")
    assert len(trivial_subgroup(ring)) == 1
    assert full_subgroup(ring).is_full
    assert trivial_subgroup(ring).index == ring.order


def test_coset_shifts_every_element():
    ring = make_ring("Z/12")
    H = from_generators(ring, [4])
    shifted = sorted(int(x) for x in H.coset(5))
    assert shifted == sorted(ring.add(int(h), 5) for h in H.elements)


def test_sample_generators_regenerate():
    ring = make_ring("GR(3,2,2)")
    P = RingPoly.make(ring, (0, 0, 1))
    H = value_subgroup(ring, P)
    gens = H.info_dict()["generators_sample"]
    again = from_generators(ring, gens)
    assert sorted(again.elements) == sorted(H.elements)


def test_value_subgroup_additive_polynomial_frobenius():
    """x^3 on GF(9) is additive with full image."""
    ring = make_ring("GF(9)")
    P = RingPoly.make(ring, (0, 0, 0, 1))
    assert value_subgroup(ring, P).is_full


def _x2(ring):
    return RingPoly.make(ring, (0, 0, ring.one))


@pytest.mark.parametrize(
    "call",
    [
        lambda: from_generators(make_ring("Z/4"), [7]),
        lambda: from_elements(make_ring("Z/4"), [0, 5]),
        lambda: from_generators(make_ring("Z/4"), [-1]),
        lambda: from_elements(make_ring("Z/4"), [0, 2, 2.7]),
        lambda: config_count(make_ring("Z/8"), _x2(make_ring("Z/8")), [0, 2.7], [1]),
        lambda: verify_difference_free(make_ring("Z/8"), _x2(make_ring("Z/8")), [0, 1.5]),
        lambda: element_set(make_ring("Z/8"), [True, 3.9]),
        lambda: element_set(make_ring("Z/13"), "12"),
        lambda: element_set(make_ring("Z/13"), np.array([1.0, 2.0])),
        lambda: uniformity_measure(
            build_paley(make_ring("Z/13"), 2), mode="explicit", pairs=[([1.5], [2])]
        ),
    ],
    ids=[
        "generator-past-the-end", "element-past-the-end", "negative-generator",
        "float-element", "float-config-set", "float-witness", "bool-and-float",
        "digit-string", "float-array", "float-uniformity-pair",
    ],
)
def test_entry_points_refuse_what_the_cli_refuses(call):
    """Every library entry point that takes a set of elements refuses, as
    the CLI does, an index out of range and an entry that is not an
    integer, where it used to raise IndexError, wrap or truncate."""
    with pytest.raises(ParseError):
        call()


def test_element_set_is_sorted_distinct_read_only_int64():
    ring = make_ring("Z/13")
    for given in ([np.int32(5), 3, np.uint8(3), 12], np.array([12, 3, 5, 3], dtype=np.uint16)):
        out = element_set(ring, given)
        assert out.dtype == np.int64 and out.tolist() == [3, 5, 12]
        assert not out.flags.writeable
    assert element_set(ring, []).tolist() == []
