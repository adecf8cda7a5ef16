"""Every value derived from a ring lives in that ring's memo: it is built
once per ring and key, stored read-only when it is an array, and dies with
the ring. No cache outside the ring holds a ring alive or hands one ring's
values to another ring with the same spec, and nothing in the memo refers
back to the ring, so reference counting frees a ring as soon as its last
user drops it.
"""

import gc
import weakref

import numpy as np
import pytest

from ringlab.characters import character_group
from ringlab.harmonics import character_bound_check, random_functions, te_estimate
from ringlab.paley import build_paley, spectrum
from ringlab.polynomials import RingPoly
from ringlab.rings import make_ring
from ringlab.subgroups import value_subgroup

SPECS = ("Z/12", "GF(8)", "GR(2,2,2)", "PQ(q=2;g=0,0,1)", "prod(Z/4;GF(4))")


def _use_every_layer(ring):
    P = RingPoly.from_int_coeffs(ring, (0, 0, 1))
    character_bound_check(ring, P)
    te_estimate(ring, P, random_functions(ring, 2, 1), seed=1)
    spectrum(build_paley(ring, 3))
    ring.add_table(range(ring.order))


@pytest.mark.parametrize("spec", SPECS)
def test_ring_dies_with_its_derived_values(spec):
    ring = make_ring(spec)
    _use_every_layer(ring)
    ref = weakref.ref(ring)
    gc.disable()
    try:
        del ring
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", SPECS)
def test_character_group_belongs_to_its_own_ring(spec):
    r1, r2 = make_ring(spec), make_ring(spec)
    assert r1 == r2 and r1 is not r2
    assert character_group(r1).ring is r1
    assert character_group(r2).ring is r2
    assert character_group(r2) is not character_group(r1)
    assert character_group(r1).unit_table is character_group(r1).unit_table


@pytest.mark.parametrize("spec", SPECS)
def test_value_subgroup_is_built_once_per_ring(spec):
    ring = make_ring(spec)
    P = RingPoly.from_int_coeffs(ring, (1, 0, 1))
    H = value_subgroup(ring, P)
    again = value_subgroup(ring, P)
    assert again == H and again.elements is H.elements
    assert value_subgroup(ring, P, subtract_constant=False).elements is not H.elements
    other = make_ring(spec)
    assert value_subgroup(other, RingPoly.from_int_coeffs(other, (1, 0, 1))).ring is other


def test_memo_builds_once_and_freezes_arrays():
    ring = make_ring("Z/10")
    calls = []

    def build():
        calls.append(1)
        return np.arange(4)

    first = ring.memo(("test", 1), build)
    assert ring.memo(("test", 1), build) is first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first[0] = 7
    assert ring.memo(("test", 2), build) is not first
    assert len(calls) == 2


def test_modulus_factors_are_kept_on_the_ring():
    ring = make_ring("PQ(q=2;g=0,0,1,1)")
    factors = ring.modulus_factors()
    assert factors == ((((0, 1), 2), ((1, 1), 1)))
    assert ring.modulus_factors() is factors
