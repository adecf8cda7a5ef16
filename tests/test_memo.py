"""Every value derived from a ring lives in that ring's memo: it is built
once per ring and key, stored read-only when it is an array or a tuple of
arrays, and dies with the ring. That covers the value table of each
polynomial, which every layer reads through `RingPoly.values`. No cache outside the ring holds a ring
alive or hands one ring's values to another ring with the same spec, and
nothing in the memo refers back to the ring, so reference counting frees a
ring as soon as its last user drops it. The three process-wide memos,
`canonical_irreducible`, the GF(p^e) log tables `field_log_tables` and the
reduction matrix `_reduction_matrix` of GR and PQ over GF(p), are
functions of (p, e), (p, e, h) and (characteristic, modulus) alone and
hold no ring.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from poly_oracle import from_int_coeffs

from ringlab.characters import character_group
from ringlab.harmonics import character_bound_check, random_functions, te_estimate
from ringlab.paley import build_paley, spectrum
from ringlab.polynomials import RingPoly
from ringlab.rings import Ring, field_log_tables, make_ring
from ringlab.subgroups import value_subgroup

SPECS = ("Z/12", "GF(8)", "GR(2,2,2)", "PQ(q=2;g=0,0,1)", "prod(Z/4;GF(4))")


def _use_every_layer(ring):
    P = from_int_coeffs(ring, (0, 0, 1))
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


@pytest.mark.parametrize("spec", ("GR(2,2,2)", "GR(3,2,2;f=2,2,1)", "PQ(q=2;g=0,0,1)", "PQ(q=4;g=1,0,1)"))
def test_reduction_data_is_shared_by_rings_of_one_spec(spec):
    """GR and PQ over GF(p) rings of one spec read one read-only reduction
    matrix, built once per process; PQ over GF(p^e) builds none and reads
    its field's one table pair. Each ring still dies with its last user."""
    r1, r2 = make_ring(spec), make_ring(spec)
    assert r1 is not r2
    if spec == "PQ(q=4;g=1,0,1)":
        assert not hasattr(r1, "_L") and not hasattr(r2, "_L")
        tables = field_log_tables(2, 2, r1.base.defining)
        assert field_log_tables(2, 2, r2.base.defining) is tables
        assert int(r1.mul_vec(2, 3)) == r2.mul(2, 3)
    else:
        assert r1._L is r2._L and not r1._L.flags.writeable
    ref = weakref.ref(r1)
    gc.disable()
    try:
        del r1
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
    P = from_int_coeffs(ring, (1, 0, 1))
    H = value_subgroup(ring, P)
    again = value_subgroup(ring, P)
    assert again.elements is H.elements and again.generators is H.generators
    assert not H.elements.flags.writeable and not H.generators.flags.writeable
    assert value_subgroup(ring, P, subtract_constant=False).elements is not H.elements
    other = make_ring(spec)
    assert value_subgroup(other, from_int_coeffs(other, (1, 0, 1))).ring is other


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


@pytest.mark.parametrize("spec", SPECS)
def test_value_table_is_built_once_per_ring_and_polynomial(spec, monkeypatch):
    """Every layer that needs P(R) reads one table: a whole bound check
    evaluates each polynomial once per ring, the table is read-only, another
    polynomial or another ring of the same spec gets its own, and the ring
    still dies with its last user."""
    evaluated = []
    eval_poly_vec = Ring.eval_poly_vec
    monkeypatch.setattr(
        Ring, "eval_poly_vec",
        lambda ring, coeffs, xs: evaluated.append((ring.spec_string(), coeffs))
        or eval_poly_vec(ring, coeffs, xs),
    )
    ring = make_ring(spec)
    P = from_int_coeffs(ring, (1, 0, 1))
    character_bound_check(ring, P)
    value_subgroup(ring, P, subtract_constant=False)
    values = P.values()
    assert evaluated == [(spec, P.coeffs)]
    assert RingPoly(ring, P.coeffs).values() is values
    with pytest.raises(ValueError):
        values[0] = 1
    Q = from_int_coeffs(ring, (0, 0, 0, 1))
    assert Q.values() is not values and len(evaluated) == 2
    other = make_ring(spec)
    again = RingPoly(other, P.coeffs).values()
    assert again is not values and (again == values).all() and len(evaluated) == 3
    ref = weakref.ref(ring)
    gc.disable()
    try:
        del ring, P, Q
        assert ref() is None
    finally:
        gc.enable()


def test_memoised_value_subgroup_is_two_small_arrays():
    """The memo keeps the value subgroup of x^3 on Z/65536, all of the ring,
    as int64 arrays: its 512 KB of elements and a short basis. As a tuple
    of Python ints it kept 2.49 MB."""
    ring = make_ring("Z/65536")
    P = from_int_coeffs(ring, (0, 0, 0, 1))
    P.values()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert value_subgroup(ring, P).is_full
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
