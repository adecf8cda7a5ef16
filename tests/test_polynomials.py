"""Polynomial literals and the derivational degree.

Degree collapse is about functions, not formal coefficients: x^3 on GF(2)
is the identity map, so its derivational degree is 1, and the exact search
must agree with that.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.errors import ParseError, WorkGuardExceeded
from ringlab.polynomials import (
    RingPoly,
    b_constant,
    derivational_degree,
    digit_sum,
    parse_poly_literal,
)
from ringlab.rings import make_ring


def test_parse_poly_literal_plain():
    ring = make_ring("Z/7")
    P = parse_poly_literal(ring, "0,0,1")
    assert P.coeffs == (0, 0, 1)
    assert P.degree == 2
    assert str(P) == "x^2"


def test_parse_poly_literal_negative_integers():
    ring = make_ring("Z/7")
    P = parse_poly_literal(ring, "-1,0,1")
    assert P.coeffs == (6, 0, 1)


def test_parse_poly_literal_raw_index():
    """#i injects the element with index i, bypassing integer embedding."""
    ring = make_ring("GF(4)")
    P = parse_poly_literal(ring, "#2,0,1")
    assert P.coeffs == (2, 0, 1)


def test_parse_poly_literal_rejects_garbage():
    ring = make_ring("Z/7")
    for bad in ("", "1,,2", "x^2", "#9,1"):
        with pytest.raises(ParseError):
            parse_poly_literal(ring, bad)


def test_trailing_zero_coefficients_trimmed():
    ring = make_ring("Z/7")
    P = RingPoly.make(ring, (1, 2, 0, 0))
    assert P.degree == 1
    assert P.coeffs == (1, 2)


def test_evaluate_and_values():
    ring = make_ring("Z/9")
    P = RingPoly.make(ring, (2, 0, 3, 1))
    vals = P.values()
    assert len(vals) == ring.order
    for x in range(ring.order):
        assert vals[x] == P.evaluate(x)


def test_digit_sum():
    assert digit_sum(5, 2) == 2
    assert digit_sum(9, 3) == 1
    assert digit_sum(7, 2) == 3
    assert digit_sum(0, 5) == 0


def test_b_constant_values():
    assert b_constant(2, 5) == 1
    assert b_constant(5, 3) == 9
    assert b_constant(2, 2) == 4
    assert b_constant(4, 2) == 16
    assert b_constant(6, 12) == 1


def test_ddeg_constant_is_zero():
    ring = make_ring("Z/7")
    res = derivational_degree(ring, RingPoly.make(ring, (3,)))
    assert res.k == 0
    assert res.certified


def test_ddeg_linear_is_one():
    ring = make_ring("Z/12")
    res = derivational_degree(ring, RingPoly.make(ring, (5, 1)))
    assert res.k == 1
    assert res.certified


def test_ddeg_function_collapse_on_gf2():
    """x^3 is the identity function on GF(2)."""
    ring = make_ring("GF(2)")
    res = derivational_degree(ring, RingPoly.make(ring, (0, 0, 0, 1)), mode="exact")
    assert res.k == 1
    assert res.method == "exact"


def test_ddeg_frobenius_is_additive():
    """x^p is an additive map in characteristic p, so one difference
    already lands on a constant shift."""
    for spec, e in (("GF(9)", 3), ("GF(8)", 2), ("GF(25)", 5)):
        ring = make_ring(spec)
        coeffs = (0,) * e + (ring.one,)
        res = derivational_degree(ring, RingPoly.make(ring, coeffs), mode="exact")
        assert res.k == 1, spec


def test_ddeg_x4_over_z4():
    """Composite characteristic: the base-2 digit sum of 4 is 1, but the
    exact derivational degree over Z/4 is larger. The digit-sum shortcut
    only applies in prime characteristic."""
    ring = make_ring("Z/4")
    res = derivational_degree(ring, RingPoly.make(ring, (0, 0, 0, 0, 1)), mode="exact")
    assert res.k == 2
    assert res.certified


def test_ddeg_exponent_reduction_on_field():
    """x^5 and x^2 are the same function on GF(4)."""
    ring = make_ring("GF(4)")
    res5 = derivational_degree(ring, RingPoly.make(ring, (0, 0, 0, 0, 0, 1)))
    res2 = derivational_degree(ring, RingPoly.make(ring, (0, 0, 1)))
    assert res5.k == res2.k == 1


def test_ddeg_exact_matches_digit_sum_on_prime_fields():
    """On a prime-characteristic field the monomial degree is the base-p
    digit sum of the exponent (exponents below q so no function collapse)."""
    cases = (("GF(8)", 6, 2), ("GF(9)", 4, 2), ("GF(25)", 6, 2), ("GF(27)", 13, 3))
    for spec, e, want in cases:
        ring = make_ring(spec)
        coeffs = (0,) * e + (ring.one,)
        res = derivational_degree(ring, RingPoly.make(ring, coeffs), mode="exact")
        assert res.k == want == digit_sum(e, ring.characteristic), spec


def test_ddeg_small_degree_certified_without_search():
    """d below the least prime factor of the characteristic pins k = d."""
    ring = make_ring("Z/35")
    res = derivational_degree(ring, RingPoly.make(ring, (0, 0, 1)), mode="bound")
    assert res.k == 2
    assert res.certified
    assert res.method == "degree"


def test_ddeg_bound_mode_prime_char_is_uncertified():
    ring = make_ring("GF(8)")
    P = RingPoly.make(ring, (0, 0, 0, 0, 0, 0, 1))
    res = derivational_degree(ring, P, mode="bound")
    assert res.k == digit_sum(6, 2) == 2
    assert not res.certified
    assert res.method == "digit-sum"


def test_ddeg_bound_agrees_with_exact_on_catalog():
    """The bound branch never undershoots the exact value on small rings
    (it may overshoot only where it says so by leaving certified unset)."""
    rng_specs = ("Z/8", "Z/9", "GF(4)", "GF(9)", "PQ(q=2;g=0,0,1)")
    polys = ((0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 1, 1), (1, 0, 0, 0, 1))
    for spec in rng_specs:
        ring = make_ring(spec)
        for coeffs in polys:
            P = RingPoly.make(ring, coeffs)
            exact = derivational_degree(ring, P, mode="exact")
            bound = derivational_degree(ring, P, mode="bound")
            if bound.certified:
                assert bound.k == exact.k, (spec, coeffs)
            else:
                assert bound.k >= exact.k, (spec, coeffs)


def all_direction_ddeg(ring, P) -> int:
    """Test oracle for orders up to 64: the least k such that every
    (k+1)-fold difference of P vanishes, over every tuple of nonzero
    directions, deduplicating difference tables at each depth. The package
    searches the additive basis instead; this walks all n - 1 directions."""
    shifts = [ring.add_vec(np.arange(ring.order), v) for v in range(1, ring.order)]
    values = P.values()
    frontier = {values.tobytes(): values}
    k = 0
    while True:
        active = [g for g in frontier.values() if not (g == g[0]).all()]
        if not active:
            return k
        frontier = {}
        for shift in shifts:
            for g in active:
                child = ring.sub_vec(g[shift], g)
                if child.any():
                    frontier[child.tobytes()] = child
        k += 1


# Rings of order at most 64 for each of the five constructors.
ORACLE_RINGS = {
    "Z": ("Z/8", "Z/9", "Z/12", "Z/13", "Z/35"),
    "GF": ("GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)"),
    "GR": ("GR(2,2,2)", "GR(3,2,1)", "GR(2,3,2)"),
    "PQ": ("PQ(q=2;g=0,0,1)", "PQ(q=2;g=0,1,1)", "PQ(q=3;g=0,0,1)", "PQ(q=4;g=0,0,1)"),
    "prod": ("prod(Z/4;GF(4))", "prod(Z/3;GF(4))", "prod(Z/5;Z/7)"),
}


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_basis_search_matches_all_directions(family, data):
    spec = data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring")
    ring = make_ring(spec)
    coeffs = data.draw(
        st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=5),
        label="coeffs",
    )
    P = RingPoly.make(ring, coeffs)
    res = derivational_degree(ring, P, mode="exact")
    assert res.certified and res.method == "exact"
    assert res.k == all_direction_ddeg(ring, P)


@pytest.mark.parametrize(
    "spec, coeffs, want",
    [
        ("GF(4)", (0, 0, 0, 0, 1), 1),  # x^4 = x as functions on GF(4)
        ("Z/4", (0, 0, 0, 0, 1), 2),
        ("GF(8)", (0, 0, 0, 0, 0, 0, 0, 0, 1), 1),  # x^8 = x on GF(8)
        ("prod(GF(4);GF(9))", (0, 1, 1, 0, 1), 2),
    ],
)
def test_ddeg_below_degree(spec, coeffs, want):
    """Cases where the functional degree falls below deg P."""
    ring = make_ring(spec)
    P = RingPoly.from_int_coeffs(ring, coeffs)
    assert P.degree > want
    assert derivational_degree(ring, P, mode="exact").k == want
    assert all_direction_ddeg(ring, P) == want


def test_ddeg_exact_guard_counts_basis_differences(monkeypatch):
    """Certifying k costs n * C(k + r, r) work when no difference vanishes
    early (x^3 on GF(8): r = 3 generators, k = 2); one unit less refuses."""
    ring = make_ring("GF(8)")
    P = RingPoly.make(ring, (0, 0, 0, 1))
    r, k = len(ring.additive_orders()), 2
    need = ring.order * math.comb(k + r, r)
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(need))
    assert derivational_degree(ring, P, mode="exact").k == k
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(need - 1))
    with pytest.raises(WorkGuardExceeded):
        derivational_degree(ring, P, mode="exact")


def test_ddeg_certified_on_gf4096():
    """x^3 + x^5 + x^7 on GF(4096): twelve generators, certified k = 3."""
    ring = make_ring("GF(4096)")
    P = RingPoly.make(ring, (0, 0, 0, 1, 0, 1, 0, 1))
    res = derivational_degree(ring, P)
    assert (res.k, res.method, res.certified) == (3, "exact", True)


def test_ddeg_exact_mode_respects_guard(monkeypatch):
    ring = make_ring("Z/128")
    P = RingPoly.make(ring, (0, 0, 0, 0, 1))
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "100")
    with pytest.raises(WorkGuardExceeded):
        derivational_degree(ring, P, mode="exact")


def test_ddeg_auto_falls_back_to_bound_under_guard(monkeypatch):
    ring = make_ring("Z/128")
    P = RingPoly.make(ring, (0, 0, 0, 0, 1))
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "100")
    res = derivational_degree(ring, P, mode="auto")
    assert res.k >= 1
    assert res.method in ("degree", "digit-sum")


def test_monomials_and_constant_term():
    ring = make_ring("Z/7")
    P = RingPoly.make(ring, (3, 0, 2))
    assert P.constant_term() == 3
    assert P.monomials() == [(0, 3), (2, 2)]
