"""Exponential sums, the power bound, the ergodic average estimate, van der
Corput, and root counts. Frozen constants here were computed by hand from
the value multiset (for example 3x^2 on Z/9 takes the value 0 three times
and 3 six times, giving |S|^2 = 1/3 at the fundamental character).
"""

import numpy as np
import pytest

from ringlab.errors import WorkGuardExceeded, ZeroPolynomial
from ringlab.harmonics import (
    character_bound_check,
    exp_sum,
    exp_sums_all,
    random_functions,
    root_count_bound_check,
    te_estimate,
    te_sweep,
    vdc_check,
)
from ringlab.polynomials import RingPoly
from ringlab.rings import make_ring
from ringlab.subgroups import from_generators, full_subgroup, trivial_subgroup


def test_exp_sums_all_matches_single():
    ring = make_ring("Z/13")
    P = RingPoly.make(ring, (0, 0, 1))
    batch = exp_sums_all(ring, P)
    for p in range(ring.order):
        assert batch[p] == pytest.approx(exp_sum(ring, P, p), abs=1e-12)


def test_gauss_tight_instances():
    """Quadratic sums over prime fields meet the power bound exactly:
    max nontrivial |S|^2 = 1/p."""
    for p in (5, 13, 17, 29):
        ring = make_ring(f"Z/{p}")
        rep = character_bound_check(ring, RingPoly.make(ring, (0, 0, 1)))
        assert rep.k == 2
        assert rep.max_checked_modulus**2 == pytest.approx(1 / p, abs=1e-9)
        assert rep.power_bound == pytest.approx(1 / p, abs=1e-12)
        assert rep.bound_satisfied


@pytest.mark.parametrize(
    "spec,coeffs,squared",
    [
        ("Z/4", (0, 0, 1), 0.5),
        ("Z/9", (0, 0, 3), 1 / 3),
        ("Z/8", (0, 0, 2), 0.5),
    ],
)
def test_frozen_checked_moduli(spec, coeffs, squared):
    ring = make_ring(spec)
    rep = character_bound_check(ring, RingPoly.make(ring, coeffs))
    assert rep.max_checked_modulus**2 == pytest.approx(squared, abs=1e-9)
    assert rep.bound_satisfied


def test_annihilator_characters_have_unit_modulus():
    """Characters trivial on H see the recentred polynomial as constant 1;
    they are exempt from the bound and reported separately."""
    ring = make_ring("Z/9")
    rep = character_bound_check(ring, RingPoly.make(ring, (0, 0, 3)))
    assert rep.subgroup_size == 3
    assert rep.annihilator_size == 3
    assert rep.checked_characters == ring.order - rep.annihilator_size
    assert rep.annihilator_max_error < 1e-9
    assert rep.max_nontrivial_modulus == pytest.approx(1.0, abs=1e-9)


def test_additive_polynomial_sums_vanish():
    """k = 1 forces S(chi, P) = 0 outside the annihilator, not merely
    small: the average over a coset of a nontrivial character is zero."""
    ring = make_ring("GF(9)")
    rep = character_bound_check(ring, RingPoly.make(ring, (0, 0, 0, 1)))
    assert rep.k == 1
    assert rep.power_bound == 0.0
    assert rep.max_checked_modulus < 1e-9
    assert rep.bound_satisfied


def test_recentring_leaves_moduli_unchanged():
    ring = make_ring("Z/13")
    rep0 = character_bound_check(ring, RingPoly.make(ring, (0, 0, 1)))
    rep7 = character_bound_check(ring, RingPoly.make(ring, (7, 0, 1)))
    assert rep7.max_checked_modulus == pytest.approx(rep0.max_checked_modulus, abs=1e-12)


def test_constant_polynomial_is_degenerate():
    ring = make_ring("Z/8")
    rep = character_bound_check(ring, RingPoly.make(ring, (3,)))
    assert rep.k == 0
    assert rep.checked_characters == 0
    assert rep.bound_satisfied
    assert "DEGENERATE" in rep.flags


def test_character_bound_across_variants():
    specs = ("Z/12", "GF(16)", "GR(2,2,2)", "PQ(q=3;g=0,0,1)", "prod(Z/4;Z/9)")
    polys = ((0, 1), (0, 0, 1), (0, 1, 0, 1), (2, 0, 0, 1))
    for spec in specs:
        ring = make_ring(spec)
        for coeffs in polys:
            rep = character_bound_check(ring, RingPoly.make(ring, coeffs))
            assert rep.bound_satisfied, (spec, coeffs)


def test_random_functions_deterministic():
    ring = make_ring("Z/8")
    a = random_functions(ring, 3, 42)
    b = random_functions(ring, 3, 42)
    c = random_functions(ring, 3, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (3, 8)
    assert np.abs(a.real).max() <= 1.0


def test_te_routes_agree():
    """Direct enumeration of the averaged shift and the Parseval route must
    compute the same left side."""
    specs = ("Z/8", "Z/9", "GF(9)", "GR(2,2,2)", "prod(Z/4;GF(4))")
    for spec in specs:
        ring = make_ring(spec)
        P = RingPoly.make(ring, (1, 0, 1))
        for f in random_functions(ring, 5, 17):
            rep = te_estimate(ring, P, f)
            assert rep.route_gap < 1e-8, spec
            assert rep.satisfied, spec


def test_te_rhs_formula():
    """rhs = (B (k-1) / lpf)^(1 / 2^(k-1)) times the L2 norm of f."""
    ring = make_ring("Z/9")
    P = RingPoly.make(ring, (0, 0, 3))
    f = random_functions(ring, 1, 3)[0]
    rep = te_estimate(ring, P, f)
    norm = float(np.sqrt(np.mean(np.abs(f) ** 2)))
    assert rep.k == 2
    assert rep.rhs == pytest.approx((1.0 / 3.0) ** 0.5 * norm, abs=1e-12)


def test_te_constant_polynomial_lhs_zero():
    """A constant polynomial shifts every point by the same amount, so the
    average equals the (trivial-coset) average exactly."""
    ring = make_ring("Z/8")
    P = RingPoly.make(ring, (5,))
    f = random_functions(ring, 1, 9)[0]
    rep = te_estimate(ring, P, f)
    assert rep.lhs < 1e-12
    assert rep.rhs == 0.0
    assert rep.satisfied


def test_te_additive_polynomial_lhs_zero():
    """k = 1 puts rhs at zero, so the theorem asserts exact equality of the
    polynomial average with the coset average."""
    ring = make_ring("GF(9)")
    P = RingPoly.make(ring, (0, 0, 0, 1))
    for f in random_functions(ring, 3, 21):
        rep = te_estimate(ring, P, f)
        assert rep.rhs == 0.0
        assert rep.lhs < 1e-9
        assert rep.satisfied


def test_te_sweep_matches_te_estimate():
    ring = make_ring("Z/12")
    polys = [RingPoly.make(ring, c) for c in ((0, 0, 1), (0, 1, 1), (3, 0, 0, 1))]
    fs = random_functions(ring, 4, 5)
    sweep = te_sweep(ring, polys, fs)
    for i, P in enumerate(polys):
        batch = te_estimate(ring, P, fs)
        assert batch.lhs.shape == batch.satisfied.shape == (4,)
        assert np.array_equal(sweep["lhs"][i], batch.lhs)
        assert np.array_equal(sweep["fourier"][i], batch.fourier_lhs)
        assert np.array_equal(sweep["rhs"][i], batch.rhs)
        assert sweep["k"][i] == batch.k
        for j in range(4):
            rep = te_estimate(ring, P, fs[j])
            assert isinstance(rep.lhs, float) and isinstance(rep.satisfied, bool)
            assert sweep["lhs"][i, j] == pytest.approx(rep.lhs, abs=1e-10)
            assert sweep["rhs"][i, j] == pytest.approx(rep.rhs, abs=1e-10)
            assert batch.ratio[j] == pytest.approx(rep.ratio, abs=1e-10)
            assert batch.route_gap[j] < 1e-8 and bool(batch.satisfied[j]) == rep.satisfied
    assert np.all(sweep["lhs"] <= sweep["rhs"] + 1e-9)
    assert np.abs(sweep["lhs"] - sweep["fourier"]).max() < 1e-8


def test_vdc_full_subgroup_is_equality():
    """Averaging differences over the whole group reproduces |E f|^2."""
    ring = make_ring("Z/16")
    f = random_functions(ring, 1, 8)[0]
    rep = vdc_check(ring, full_subgroup(ring), f, 1)
    assert rep.lhs == pytest.approx(rep.rhs_real, abs=1e-10)
    assert rep.satisfied


def test_vdc_trivial_subgroup_is_jensen():
    """H = {0} turns the right side into E|f|^2, so the inequality is
    Jensen's, strict for nonconstant f."""
    ring = make_ring("Z/16")
    f = random_functions(ring, 1, 8)[0]
    rep = vdc_check(ring, trivial_subgroup(ring), f, 1)
    want = float(np.mean(np.abs(f) ** 2))
    assert rep.rhs_real == pytest.approx(want, abs=1e-10)
    assert rep.lhs < rep.rhs_real


def test_vdc_sweep_small_rings():
    rng_specs = ("Z/8", "GF(8)", "prod(Z/4;Z/4)")
    for spec in rng_specs:
        ring = make_ring(spec)
        subgroup_choices = [
            trivial_subgroup(ring),
            from_generators(ring, [2]),
            full_subgroup(ring),
        ]
        fs = random_functions(ring, 10, 13)
        for H in subgroup_choices:
            for k in (1, 2, 3):
                rep = vdc_check(ring, H, fs, k)
                assert rep.satisfied, (spec, len(H), k)
                assert rep.rhs_imag_max < 1e-9


def test_vdc_rejects_bad_k():
    ring = make_ring("Z/8")
    f = random_functions(ring, 1, 0)[0]
    with pytest.raises(ValueError):
        vdc_check(ring, full_subgroup(ring), f, 0)


def test_vdc_guard(monkeypatch):
    ring = make_ring("Z/64")
    f = random_functions(ring, 1, 0)[0]
    monkeypatch.setenv("RINGLAB_WORK_GUARD", "1000")
    with pytest.raises(WorkGuardExceeded):
        vdc_check(ring, full_subgroup(ring), f, 4)


def test_root_count_tight_case():
    """6x over Z/12 has exactly the bound's worth of roots: 6 = 1*12/2."""
    ring = make_ring("Z/12")
    rep = root_count_bound_check(ring, [0, 6])
    assert rep.count == 6
    assert rep.bound == pytest.approx(6.0)
    assert rep.satisfied


def test_root_count_univariate():
    ring = make_ring("Z/8")
    rep = root_count_bound_check(ring, [7, 0, 1])
    assert rep.count == 4
    assert rep.degrees == (2,)
    assert rep.bound == pytest.approx(2 * 8 / 2)
    assert rep.satisfied


def test_root_count_two_variables():
    """xy = 0 over Z/4 has 8 solutions."""
    ring = make_ring("Z/4")
    coeffs = [[0, 0], [0, 1]]
    rep = root_count_bound_check(ring, coeffs)
    assert rep.variables == 2
    assert rep.degrees == (1, 1)
    assert rep.count == 8
    assert rep.satisfied


def test_root_count_rejects_zero_polynomial():
    ring = make_ring("Z/8")
    with pytest.raises(ZeroPolynomial):
        root_count_bound_check(ring, [0, 0, 0])
    with pytest.raises(ZeroPolynomial):
        root_count_bound_check(ring, [[0, 0], [0, 0]])


def test_root_count_rejects_four_variables():
    ring = make_ring("Z/4")
    nested = [[[[1]]]]
    with pytest.raises(ValueError):
        root_count_bound_check(ring, nested)


def test_root_count_random_sweep():
    rng = np.random.default_rng(99)
    specs = ("Z/12", "GF(9)", "GR(2,2,2)")
    for spec in specs:
        ring = make_ring(spec)
        for _ in range(60):
            deg = int(rng.integers(1, 5))
            coeffs = [int(v) for v in rng.integers(0, ring.order, deg + 1)]
            if not any(coeffs):
                coeffs[-1] = 1
            rep = root_count_bound_check(ring, coeffs)
            assert rep.satisfied, (spec, coeffs)
