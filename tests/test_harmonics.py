"""Exponential sums, the power bound, the ergodic average estimate, van der
Corput, and root counts. Frozen constants here were computed by hand from
the value multiset (for example 3x^2 on Z/9 takes the value 0 three times
and 3 six times, giving |S|^2 = 1/3 at the fundamental character).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from character_oracle import char_sum
from test_polynomials import ORACLE_RINGS

from ringlab.characters import annihilator_mask
from ringlab.combinatorics import sarkozy_bound_check
from ringlab.errors import WorkGuardExceeded, ZeroPolynomial
from ringlab.harmonics import (
    character_bound_check,
    exp_sums_all,
    random_functions,
    root_count_bound_check,
    te_estimate,
    te_sweep,
    vdc_check,
)
from ringlab.paley import build_paley, quasirandomness_verdict
from ringlab.polynomials import RingPoly, bound_parameters
from ringlab.rings import make_ring
from ringlab.subgroups import from_generators, full_subgroup, trivial_subgroup, value_subgroup


def test_exp_sums_all_matches_single():
    ring = make_ring("Z/13")
    P = RingPoly.make(ring, (0, 0, 1))
    batch = exp_sums_all(ring, P)
    for p in range(ring.order):
        assert batch[p] == pytest.approx(char_sum(ring, p, P.values()) / ring.order, abs=1e-12)


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


@st.composite
def _oracle_polys(draw):
    """(spec, coefficients): a ring of ORACLE_RINGS, all five constructors,
    with up to six terms of degree at most 2 |R| given by element indices."""
    spec = draw(st.sampled_from([s for specs in ORACLE_RINGS.values() for s in specs]), label="ring")
    n = make_ring(spec).order
    terms = draw(st.lists(st.tuples(st.integers(0, 2 * n), st.integers(0, n - 1)), max_size=6),
                 label="terms")
    coeffs = [0] * (max((m for m, _ in terms), default=0) + 1)
    for m, c in terms:
        coeffs[m] = c
    return spec, tuple(coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_oracle_polys())
@example(case=("GF(4096)", (0,) * 4092 + (1,)))
@example(case=("GF(4096)", (0,) * 4090 + (1,)))
def test_worst_checked_character_is_the_largest_modulus(case):
    """max_checked_modulus is the largest |S| over the characters outside
    the annihilator of the value subgroup, at every k. The examples are
    x^4092 and x^4090 on GF(4096), k = 10: every checked |S|^512
    underflows to 0.0, and an argmax over those powers took the first
    checked character, 0.015625, where the largest are 0.03125 and
    0.0625."""
    spec, coeffs = case
    ring = make_ring(spec)
    P = RingPoly.make(ring, coeffs)
    rep = character_bound_check(ring, P)
    H = value_subgroup(ring, P, subtract_constant=True)
    checked = ~annihilator_mask(ring, H.generators)
    want = np.abs(exp_sums_all(ring, P))[checked].max() if checked.any() else 0.0
    assert rep.max_checked_modulus == pytest.approx(want, rel=1e-12)


# One ring per constructor, of characteristic prime to 6, so that the
# Paley verdict holds for x^2 and x^3.
BOUND_SPECS = ("Z/35", "GF(25)", "GR(5,2,1)", "PQ(q=5;g=0,0,1)", "prod(Z/5;Z/7)")


@pytest.mark.parametrize("coeffs", [(0, 0, 1), (0, 0, 0, 1), (0, 1, 1)], ids=["x2", "x3", "x+x2"])
@pytest.mark.parametrize("spec", BOUND_SPECS)
def test_every_report_reads_one_bound(spec, coeffs):
    """expsum's power bound, tebound's constant rhs / ||f||, sarkozy's k
    and lpf, and for x^d the Paley verdict's k and B are those that
    bound_parameters chose."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, coeffs)
    bp = bound_parameters(ring, P)
    assert character_bound_check(ring, P).power_bound == bp.power
    te = te_estimate(ring, P, random_functions(ring, 2, 1))
    assert te.rhs / te.f_norm == pytest.approx(bp.root, rel=1e-12)
    sarkozy = sarkozy_bound_check(ring, P, 0)
    assert (sarkozy.k, sarkozy.lpf) == (bp.k, bp.lpf)
    if coeffs[1] == 0:
        verdict = quasirandomness_verdict(build_paley(ring, P.degree))
        assert (verdict.k, verdict.b_const) == (bp.k, bp.b)


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
            rep = te_estimate(ring, P, f[None])
            assert rep.route_gap[0] < 1e-8, spec
            assert rep.satisfied[0], spec


def test_te_rhs_formula():
    """rhs = (B (k-1) / lpf)^(1 / 2^(k-1)) times the L2 norm of f."""
    ring = make_ring("Z/9")
    P = RingPoly.make(ring, (0, 0, 3))
    f = random_functions(ring, 1, 3)[0]
    rep = te_estimate(ring, P, f[None])
    norm = float(np.sqrt(np.mean(np.abs(f) ** 2)))
    assert rep.k == 2
    assert rep.rhs[0] == pytest.approx((1.0 / 3.0) ** 0.5 * norm, abs=1e-12)


def test_te_constant_polynomial_lhs_zero():
    """A constant polynomial shifts every point by the same amount, so the
    average equals the (trivial-coset) average exactly."""
    ring = make_ring("Z/8")
    P = RingPoly.make(ring, (5,))
    f = random_functions(ring, 1, 9)[0]
    rep = te_estimate(ring, P, f[None])
    assert rep.lhs[0] < 1e-12
    assert rep.rhs[0] == 0.0
    assert rep.satisfied[0]


def test_te_additive_polynomial_lhs_zero():
    """k = 1 puts rhs at zero, so the theorem asserts exact equality of the
    polynomial average with the coset average."""
    ring = make_ring("GF(9)")
    P = RingPoly.make(ring, (0, 0, 0, 1))
    for f in random_functions(ring, 3, 21):
        rep = te_estimate(ring, P, f[None])
        assert rep.rhs[0] == 0.0
        assert rep.lhs[0] < 1e-9
        assert rep.satisfied[0]


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
            rep = te_estimate(ring, P, fs[j:j + 1])
            assert rep.lhs.shape == rep.satisfied.shape == (1,)
            assert sweep["lhs"][i, j] == pytest.approx(rep.lhs[0], abs=1e-10)
            assert sweep["rhs"][i, j] == pytest.approx(rep.rhs[0], abs=1e-10)
            assert batch.ratio[j] == pytest.approx(rep.ratio[0], abs=1e-10)
            assert batch.route_gap[j] < 1e-8 and batch.satisfied[j] == rep.satisfied[0]
    assert np.all(sweep["lhs"] <= sweep["rhs"] + 1e-9)
    assert np.abs(sweep["lhs"] - sweep["fourier"]).max() < 1e-8


def test_vdc_full_subgroup_is_equality():
    """Averaging differences over the whole group reproduces |E f|^2."""
    ring = make_ring("Z/16")
    f = random_functions(ring, 1, 8)
    rep = vdc_check(ring, full_subgroup(ring), f, 1)
    assert rep.lhs[0] == pytest.approx(rep.rhs[0], abs=1e-10)
    assert rep.satisfied


def test_vdc_trivial_subgroup_is_jensen():
    """H = {0} turns the right side into E|f|^2, so the inequality is
    Jensen's, strict for nonconstant f."""
    ring = make_ring("Z/16")
    f = random_functions(ring, 1, 8)
    rep = vdc_check(ring, trivial_subgroup(ring), f, 1)
    want = float(np.mean(np.abs(f) ** 2))
    assert rep.rhs[0] == pytest.approx(want, abs=1e-10)
    assert rep.lhs[0] < rep.rhs[0]


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
    f = random_functions(ring, 1, 0)
    with pytest.raises(ValueError):
        vdc_check(ring, full_subgroup(ring), f, 0)


@pytest.mark.parametrize("shape", [(2, 5), (2, 12), (8,), (1, 2, 8)])
def test_vdc_rejects_f_of_another_shape(shape):
    """f must be a (count, n) batch: on Z/8 a (2, 5) batch used to raise a
    bare IndexError, and a (2, 12) one to average 12 entries as if n were
    8."""
    ring = make_ring("Z/8")
    with pytest.raises(ValueError, match="shape"):
        vdc_check(ring, full_subgroup(ring), np.ones(shape), 1)


def test_vdc_guard(monkeypatch):
    ring = make_ring("Z/64")
    f = random_functions(ring, 1, 0)
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


def _roots_point_by_point(ring, coeffs) -> int:
    """Roots of the polynomial with this coefficient tensor, each point's
    value summed term by term with scalar ring.add and ring.mul."""
    arr = np.asarray(coeffs)
    terms = [(int(c), e) for e, c in np.ndenumerate(arr) if c]
    count = 0
    for point in itertools.product(range(ring.order), repeat=arr.ndim):
        value = 0
        for c, exponents in terms:
            for x, e in zip(point, exponents):
                for _ in range(e):
                    c = ring.mul(c, x)
            value = ring.add(value, c)
        count += value == 0
    return count


# One small ring per constructor: 3 variables stay within 9^3 points.
ROOT_SPECS = ("Z/9", "GF(4)", "GR(2,2,1)", "PQ(q=2;g=0,0,1)", "prod(Z/2;Z/3)")


@st.composite
def _coefficient_tensors(draw):
    """(spec, nested coefficients): 1 to 3 variables, each with its own
    degree and up to one trailing zero slice, entries mostly zero."""
    spec = draw(st.sampled_from(ROOT_SPECS), label="spec")
    order = make_ring(spec).order
    l = draw(st.integers(1, 3), label="variables")
    shape = tuple(draw(st.lists(st.integers(1, 4 - l), min_size=l, max_size=l), label="shape"))
    entries = st.one_of(st.just(0), st.integers(0, order - 1))
    flat = draw(st.lists(entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))),
                label="entries")
    arr = np.array(flat, dtype=np.int64).reshape(shape)
    pad = draw(st.lists(st.integers(0, 1), min_size=l, max_size=l), label="zero slices")
    return spec, np.pad(arr, [(0, k) for k in pad]).tolist()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_coefficient_tensors())
@example(case=("prod(Z/9;Z/4)", [[1, 2], [0, 1]]))
@example(case=("Z/9", [[[0, 1, 0], [0, 0, 0]], [[2, 0, 0], [0, 0, 0]]]))
@example(case=("GF(4)", [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
def test_root_count_matches_point_by_point(case):
    """Count, degrees and bound of nested Horner against a scalar sum of
    terms at every point; the examples are asymmetric, so evaluating a
    variable along another's axis changes the count (96 roots of
    1 + 2y + xy on prod(Z/9;Z/4), not 432)."""
    spec, coeffs = case
    ring = make_ring(spec)
    arr = np.asarray(coeffs)
    if not arr.any():
        with pytest.raises(ZeroPolynomial):
            root_count_bound_check(ring, coeffs)
        return
    rep = root_count_bound_check(ring, coeffs)
    exponents = [e for e, c in np.ndenumerate(arr) if c]
    degrees = tuple(max(e[i] for e in exponents) for i in range(arr.ndim))
    assert rep.variables == arr.ndim
    assert rep.degrees == degrees
    assert rep.count == _roots_point_by_point(ring, coeffs)
    assert rep.bound == pytest.approx(sum(degrees) * ring.order**arr.ndim / ring.lpf())
