"""End-to-end acceptance checks, one per release criterion.

Each test drives the public surface (library calls, and the command-line
entry point where the criterion is about the tool) and re-verifies the
numbers against independent arithmetic written out in the test body.
Every test carries a `criterion` marker; the terminal summary replays one
PASS/FAIL line per criterion together with its runtime, and each test
asserts its own wall-clock budget.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from ringlab import make_ring, parse_poly_literal
from ringlab.cli import main as cli_main
from ringlab.combinatorics import (
    difference_free_max,
    intersectivity_oracle,
    sarkozy_bound_check,
)
from ringlab.harmonics import (
    character_bound_check,
    random_functions,
    root_count_bound_check,
    te_sweep,
    vdc_check,
)
from ringlab.paley import (
    build_paley,
    eigenvector_identity_error,
    quasirandomness_verdict,
    spectrum,
)
from ringlab.subgroups import (
    constant_in_subgroup,
    from_generators,
    full_subgroup,
    trivial_subgroup,
    value_subgroup,
)

# Shared ring catalog: 28 rings covering all five constructor variants,
# orders 4 through 360.
CATALOG_RINGS = (
    "Z/8", "Z/12", "Z/13", "Z/35", "Z/64", "Z/97", "Z/125", "Z/360",
    "GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)", "GF(27)", "GF(49)", "GF(64)",
    "PQ(q=2;g=0,0,1)", "PQ(q=2;g=0,1,1)", "PQ(q=3;g=0,0,1)", "PQ(q=4;g=0,0,1)",
    "GR(2,2,2)", "GR(2,2,3)", "GR(3,2,2)", "GR(5,2,2)",
    "prod(Z/4;GF(4))", "prod(Z/5;Z/7)", "prod(GF(4);GF(9))", "prod(Z/9;Z/4)",
)

# Ten polynomial shapes, degrees 1 through 6. The pure powers turn additive
# on matching-characteristic rings (x^3 on GF(9), x^4 on GF(16)); x + x^2 +
# x^4 and x + 2x^4 are the characteristic-2 shapes whose value subgroups
# and exponents exercise the non-generic branches of the bound.
CATALOG_POLYS = (
    "0,1", "0,0,1", "0,0,0,1", "0,0,0,0,1", "0,0,0,0,0,0,1",
    "0,1,1", "0,1,1,0,1", "0,1,0,0,2", "1,2,0,1", "1,0,0,1,0,0,1",
)

GAUSS_PRIMES = (5, 13, 17, 29)

TREND_PRIMES = (
    5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def run_cli(argv):
    """Invoke the command-line entry point in-process; (exit code, doc)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


@pytest.mark.criterion(1, "Gauss tightness on prime fields")
def test_gauss_sum_tightness_through_cli():
    """expsum on x^2 over Z/p meets its own bound exactly: the largest
    checked modulus squared is 1/p, which is also the reported bound."""
    t0 = time.perf_counter()
    for p in GAUSS_PRIMES:
        code, doc = run_cli(["expsum", "--ring", f"Z/{p}", "--poly", "0,0,1"])
        assert code == 0
        result = doc["result"]
        assert result["bound_satisfied"]
        assert result["max_checked_modulus"] ** 2 == pytest.approx(1 / p, abs=1e-9)
        assert result["power_bound"] == pytest.approx(1 / p, abs=1e-12)
        assert result["k"] == 2
        assert result["b_const"] == 1
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "character bound across the ring catalog")
def test_character_bound_across_catalog():
    """Every (ring, polynomial) pair in the catalog satisfies
    |S(chi, P)|^(2^(k-1)) <= B (k-1) / lpf for every character outside the
    annihilator of the value subgroup."""
    t0 = time.perf_counter()
    assert len(CATALOG_RINGS) >= 20
    assert len(CATALOG_POLYS) >= 8
    variants = {spec.split("(")[0].split("/")[0] for spec in CATALOG_RINGS}
    assert variants == {"Z", "GF", "PQ", "GR", "prod"}

    violations = []
    for spec in CATALOG_RINGS:
        ring = make_ring(spec)
        assert ring.order <= 1024
        for lit in CATALOG_POLYS:
            P = parse_poly_literal(ring, lit)
            assert P.degree <= 6
            rep = character_bound_check(ring, P)
            if not rep.bound_satisfied:
                violations.append((spec, lit, rep.margin))
            if ring.order <= 64:
                assert rep.k_certified, (spec, lit)
    assert violations == []
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(3, "quantitative total-ergodicity estimate")
def test_total_ergodicity_across_catalog():
    """On every catalog ring, 50 seeded random test functions satisfy
    lhs <= rhs for every polynomial, and the direct-enumeration lhs agrees
    with the Parseval route within 1e-8."""
    t0 = time.perf_counter()
    for spec in CATALOG_RINGS:
        ring = make_ring(spec)
        polys = [parse_poly_literal(ring, lit) for lit in CATALOG_POLYS]
        fs = random_functions(ring, 50, 20240819)
        sweep = te_sweep(ring, polys, fs)
        gap = float(np.max(np.abs(sweep["lhs"] - sweep["fourier"])))
        assert gap < 1e-8, spec
        assert np.all(sweep["lhs"] <= sweep["rhs"] + 1e-9), spec
    assert time.perf_counter() - t0 < 20.0


# Subgroups are named by generator index tuples; "trivial" and "full" are
# the two extremes. Each ring lists at least three distinct subgroups.
VDC_CONFIGS = (
    ("Z/8", ("trivial", (4,), (2,), "full")),
    ("Z/12", ("trivial", (6,), (4,), "full")),
    ("GF(16)", ("trivial", (1,), (1, 2), "full")),
    ("PQ(q=2;g=0,0,1)", ("trivial", (2,), (1,), "full")),
    ("GR(2,2,3)", ((1,), (2, 8, 32), "full")),
    ("prod(Z/5;Z/7)", ("trivial", (1,), (5,), "full")),
)

# Elementwise work cap per configuration: |H|^k * |R| * 200 functions.
_VDC_WORK_CAP = 1 << 26


def _build_subgroup(ring, desc):
    if desc == "trivial":
        return trivial_subgroup(ring)
    if desc == "full":
        return full_subgroup(ring)
    return from_generators(ring, desc)


@pytest.mark.criterion(4, "van der Corput along subgroups")
def test_van_der_corput_configurations():
    """|E f|^(2^k) <= the averaged difference expression for 200 seeded
    random functions per (ring, subgroup, k) configuration, with k up to 3
    and at least three subgroups per ring of order at most 64."""
    t0 = time.perf_counter()
    seed = 4000
    for spec, subgroup_descs in VDC_CONFIGS:
        ring = make_ring(spec)
        assert ring.order <= 64
        subgroups = [_build_subgroup(ring, desc) for desc in subgroup_descs]
        assert len({tuple(H.elements) for H in subgroups}) >= 3
        ran = 0
        for H in subgroups:
            for k in (1, 2, 3):
                if len(H) ** k * ring.order * 200 > _VDC_WORK_CAP:
                    continue
                seed += 1
                fs = random_functions(ring, 200, seed)
                rep = vdc_check(ring, H, fs, k)
                assert rep.satisfied, (spec, len(H), k)
                assert rep.rhs_imag_max < 1e-9
                ran += 1
        assert ran >= 6, spec
    assert time.perf_counter() - t0 < 30.0


def _differences_violated(ring, P, elements):
    """Independent pairwise scan: does any pair of the set differ by a
    nonzero value of P, in either order?"""
    forbidden = {int(v) for v in P.values()} - {0}
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if ring.sub(b, a) in forbidden or ring.sub(a, b) in forbidden:
                return True
    return False


@pytest.mark.criterion(5, "difference-free extremal sizes")
def test_difference_free_extremal_sizes():
    """Exact maximum square-difference-free sizes over Z/5 and Z/13 match
    the frozen values 2 and 3, stay below sqrt(p) + 2, and every witness
    passes an independent pairwise scan."""
    t0 = time.perf_counter()
    frozen = {5: 2, 13: 3}
    for p, expected in frozen.items():
        ring = make_ring(f"Z/{p}")
        P = parse_poly_literal(ring, "0,0,1")
        rep = difference_free_max(ring, P, mode="exact")
        assert rep.size == expected
        assert rep.size <= math.sqrt(p) + 2
        assert rep.verified
        assert len(rep.witness) == rep.size
        assert not _differences_violated(ring, P, rep.witness)
        bound = sarkozy_bound_check(ring, P, rep.size)
        assert bound.satisfied
        assert bound.bound == pytest.approx(math.sqrt(p) + 2, abs=1e-9)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(6, "quadratic Paley spectrum closed form")
def test_paley_spectrum_closed_form():
    """P(Z/q, 2) for q in {13, 17, 29} has nontrivial eigenvalues
    (-1 +- sqrt(q))/2, each of multiplicity (q-1)/2, and the q = 13
    spectrum is confirmed entrywise by the adjacency-character identity."""
    t0 = time.perf_counter()
    for q in (13, 17, 29):
        ring = make_ring(f"Z/{q}")
        graph = build_paley(ring, 2)
        rep = spectrum(graph)
        evals = np.sort(rep.eigenvalues)
        lam_minus = (-1 - math.sqrt(q)) / 2
        lam_plus = (-1 + math.sqrt(q)) / 2
        half = (q - 1) // 2
        assert rep.r == half
        assert int(np.sum(np.abs(evals - lam_minus) < 1e-9)) == half
        assert int(np.sum(np.abs(evals - lam_plus) < 1e-9)) == half
        assert int(np.sum(np.abs(evals - rep.r) < 1e-9)) == 1
        assert rep.imag_residue_max < 1e-9
    assert eigenvector_identity_error(build_paley(make_ring("Z/13"), 2)) < 1e-9
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(7, "quasirandomness dichotomy at 35 versus 13")
def test_quasirandomness_dichotomy():
    """The quadratic graph over Z/35 carries a bad prime of size 5 with
    floor sqrt(1/1280) on epsilon, the one over Z/13 carries none, and the
    spectral floor orders the two accordingly."""
    t0 = time.perf_counter()
    bad = quasirandomness_verdict(build_paley(make_ring("Z/35"), 2))
    good = quasirandomness_verdict(build_paley(make_ring("Z/13"), 2))

    assert bad.bad_prime_sizes == [5]
    assert bad.necessary_epsilon_floor == pytest.approx(
        math.sqrt(1.0 / 1280.0), abs=1e-9
    )
    assert bad.necessary_epsilon_floor >= 0.0279
    assert good.bad_prime_sizes == []
    assert good.necessary_epsilon_floor is None
    assert bad.spectral_epsilon_floor > good.spectral_epsilon_floor
    assert time.perf_counter() - t0 < 5.0


def _closure_oracle(ring, seeds):
    """Plain-set breadth-first additive closure, no library calls."""
    members = {0}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in seeds:
            y = ring.add(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


@pytest.mark.criterion(8, "value subgroup structure")
def test_value_subgroup_structure():
    """x^2 over the dual numbers generates an index-2 subgroup, x^2 + t
    has its constant outside that subgroup, and x^2 over Z/5 generates
    everything; each is confirmed by an independent closure."""
    t0 = time.perf_counter()
    dual = make_ring("PQ(q=2;g=0,0,1)")
    H = value_subgroup(dual, parse_poly_literal(dual, "0,0,1"))
    assert H.index == 2
    vals = {int(v) for v in parse_poly_literal(dual, "0,0,1").values()}
    assert set(H.elements) == _closure_oracle(dual, vals)
    assert not constant_in_subgroup(dual, parse_poly_literal(dual, "#2,0,1"))

    z5 = make_ring("Z/5")
    H5 = value_subgroup(z5, parse_poly_literal(z5, "0,0,1"))
    assert H5.is_full
    vals5 = {int(v) for v in parse_poly_literal(z5, "0,0,1").values()}
    assert _closure_oracle(z5, vals5) == set(range(5))
    assert time.perf_counter() - t0 < 1.0


ROOT_COUNT_RINGS = (
    "Z/8", "Z/12", "Z/97", "Z/125", "GF(49)", "GF(64)",
    "PQ(q=3;g=0,0,1)", "GR(2,2,3)", "prod(Z/5;Z/7)",
)


@pytest.mark.criterion(9, "root-count bound sweep")
def test_root_count_bound_sweep():
    """Root counts of 500+ seeded random nonzero polynomials in one or two
    variables never exceed (sum of degrees) |R|^l / lpf; 6x over Z/12 is
    the tight case."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    checked = 0
    for spec in ROOT_COUNT_RINGS:
        ring = make_ring(spec)
        assert ring.order <= 128
        for _ in range(30):
            shape = (int(rng.integers(2, 6)),)
            coeffs = rng.integers(0, ring.order, shape)
            if not coeffs.any():
                coeffs[-1] = 1
            rep = root_count_bound_check(ring, coeffs.tolist())
            assert rep.satisfied, (spec, coeffs.tolist())
            checked += 1
        for _ in range(30):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            coeffs = rng.integers(0, ring.order, shape)
            if not coeffs.any():
                coeffs[-1, -1] = 1
            rep = root_count_bound_check(ring, coeffs.tolist())
            assert rep.satisfied, (spec, coeffs.tolist())
            checked += 1
    assert checked >= 500

    z12 = make_ring("Z/12")
    tight = root_count_bound_check(z12, [0, 6])
    assert tight.count == 6
    assert tight.bound == pytest.approx(6.0)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(10, "intersectivity oracle verdicts")
def test_intersectivity_oracle_verdicts():
    """x^2 - 1 is intersective up to any bound, x^2 - 2 fails with witness
    modulus 3, and x + 1 over F_p[t] passes because -1 is a root."""
    t0 = time.perf_counter()
    passing = intersectivity_oracle("INTEGERS", [-1, 0, 1], 40)
    assert passing.status == "INTERSECTIVE_UP_TO_BOUND"
    assert passing.moduli_resolved > 0

    failing = intersectivity_oracle("INTEGERS", [-2, 0, 1], 40)
    assert failing.status == "WITNESS_FOUND"
    assert failing.witness["modulus"] == 3
    assert failing.witness_verified
    assert all(pow(x, 2, 3) != 2 % 3 for x in range(3))

    for p in (2, 3):
        linear = intersectivity_oracle(f"FPT({p})", [1, 1], 4)
        assert linear.status == "INTERSECTIVE_UP_TO_BOUND", p
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(11, "deviation trend as the prime modulus grows")
def test_deviation_trend_in_prime_moduli():
    """The estimated sup deviation of squared-shift configuration counts
    from their product benchmark decreases (within 10% sampling noise)
    along ascending primes, and every sampled pair respects the
    total-ergodicity plug-in bound sqrt(mu_A mu_B / p)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    stats = []
    for p in TREND_PRIMES:
        ring = make_ring(f"Z/{p}")
        P = parse_poly_literal(ring, "0,0,1")
        vc = np.bincount(P.values(), minlength=p).astype(np.float64)
        idx = np.arange(p)
        circulant = vc[(idx[None, :] - idx[:, None]) % p]
        A = rng.integers(0, 2, (200, p)).astype(np.float64)
        B = rng.integers(0, 2, (200, p)).astype(np.float64)
        for masks in (A, B):
            empty = masks.sum(axis=1) == 0
            masks[empty, 0] = 1.0
        mu_a = A.mean(axis=1)
        mu_b = B.mean(axis=1)
        # counts[i, s] = #{(x, y) : x in A_i, x + P(y) in B_i + s}; every
        # translate of B_i is one more sampled pair with the same measures.
        conv = A @ circulant
        translated = B[:, (idx[None, :] - idx[:, None]) % p]
        counts = np.einsum("it,ist->is", conv, translated)
        dev = np.abs(counts / p**2 - (mu_a * mu_b)[:, None])
        plug_in = np.sqrt(mu_a * mu_b / p)
        assert np.all(dev.max(axis=1) <= plug_in + 1e-12), p
        stats.append(float(dev.max()))
    for earlier, later in zip(stats, stats[1:]):
        assert later <= 1.10 * earlier
    assert time.perf_counter() - t0 < 60.0
