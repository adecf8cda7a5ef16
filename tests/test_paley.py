"""Paley-type graphs: connection sets, spectra by character sums, the
quasirandomness verdicts, and uniformity sweeps.

The closed-form spectrum tests pin the classical fact that quadratic
Paley graphs on Z/q have nontrivial eigenvalues (-1 +/- sqrt(q))/2, each
with multiplicity (q-1)/2.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paley_oracle import adjacency_matrix, edges, eigenvector_identity_error, residue_census
from test_rings import explicit_specs, kernel_specs

from ringlab import cli
from ringlab.errors import CharDividesDegree, ParseError
from ringlab.paley import (
    build_paley,
    edge_lines,
    quasirandomness_verdict,
    spectrum,
    uniformity_measure,
)
from ringlab.rings import Ring, make_ring


def test_build_z13_connection_set():
    graph = build_paley(make_ring("Z/13"), 2)
    assert graph.connection_set.tolist() == [1, 3, 4, 9, 10, 12]
    assert not graph.connection_set.flags.writeable
    assert graph.r == 6
    assert graph.kernel_size == 2
    assert graph.minus_one_is_power
    assert graph.pm_halving_factor == 0.5
    assert not graph.char_divides_degree


def test_build_rejects_small_degree():
    with pytest.raises(ParseError):
        build_paley(make_ring("Z/13"), 1)


def test_connection_set_matches_brute_force():
    for spec, d in (("Z/13", 2), ("Z/7", 2), ("GF(9)", 2), ("Z/35", 2), ("GR(2,2,2)", 3)):
        ring = make_ring(spec)
        graph = build_paley(ring, d)
        powers = ring.pow_vec(np.arange(1, ring.order), d)
        want = set(powers.tolist()) | set(ring.neg_vec(powers).tolist())
        want.discard(0)
        assert set(graph.connection_set) == want, spec


def test_kernel_size_matches_brute_force():
    for spec, d in (("Z/13", 2), ("Z/13", 3), ("GF(9)", 2), ("Z/35", 2)):
        ring = make_ring(spec)
        graph = build_paley(ring, d)
        want = int((ring.pow_vec(np.arange(ring.order), d) == ring.one).sum())
        assert graph.kernel_size == want, spec


def test_connection_set_size_lower_bound():
    """|S| >= |units| / d / 2-ish: each value class has at most d preimages
    among units, and the +/- fold at most halves it."""
    for spec, d in (("Z/13", 2), ("Z/17", 4), ("GF(25)", 2), ("GR(3,2,2)", 2)):
        ring = make_ring(spec)
        graph = build_paley(ring, d)
        assert graph.r >= ring.units_count() // (d * graph.kernel_size), spec


@pytest.mark.parametrize("q", [13, 17, 29])
def test_quadratic_spectrum_closed_form(q):
    graph = build_paley(make_ring(f"Z/{q}"), 2)
    rep = spectrum(graph)
    evals = np.sort(np.asarray(rep.eigenvalues))
    assert evals[-1] == pytest.approx(graph.r, abs=1e-9)
    lo = (-1 - q**0.5) / 2
    hi = (-1 + q**0.5) / 2
    rest = evals[:-1]
    near_lo = np.sum(np.abs(rest - lo) < 1e-9)
    near_hi = np.sum(np.abs(rest - hi) < 1e-9)
    assert near_lo == (q - 1) // 2
    assert near_hi == (q - 1) // 2
    assert rep.lambda2 == pytest.approx(abs(lo), abs=1e-9)


def test_spectrum_z5_is_golden_ratio():
    """P(Z/5, 2) is the 5-cycle; the largest nontrivial eigenvalue in
    absolute value is 2cos(2 pi 2/5) = -(1+sqrt 5)/2."""
    rep = spectrum(build_paley(make_ring("Z/5"), 2))
    assert rep.lambda2 == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)


def test_spectrum_traces():
    for spec, d in (("Z/13", 2), ("Z/35", 2), ("GF(9)", 2), ("GR(2,2,2)", 3)):
        graph = build_paley(make_ring(spec), d)
        rep = spectrum(graph)
        n = graph.ring.order
        assert abs(rep.trace) < 1e-6, spec
        assert rep.trace_squared == pytest.approx(graph.r * n, abs=1e-6), spec
        assert rep.imag_residue_max < 1e-9


def test_spectrum_matches_numpy_eigenvalues():
    """Independent route: eigenvalues of the explicit adjacency matrix."""
    graph = build_paley(make_ring("Z/13"), 2)
    rep = spectrum(graph)
    A = adjacency_matrix(graph)
    want = np.sort(np.linalg.eigvalsh(A))
    got = np.sort(np.asarray(rep.eigenvalues))
    assert np.abs(want - got).max() < 1e-9


def test_eigenvector_identity_entrywise():
    assert eigenvector_identity_error(build_paley(make_ring("Z/13"), 2)) < 1e-9
    assert eigenvector_identity_error(build_paley(make_ring("GR(2,2,2)"), 3)) < 1e-9


def test_adjacency_matrix_shape():
    graph = build_paley(make_ring("Z/13"), 2)
    A = adjacency_matrix(graph)
    assert A.shape == (13, 13)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert np.all(A.sum(axis=1) == graph.r)


def test_edges_five_cycle():
    graph = build_paley(make_ring("Z/5"), 2)
    assert "".join(edge_lines(graph)) == "0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_edge_count():
    graph = build_paley(make_ring("Z/17"), 2)
    assert "".join(edge_lines(graph)).count("\n") == 17 * graph.r // 2


@pytest.mark.parametrize(
    "spec, d",
    [("Z/12", 2), ("GF(9)", 2), ("PQ(q=2;g=1,0,1)", 3), ("GR(2,2,2)", 3), ("prod(Z/3;GF(4))", 3)],
)
def test_edges_match_brute_force(spec, d):
    """The streamed edge lines and the oracle's pairs are exactly the sorted
    pairs u < v with v - u in S, counted by scalar arithmetic over every
    pair."""
    ring = make_ring(spec)
    graph = build_paley(ring, d)
    S = set(graph.connection_set)
    want = [
        (u, v) for u in range(ring.order) for v in range(u + 1, ring.order)
        if ring.sub(v, u) in S
    ]
    assert list(edges(graph)) == want
    assert "".join(edge_lines(graph)) == "".join(f"{u} {v}\n" for u, v in want)


@pytest.mark.parametrize("spec, d", [("Z/64", 2), ("GF(16)", 2), ("GF(16)", 3), ("Z/5", 2)])
def test_edge_lines_are_the_per_edge_format(spec, d, capsys):
    """`paley --edges` writes one joined string per vertex; its output is
    byte for byte the "u v" line of every edge."""
    graph = build_paley(make_ring(spec), d)
    want = "".join(f"{u} {v}\n" for u, v in edges(graph))
    assert "".join(edge_lines(graph)) == want
    assert cli.main(["paley", "--ring", spec, "--d", str(d), "--edges"]) == 0
    assert capsys.readouterr().out == want


def test_first_edge_streams_without_the_edge_list():
    """Z/4096 has about 4.2 million edges; the first one comes before the
    rest are built."""
    graph = build_paley(make_ring("Z/4096"), 2)
    start = time.perf_counter()
    assert next(edge_lines(graph)).startswith("0 1\n")
    assert time.perf_counter() - start < 0.5


def test_complete_graph_when_all_units_hit():
    """-1 is not a square mod 7, so +/- squares cover every unit."""
    graph = build_paley(make_ring("Z/7"), 2)
    assert graph.r == 6
    rep = spectrum(graph)
    assert rep.lambda2 == pytest.approx(1.0, abs=1e-12)


def test_verdict_z13_no_bad_primes():
    verdict = quasirandomness_verdict(build_paley(make_ring("Z/13"), 2))
    assert verdict.bad_prime_sizes == []
    assert verdict.necessary_epsilon_floor is None
    assert verdict.k == 2


def test_verdict_z35_bad_prime_five():
    """Mod 5 the +/- squares are {1, 4, 2, 3} missing 0-complement
    coverage... the residue field F_5 is not covered, so 5 is bad and the
    floor is sqrt(1 / (64 * 4 * 5))."""
    verdict = quasirandomness_verdict(build_paley(make_ring("Z/35"), 2))
    assert verdict.bad_prime_sizes == [5]
    assert verdict.necessary_epsilon_floor == pytest.approx(
        (1.0 / 1280.0) ** 0.5, abs=1e-12
    )


def test_verdict_spectral_ordering():
    z13 = quasirandomness_verdict(build_paley(make_ring("Z/13"), 2))
    z35 = quasirandomness_verdict(build_paley(make_ring("Z/35"), 2))
    assert z35.spectral_epsilon_floor > z13.spectral_epsilon_floor


def test_verdict_gf9_sufficient_epsilon():
    """k = 2, B = 1, unit density 8/9: the sufficient threshold is
    3 * 2 * (1/9)^(1/2) = 2."""
    verdict = quasirandomness_verdict(build_paley(make_ring("GF(9)"), 2))
    assert verdict.sufficient_epsilon == pytest.approx(2.0, abs=1e-9)


def test_verdict_k_at_least_two_when_char_coprime():
    """x^d can only be additive when d is a power of the characteristic,
    which the verdict precondition excludes; every admissible graph has
    k >= 2 and therefore a concrete sufficient threshold."""
    for spec, d in (("Z/13", 2), ("Z/35", 2), ("GF(9)", 2), ("GR(2,2,2)", 3)):
        verdict = quasirandomness_verdict(build_paley(make_ring(spec), d))
        assert verdict.k >= 2, spec
        assert verdict.sufficient_epsilon is not None
        assert verdict.sufficient_epsilon > 0


def test_verdict_refused_when_char_divides_degree():
    graph = build_paley(make_ring("GF(4)"), 2)
    assert graph.char_divides_degree
    with pytest.raises(CharDividesDegree):
        quasirandomness_verdict(graph)


@pytest.mark.parametrize("spec, d", [("Z/3", 6), ("Z/3", 9), ("Z/4", 2)])
def test_verdict_refused_when_a_prime_of_the_characteristic_divides_degree(spec, d, capsys):
    """The flag asks whether some prime factor p of the characteristic
    divides d, as the Weil bound behind the verdict needs p not to: Z/3 is
    refused at d = 6 and 9, which 3 divides, and Z/4 at d = 2, which 4 does
    not divide but 2 does. The CLI prints no verdict for them."""
    graph = build_paley(make_ring(spec), d)
    assert graph.char_divides_degree
    with pytest.raises(CharDividesDegree, match="a prime factor of the characteristic"):
        quasirandomness_verdict(graph)
    assert cli.main(["paley", "--ring", spec, "--d", str(d)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] is None


FIELD_NOTE = "plus-minus d-th powers do not cover the field itself"

#: specs of all five constructors, orders kept below about a thousand
CENSUS_SPECS = st.one_of(
    st.integers(2, 1000).map(lambda n: f"Z/{n}"),
    kernel_specs(max_order=512),
    explicit_specs(),
    st.builds(lambda n, right: f"prod(Z/{n};{right})", st.integers(2, 32),
              kernel_specs(max_order=32).filter(lambda s: not s.startswith("prod"))),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=CENSUS_SPECS, d=st.integers(2, 12))
@example(spec="Z/35", d=2)
@example(spec="GF(9)", d=2)
@example(spec="GR(3,2,2)", d=4)
@example(spec="PQ(q=3;g=1,0,0,1)", d=3)
@example(spec="prod(Z/5;GF(16))", d=3)
def test_census_matches_brute_force(spec, d):
    """The gcd rule of the verdict against the census by brute force: the
    bad sizes are the uncovered residue fields other than the ring itself,
    the necessary floor is the largest of their floors, and a field that
    its own plus-minus d-th powers miss carries the one note instead."""
    ring = make_ring(spec)
    graph = build_paley(ring, d)
    assume(not graph.char_divides_degree)
    verdict = quasirandomness_verdict(graph)
    census = residue_census(ring, d)
    bad = sorted(q for q, covered in census if not covered and q != ring.order)
    assert verdict.bad_prime_sizes == bad
    floor = max((math.sqrt((d - 1) / (64 * d * d * q)) for q in bad), default=None)
    assert verdict.necessary_epsilon_floor == floor
    missed_itself = (ring.order, False) in census
    assert sum(n.startswith(FIELD_NOTE) for n in verdict.notes) == missed_itself


@pytest.mark.parametrize(
    "spec, d",
    [("Z/35", 2), ("GR(3,2,2)", 2), ("prod(Z/5;Z/7)", 2), ("PQ(q=2;g=1,1,1)", 3)],
)
def test_verdict_builds_no_ring(spec, d, monkeypatch):
    """The census reads the residue field sizes of the prime ideal profile
    and builds no field: no characteristic here divides d, and each of
    these rings used to construct its residue fields to raise them to the
    d-th power."""
    graph = build_paley(make_ring(spec), d)

    def refuse(self):
        raise AssertionError("quasirandomness_verdict built a ring")

    monkeypatch.setattr(Ring, "__init__", refuse)
    quasirandomness_verdict(graph)


def test_uniformity_exhaustive_z5():
    graph = build_paley(make_ring("Z/5"), 2)
    rep = uniformity_measure(graph, mode="exhaustive")
    assert rep.epsilon_lower_bound == pytest.approx(0.16, abs=1e-12)
    assert rep.witness_a.tolist() == [0, 2]
    assert rep.witness_b.tolist() == [0, 2]
    assert rep.mixing_all_satisfied


def test_uniformity_exhaustive_witness_recount():
    """Recount the witness pair's edges by hand and reproduce the reported
    deviation."""
    graph = build_paley(make_ring("Z/5"), 2)
    rep = uniformity_measure(graph, mode="exhaustive")
    S = set(graph.connection_set)
    ring = graph.ring
    A, B = rep.witness_a, rep.witness_b
    count = sum(1 for a in A for b in B if ring.sub(a, b) in S)
    n, r = ring.order, graph.r
    dev = abs(count - r * len(A) * len(B) / n) / (r * n)
    assert dev == pytest.approx(rep.epsilon_lower_bound, abs=1e-12)


def test_uniformity_exhaustive_capped():
    graph = build_paley(make_ring("Z/13"), 2)
    with pytest.raises(Exception):
        uniformity_measure(graph, mode="exhaustive")


def test_contrapositive_eigenvalue_bound():
    """An eps-uniform graph has lambda2 <= 8 eps r; the exhaustive lower
    bound is the true eps for tiny graphs, so the inequality must hold."""
    for spec in ("Z/5", "Z/7", "PQ(q=3;g=0,0,1)"):
        graph = build_paley(make_ring(spec), 2)
        rep = spectrum(graph)
        uni = uniformity_measure(graph, mode="exhaustive")
        assert rep.lambda2 <= 8 * uni.epsilon_lower_bound * graph.r + 1e-9, spec


def test_uniformity_sampled_deterministic():
    graph = build_paley(make_ring("Z/29"), 2)
    a = uniformity_measure(graph, mode="sampled", count=50, seed=4)
    b = uniformity_measure(graph, mode="sampled", count=50, seed=4)
    assert a.epsilon_lower_bound == b.epsilon_lower_bound
    assert np.array_equal(a.witness_a, b.witness_a)
    assert a.seed == 4
    assert a.pairs_examined == 50
    assert a.mixing_all_satisfied


def test_uniformity_structured_families():
    graph = build_paley(make_ring("Z/13"), 2)
    rep = uniformity_measure(graph, mode="structured")
    assert rep.pairs_examined == 25
    assert rep.mixing_all_satisfied
    assert 0 <= rep.epsilon_lower_bound <= 1


def test_uniformity_explicit_pairs():
    graph = build_paley(make_ring("Z/13"), 2)
    pairs = [([0, 1, 2], [5, 6]), ([1, 3, 8], [0])]
    rep = uniformity_measure(graph, mode="explicit", pairs=pairs)
    assert rep.pairs_examined == 2
    assert rep.mixing_all_satisfied


def test_spectrum_lambda2_deterministic_tie_break():
    """Re-running the spectrum returns the identical witness character."""
    graph = build_paley(make_ring("Z/17"), 2)
    a = spectrum(graph)
    b = spectrum(graph)
    assert a.lambda2_witness == b.lambda2_witness


def test_cached_spectrum_is_immutable():
    """spectrum() hands every caller the same cached report, so neither the
    report nor its eigenvalues can be changed in place."""
    import dataclasses

    graph = build_paley(make_ring("Z/13"), 2)
    first = spectrum(graph)
    before = np.array(first.eigenvalues)
    with pytest.raises(ValueError):
        first.eigenvalues[0] = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.lambda2 = 0.0
    assert np.array_equal(spectrum(graph).eigenvalues, before)
