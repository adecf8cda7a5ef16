"""The character side and the subgroup closure against independent routes.

Every character sum and every convolution with a measure is one DFT over
(R, +), and the closure keeps a basis of at most log2 |R| elements. Each is
checked here against the route it replaced: per-character angle histograms,
the character table, a sum of translates, a plain-set closure, the
annihilator of every element of H, and the n x n angle matrix of the Paley
connection set. Rings of order at most 64 from all five constructors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from character_oracle import angles, char_sum
from test_acceptance import _closure_oracle
from test_polynomials import ORACLE_RINGS

from ringlab.characters import (
    all_char_sums,
    annihilator_mask,
    character_group,
    character_table,
    convolve,
)
from ringlab.paley import build_paley, spectrum
from ringlab.polynomials import RingPoly
from ringlab.rings import make_ring
from ringlab.subgroups import _closure, from_generators, value_subgroup

ORACLE = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def _draw_ring(family, data):
    return make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_all_char_sums_matches_angle_histograms(family, data):
    ring = _draw_ring(family, data)
    n = ring.order
    counts = np.asarray(
        data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n), label="counts")
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    weights = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    by_counts = all_char_sums(ring, counts)
    by_real = all_char_sums(ring, weights.real)
    by_complex = all_char_sums(ring, weights)
    group = character_group(ring)
    xs = np.arange(n)
    multiset = np.repeat(xs, counts)
    for p in range(n):
        assert by_counts[p] == pytest.approx(char_sum(ring, p, multiset), abs=1e-9)
        chi = group.unit_table[angles(ring, xs, p)]
        assert by_real[p] == pytest.approx(chi @ weights.real, abs=1e-9)
        assert by_complex[p] == pytest.approx(chi @ weights, abs=1e-9)


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_batched_transform_and_table_columns(family, data):
    """A batch (..., n) is transformed row by row, and the table columns
    asked for are those of the full table, in the order asked."""
    ring = _draw_ring(family, data)
    n = ring.order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    batch = rng.uniform(-1, 1, (2, 3, n)) + 1j * rng.uniform(-1, 1, (2, 3, n))
    full = character_table(ring)
    np.testing.assert_allclose(all_char_sums(ring, batch), batch @ full, atol=1e-9)
    chars = rng.integers(0, n, 5)
    np.testing.assert_array_equal(character_table(ring, chars=chars), full[:, chars])


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_convolve_matches_translates(family, data):
    """g(x) = sum_v mu(v) f(x + v), summed translate by translate; a
    convolution with the opposite sign, f(x - v), must not pass."""
    ring = _draw_ring(family, data)
    n = ring.order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    fs = rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n))
    mu = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    want = np.zeros_like(fs)
    for v in range(n):
        want += mu[v] * fs[:, ring.add_vec(np.arange(n), v)]
    np.testing.assert_allclose(convolve(ring, fs, mu), want, atol=1e-9)
    np.testing.assert_allclose(convolve(ring, fs[1], mu), want[1], atol=1e-9)
    point = np.zeros(n)
    point[1] = 1.0
    np.testing.assert_allclose(
        convolve(ring, fs, point), fs[:, ring.add_vec(np.arange(n), 1)], atol=1e-12
    )


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_closure_keeps_an_independent_basis(family, data):
    ring = _draw_ring(family, data)
    gens = data.draw(
        st.lists(st.integers(0, ring.order - 1), max_size=6), label="gens"
    )
    elements, basis = _closure(ring, np.array(gens, dtype=np.int64))
    assert set(elements) == _closure_oracle(ring, gens)
    assert list(elements) == sorted(elements)
    assert set(basis) <= set(gens)
    assert len(basis) <= math.log2(ring.order)
    for i, b in enumerate(basis):
        assert b not in _closure_oracle(ring, basis[:i])
    assert np.array_equal(from_generators(ring, basis).elements, elements)


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_annihilator_of_basis_matches_whole_subgroup(family, data):
    ring = _draw_ring(family, data)
    coeffs = data.draw(
        st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=5),
        label="coeffs",
    )
    H = value_subgroup(ring, RingPoly.make(ring, coeffs))
    assert len(H.generators) <= math.log2(ring.order)
    by_basis = annihilator_mask(ring, H.generators)
    by_elements = annihilator_mask(ring, H.elements)
    np.testing.assert_array_equal(by_basis, by_elements)
    assert by_basis.sum() * H.size == ring.order


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_spectrum_matches_angle_matrix(family, data):
    ring = _draw_ring(family, data)
    graph = build_paley(ring, data.draw(st.integers(2, 6), label="d"))
    group = character_group(ring)
    S = np.asarray(graph.connection_set, dtype=np.int64)
    want = group.unit_table[angles(ring, S)].sum(axis=0)
    report = spectrum(graph)
    np.testing.assert_allclose(report.eigenvalues, want.real, atol=1e-9)
    assert report.imag_residue_max < 1e-9
