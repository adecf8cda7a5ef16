"""The character side and the subgroup closure against independent routes.

Every character sum is one DFT over (R, +), and the closure keeps a basis
of at most log2 |R| elements. Each is checked here against the route it
replaced: per-character angle histograms, a plain-set closure, the
annihilator of every element of H, and the n x n angle matrix of the Paley
connection set. Rings of order at most 64 from all five constructors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _closure_oracle
from test_polynomials import ORACLE_RINGS

from ringlab.characters import (
    all_char_sums,
    annihilator_mask,
    char_sum,
    character_group,
    characters,
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
    for c in characters(ring):
        assert by_counts[c.index] == pytest.approx(char_sum(ring, c, multiset), abs=1e-9)
        chi = group.unit_table[group.angles_single(c.coeffs, xs)]
        assert by_real[c.index] == pytest.approx(chi @ weights.real, abs=1e-9)
        assert by_complex[c.index] == pytest.approx(chi @ weights, abs=1e-9)


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@ORACLE
@given(data=st.data())
def test_closure_keeps_an_independent_basis(family, data):
    ring = _draw_ring(family, data)
    gens = data.draw(
        st.lists(st.integers(0, ring.order - 1), max_size=6), label="gens"
    )
    elements, basis = _closure(ring, gens)
    assert set(elements) == _closure_oracle(ring, gens)
    assert list(elements) == sorted(elements)
    assert set(basis) <= set(gens)
    assert len(basis) <= math.log2(ring.order)
    for i, b in enumerate(basis):
        assert b not in _closure_oracle(ring, basis[:i])
    assert from_generators(ring, basis).elements == elements


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
    want = group.unit_table[group.angles_for_elements(S)].sum(axis=0)
    report = spectrum(graph)
    np.testing.assert_allclose(report.eigenvalues, want.real, atol=1e-9)
    assert report.imag_residue_max < 1e-9
