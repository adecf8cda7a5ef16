"""Additive characters: positions, orthogonality, multiplicativity, Parseval,
and the exact-angle summation route, each checked against the naive
character oracle (`character_oracle.py`) or plain complex arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import character_oracle as oracle
from test_polynomials import ORACLE_RINGS

from ringlab.characters import (
    all_char_sums,
    annihilator_mask,
    char_sum,
    character_group,
    character_table,
)
from ringlab.rings import make_ring
from ringlab.subgroups import full_subgroup, value_subgroup
from ringlab.polynomials import RingPoly

SPECS = ("Z/12", "GF(8)", "GR(3,2,2)", "PQ(q=2;g=0,1,1)", "prod(Z/4;GF(4))")


@pytest.mark.parametrize("spec", SPECS)
def test_character_count_and_trivial_first(spec):
    ring = make_ring(spec)
    group = character_group(ring)
    assert group.count == ring.order
    coeffs = group.coeffs(np.arange(ring.order))
    assert coeffs.shape == (ring.order, len(ring.additive_orders()))
    assert not coeffs[0].any()
    assert coeffs[1:].any(axis=1).all()
    np.testing.assert_array_equal(character_table(ring)[0], 1)


@pytest.mark.parametrize("spec", SPECS)
def test_positions_follow_lexicographic_coefficients(spec):
    """Position p holds the p-th coefficient tuple in lexicographic order,
    first coefficient most significant, and position() inverts coeffs()."""
    ring = make_ring(spec)
    group = character_group(ring)
    tuples = oracle.coeff_tuples(ring)
    assert [tuple(c) for c in group.coeffs(np.arange(ring.order)).tolist()] == tuples
    assert [group.position(s) for s in tuples] == list(range(ring.order))
    assert tuple(group.coeffs(ring.order - 1).tolist()) == tuples[-1]


def test_position_reduces_coefficients_and_counts_them():
    group = character_group(make_ring("prod(Z/4;GF(4))"))
    assert group.radices == (4, 2, 2)
    assert group.position((1, 0, 0)) == 4
    assert group.position((-3, 2, 3)) == group.position((1, 0, 1)) == 5
    for bad in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="expected 3 coefficients"):
            group.position(bad)


def test_position_one_of_z12_is_fundamental():
    ring = make_ring("Z/12")
    group = character_group(ring)
    assert group.coeffs(1).tolist() == [1]
    assert group.position((13,)) == 1
    assert character_table(ring, [1])[3, 0] == pytest.approx(1j)


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_positions_and_table_match_the_oracle(family, data):
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    group = character_group(ring)
    chars = data.draw(
        st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=6), label="chars"
    )
    tuples = oracle.coeff_tuples(ring)
    coeffs = group.coeffs(np.asarray(chars)).tolist()
    assert [tuple(c) for c in coeffs] == [tuples[p] for p in chars]
    assert [group.position(c) for c in coeffs] == chars
    lifts = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(group.radices), max_size=len(group.radices)),
        label="lifts",
    )
    lifted = [c + t * m for c, t, m in zip(coeffs[0], lifts, group.radices)]
    assert group.position(lifted) == chars[0]
    np.testing.assert_allclose(
        character_table(ring, chars=chars), oracle.table(ring, chars), atol=1e-12
    )


@pytest.mark.parametrize("spec", SPECS)
def test_additivity(spec):
    """chi(a + b) = chi(a) chi(b) for every character, seeded pairs."""
    ring = make_ring(spec)
    rng = np.random.default_rng(11)
    T = character_table(ring)
    for _ in range(25):
        a, b = (int(v) for v in rng.integers(0, ring.order, 2))
        np.testing.assert_allclose(T[ring.add(a, b)], T[a] * T[b], atol=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_orthogonality(spec):
    ring = make_ring(spec)
    T = character_table(ring)
    n = ring.order
    gram = T @ T.conj().T
    assert np.allclose(gram, n * np.eye(n), atol=1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_table_rows_for_given_elements(spec):
    """The table's rows at given elements are the oracle's chi(x), over
    every character in enumeration order."""
    ring = make_ring(spec)
    T = character_table(ring)
    tuples = oracle.coeff_tuples(ring)
    for x in (ring.order - 1, 0, ring.order // 2):
        want = [oracle.chi(ring, s, x) for s in tuples]
        np.testing.assert_allclose(T[x], want, atol=1e-12)


def test_row_sums_vanish_for_nontrivial():
    ring = make_ring("GR(3,2,2)")
    T = character_table(ring)
    sums = T.sum(axis=1)
    assert sums[0] == pytest.approx(ring.order)
    assert np.abs(sums[1:]).max() < 1e-9


@pytest.mark.parametrize("spec", SPECS)
def test_parseval(spec):
    ring = make_ring(spec)
    n = ring.order
    rng = np.random.default_rng(3)
    f = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    T = character_table(ring)
    fhat = (T.conj() @ f) / n
    assert np.sum(np.abs(fhat) ** 2) == pytest.approx(np.mean(np.abs(f) ** 2), abs=1e-10)


def test_char_sum_matches_naive():
    ring = make_ring("Z/13")
    values = RingPoly.make(ring, (0, 0, 1)).values()
    for p, s in enumerate(oracle.coeff_tuples(ring)):
        naive = sum(oracle.chi(ring, s, int(v)) for v in values)
        assert char_sum(ring, p, values) == pytest.approx(naive, abs=1e-9)
    assert char_sum(ring, 1, []) == 0


def test_all_char_sums_matches_per_character():
    ring = make_ring("GR(2,2,2)")
    values = RingPoly.make(ring, (0, 1, 1)).values()
    counts = np.bincount(values, minlength=ring.order)
    batch = all_char_sums(ring, counts)
    for p in range(ring.order):
        assert batch[p] == pytest.approx(char_sum(ring, p, values), abs=1e-12)


def test_gauss_sum_modulus():
    """The quadratic Gauss sum over Z/5 has |S|^2 = 5 exactly (1/5 after
    normalizing by the ring order)."""
    ring = make_ring("Z/5")
    values = RingPoly.make(ring, (0, 0, 1)).values()
    for p in range(1, ring.order):
        s = char_sum(ring, p, values)
        assert abs(s) ** 2 == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_annihilator_size_is_index(spec):
    """|H^perp| = |R| / |H| for the value subgroup of x^2."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, (0, 0, ring.one))
    H = value_subgroup(ring, P)
    assert annihilator_mask(ring, list(H.elements)).sum() * len(H) == ring.order


def test_annihilator_mask_is_exact():
    ring = make_ring("Z/12")
    mask = annihilator_mask(ring, [4])
    closure = {0, 4, 8}
    for p, s in enumerate(oracle.coeff_tuples(ring)):
        kills = all(abs(oracle.chi(ring, s, h) - 1) < 1e-12 for h in closure)
        assert bool(mask[p]) == kills


def test_unit_table_is_exact_roots_of_unity():
    ring = make_ring("GF(9)")
    group = character_group(ring)
    L = group.L
    expected = np.exp(2j * np.pi * np.arange(L) / L)
    assert np.allclose(group.unit_table, expected, atol=1e-15)


def test_angles_match_the_oracle():
    """Every exact angle, as a matrix over all characters and as the vector
    of one position, against the oracle's values."""
    ring = make_ring("prod(Z/4;GF(4))")
    group = character_group(ring)
    elements = np.arange(ring.order, dtype=np.int64)
    angles = group.angles(elements)
    want = oracle.table(ring)
    np.testing.assert_allclose(group.unit_table[angles], want, atol=1e-12)
    for p in (0, 1, 5, ring.order - 1):
        np.testing.assert_array_equal(group.angles(elements, p), angles[:, p])


@pytest.mark.parametrize("spec", SPECS)
def test_full_subgroup_annihilator_is_trivial(spec):
    """The full subgroup's generators generate all of R, so only the
    trivial character annihilates it."""
    ring = make_ring(spec)
    mask = annihilator_mask(ring, full_subgroup(ring).generators)
    assert np.flatnonzero(mask).tolist() == [0]
