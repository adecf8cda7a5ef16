"""Additive characters: orthogonality, multiplicativity, Parseval, and the
exact-angle summation route, each checked against naive complex arithmetic.
"""

import numpy as np
import pytest

from ringlab.errors import WorkGuardExceeded
from ringlab.characters import (
    all_char_sums,
    annihilator,
    annihilator_mask,
    char_sum,
    character_group,
    character_table,
    characters,
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
    chars = list(characters(ring))
    assert len(chars) == ring.order
    assert chars[0].is_trivial
    assert all(not c.is_trivial for c in chars[1:])
    assert all(c.value(0) == 1 for c in chars)


@pytest.mark.parametrize("spec", SPECS)
def test_additivity(spec):
    """chi(a + b) = chi(a) chi(b) for every character, seeded pairs."""
    ring = make_ring(spec)
    rng = np.random.default_rng(11)
    chars = list(characters(ring))
    for _ in range(25):
        a, b = (int(v) for v in rng.integers(0, ring.order, 2))
        s = ring.add(a, b)
        for c in chars:
            assert c.value(s) == pytest.approx(c.value(a) * c.value(b), abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_orthogonality(spec):
    ring = make_ring(spec)
    T = character_table(ring)
    n = ring.order
    gram = T @ T.conj().T
    assert np.allclose(gram, n * np.eye(n), atol=1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_table_rows_for_given_elements(spec):
    ring = make_ring(spec)
    T = character_table(ring)
    picked = np.array([ring.order - 1, 0, ring.order // 2], dtype=np.int64)
    np.testing.assert_array_equal(character_table(ring, picked), T[picked])
    assert character_table(ring, picked[:0]).shape == (0, ring.order)


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
    for c in characters(ring):
        naive = sum(c.value(int(v)) for v in values)
        assert char_sum(ring, c, values) == pytest.approx(naive, abs=1e-9)


def test_all_char_sums_matches_per_character():
    ring = make_ring("GR(2,2,2)")
    values = RingPoly.make(ring, (0, 1, 1)).values()
    counts = np.bincount(values, minlength=ring.order)
    batch = all_char_sums(ring, counts)
    for i, c in enumerate(characters(ring)):
        assert batch[i] == pytest.approx(char_sum(ring, c, values), abs=1e-12)


def test_gauss_sum_modulus():
    """The quadratic Gauss sum over Z/5 has |S|^2 = 5 exactly (1/5 after
    normalizing by the ring order)."""
    ring = make_ring("Z/5")
    values = RingPoly.make(ring, (0, 0, 1)).values()
    for c in characters(ring):
        if c.is_trivial:
            continue
        s = char_sum(ring, c, values)
        assert abs(s) ** 2 == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_annihilator_size_is_index(spec):
    """|H^perp| = |R| / |H| for the value subgroup of x^2."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, (0, 0, ring.one))
    H = value_subgroup(ring, P)
    ann = annihilator(ring, list(H.elements))
    assert len(ann) * len(H) == ring.order


def test_annihilator_mask_is_exact():
    ring = make_ring("Z/12")
    mask = annihilator_mask(ring, [4])
    chars = list(characters(ring))
    closure = {0, 4, 8}
    for i, c in enumerate(chars):
        kills = all(abs(c.value(h) - 1) < 1e-12 for h in closure)
        assert bool(mask[i]) == kills


def test_annihilator_guard():
    ring = make_ring("Z/8192")
    with pytest.raises(WorkGuardExceeded):
        annihilator(ring, [2])


def test_unit_table_is_exact_roots_of_unity():
    ring = make_ring("GF(9)")
    group = character_group(ring)
    L = group.L
    expected = np.exp(2j * np.pi * np.arange(L) / L)
    assert np.allclose(group.unit_table, expected, atol=1e-15)


def test_angles_for_elements_consistent_with_values():
    ring = make_ring("prod(Z/4;GF(4))")
    group = character_group(ring)
    elements = np.arange(ring.order, dtype=np.int64)
    angles = group.angles_for_elements(elements)
    for i, c in enumerate(characters(ring)):
        for x in elements:
            want = c.value(int(x))
            got = group.unit_table[angles[x, i]]
            assert got == pytest.approx(want, abs=1e-12)


def test_coeff_matrix_is_read_only():
    group = character_group(make_ring("Z/12"))
    with pytest.raises(ValueError):
        group.coeff_matrix()[1, 0] = 5
    with pytest.raises(ValueError):
        group.unit_table[1] = 0
    assert group.char_at(1).coeffs == (1,)
    assert group.char_at(1).value(3) == pytest.approx(1j)


@pytest.mark.parametrize("spec", SPECS)
def test_full_subgroup_annihilator_is_trivial(spec):
    """The full subgroup's generators generate all of R, so only the
    trivial character annihilates it."""
    ring = make_ring(spec)
    ann = annihilator(ring, full_subgroup(ring))
    assert [c.index for c in ann] == [0]
