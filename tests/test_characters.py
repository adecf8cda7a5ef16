"""Additive characters: positions, orthogonality, multiplicativity, Parseval,
and the exact-angle summation route, each checked against the naive
character oracle (`character_oracle.py`) or plain complex arithmetic; and
the axis-by-axis transform, which must equal numpy's fftn bit for bit.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import character_oracle as oracle
from test_polynomials import ORACLE_RINGS

from ringlab import budget, characters
from ringlab.characters import (
    all_char_sums,
    annihilator_mask,
    character_group,
    character_table,
    convolve,
)
from ringlab.rings import make_ring
from ringlab.subgroups import from_generators, full_subgroup, trivial_subgroup, value_subgroup
from ringlab.polynomials import RingPoly

SPECS = ("Z/12", "GF(8)", "GR(3,2,2)", "PQ(q=2;g=0,1,1)", "prod(Z/4;GF(4))")


@pytest.mark.parametrize("spec", SPECS)
def test_character_count_and_trivial_first(spec):
    ring = make_ring(spec)
    group = character_group(ring)
    assert character_table(ring).shape == (ring.order, ring.order)
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
        assert oracle.char_sum(ring, p, values) == pytest.approx(naive, abs=1e-9)
    assert oracle.char_sum(ring, 1, []) == 0


def test_all_char_sums_matches_per_character():
    ring = make_ring("GR(2,2,2)")
    values = RingPoly.make(ring, (0, 1, 1)).values()
    counts = np.bincount(values, minlength=ring.order)
    batch = all_char_sums(ring, counts)
    for p in range(ring.order):
        assert batch[p] == pytest.approx(oracle.char_sum(ring, p, values), abs=1e-12)


def test_gauss_sum_modulus():
    """The quadratic Gauss sum over Z/5 has |S|^2 = 5 exactly (1/5 after
    normalizing by the ring order)."""
    ring = make_ring("Z/5")
    values = RingPoly.make(ring, (0, 0, 1)).values()
    for p in range(1, ring.order):
        s = oracle.char_sum(ring, p, values)
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
    """The digit route's exact angles, as a matrix over all characters and
    as the vector of one position, against the naive oracle's values."""
    ring = make_ring("prod(Z/4;GF(4))")
    group = character_group(ring)
    elements = np.arange(ring.order, dtype=np.int64)
    angles = oracle.angles(ring, elements)
    want = oracle.table(ring)
    np.testing.assert_allclose(group.unit_table[angles], want, atol=1e-12)
    for p in (0, 1, 5, ring.order - 1):
        np.testing.assert_array_equal(oracle.angles(ring, elements, p), angles[:, p])


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_outer_sum_angles_match_the_digit_route(family, data):
    """character_table and annihilator_mask, both outer sums of angles,
    against the digit route's matrix product: the table whole and at drawn
    positions with repeats, the mask of a basis of H, of all of H, of no
    generator and of drawn generators with repeats. Every mask again at one
    generator per block."""
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    n = ring.order
    group = character_group(ring)
    elements = np.arange(n, dtype=np.int64)
    np.testing.assert_array_equal(
        character_table(ring), group.unit_table[oracle.angles(ring, elements)]
    )
    chars = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), label="chars")
    np.testing.assert_array_equal(
        character_table(ring, chars=np.asarray(chars)),
        group.unit_table[oracle.angles(ring, elements, np.asarray(chars))],
    )
    coeffs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), label="coeffs")
    H = value_subgroup(ring, RingPoly.make(ring, coeffs))
    drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="generators")
    empty = np.zeros(0, dtype=np.int64)
    for gens in (H.generators, H.elements, empty, np.asarray(drawn, dtype=np.int64)):
        want = (oracle.angles(ring, gens) == 0).all(axis=0)
        np.testing.assert_array_equal(annihilator_mask(ring, gens), want)
        with mock.patch.object(budget, "BLOCK_ENTRIES", 1):
            np.testing.assert_array_equal(annihilator_mask(ring, gens), want)


@pytest.mark.parametrize(
    "spec, runs",
    [("GF(256)", 2), ("GR(2,2,4)", 2), ("prod(Z/32;GF(32))", 2), ("prod(Z/9;GF(4);Z/5)", 2), ("GF(8192)", 3)],
)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_angles_across_runs_match_the_digit_route(spec, runs, data):
    """Rings whose axes split into several runs: a boundary inside radix-2
    axes, runs of radix 4, a one-axis Z/32 beside a run of 2s, mixed radices
    (9, 2, 2, 5), and three runs on GF(8192). character_table at drawn
    positions (whole too up to order 1024) and annihilator_mask of drawn
    generators against the digit route, again with every axis a run of its
    own and with runs of 8; GF(8192) gets no n x n oracle."""
    ring = make_ring(spec)
    n = ring.order
    assert len(characters._runs(ring.additive_orders())) == runs
    group = character_group(ring)
    elements = np.arange(n, dtype=np.int64)
    chars = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), label="chars"))
    gens = np.asarray(data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="generators"), dtype=np.int64)
    mask = (oracle.angles(ring, gens) == 0).all(axis=0)
    table = group.unit_table[oracle.angles(ring, elements, chars)]
    whole = group.unit_table[oracle.angles(ring, elements)] if n <= 1024 else None
    for size in (characters.RUN_SIZE, 1, 8):
        with mock.patch.object(characters, "RUN_SIZE", size):
            np.testing.assert_array_equal(character_table(ring, chars=chars), table)
            np.testing.assert_array_equal(annihilator_mask(ring, gens), mask)
            if whole is not None:
                np.testing.assert_array_equal(character_table(ring), whole)


@pytest.mark.parametrize("spec", SPECS)
def test_full_subgroup_annihilator_is_trivial(spec):
    """The full subgroup's generators generate all of R, so only the
    trivial character annihilates it."""
    ring = make_ring(spec)
    mask = annihilator_mask(ring, full_subgroup(ring).generators)
    assert np.flatnonzero(mask).tolist() == [0]


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_subgroup_annihilator_reads_a_full_h_from_duality(family, data):
    """SubgroupSet.annihilator against the angle route over H's generators,
    for value subgroups (of x, with H = R, of a constant, with H = {0}, and
    of a drawn P) and for subgroups from drawn generators, all of R and
    none: |H^perp| |H| = |R| each time, and H = R builds no angle cube."""
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    n = ring.order
    coeffs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), label="coeffs")
    drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=6), label="generators")
    subgroups = [value_subgroup(ring, RingPoly.make(ring, c)) for c in ((0, ring.one), (ring.one,), coeffs)]
    subgroups += [from_generators(ring, gens) for gens in (drawn, range(n), [])]
    subgroups += [full_subgroup(ring), trivial_subgroup(ring)]
    assert subgroups[0].is_full and len(subgroups[1]) == 1
    for H in subgroups:
        want = annihilator_mask(ring, H.generators)
        no_cube = mock.patch.object(characters, "_angle_cube", side_effect=AssertionError("angle cube"))
        with no_cube if H.is_full else contextlib.nullcontext():
            mask = H.annihilator()
        np.testing.assert_array_equal(mask, want)
        assert mask.sum() * len(H) == n


WEIGHT_KINDS = ("counts", "real", "complex", "signed zeros")


def _weights(rng, kind, shape):
    """Read-only weights of one kind, so that a transform writing into its
    argument raises: integer counts, real or complex uniforms, or complex
    weights with parts in {-1, -0.0, 0.0, 1}, whose sums hold signed zeros."""
    if kind == "counts":
        w = rng.integers(0, 5, shape)
    elif kind == "real":
        w = rng.uniform(-1, 1, shape)
    elif kind == "complex":
        w = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    else:
        w = np.empty(shape, dtype=complex)
        w.real, w.imag = rng.choice([-1.0, -0.0, 0.0, 1.0], (2,) + shape)
    w.flags.writeable = False
    return w


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_transforms_match_fftn(ring, kind, batch, seed):
    """all_char_sums and convolve against numpy's fftn route, bit for bit
    (signed zeros included), on a batch of weights and on one row."""
    rng = np.random.default_rng(seed)
    n = ring.order
    w = _weights(rng, kind, batch + (n,))
    mu = _weights(rng, "real", (n,))
    _assert_same_bits(all_char_sums(ring, w), oracle.fftn_char_sums(ring, w))
    _assert_same_bits(convolve(ring, w, mu), oracle.fftn_convolve(ring, w, mu))
    row = w.reshape(-1, n)[0]
    _assert_same_bits(convolve(ring, row, mu), oracle.fftn_convolve(ring, row, mu))


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_transforms_equal_numpy_fftn(family, data):
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    kind = data.draw(st.sampled_from(WEIGHT_KINDS), label="kind")
    batch = data.draw(st.sampled_from(((), (2, 3))), label="batch")
    _assert_transforms_match_fftn(ring, kind, batch, data.draw(st.integers(0, 2**16), label="seed"))


@pytest.mark.parametrize(
    "spec", ["Z/2", "prod(Z/2;Z/4)", "prod(Z/32;GF(32))", "GF(4096)", "prod(Z/3;Z/2;Z/5)"]
)
def test_butterfly_rings_equal_numpy_fftn(spec):
    """One axis of length 2; a length-2 axis beside a longer one; a
    pocketfft axis before the butterflies; twelve butterflies; a length-2
    axis between two pocketfft axes."""
    ring = make_ring(spec)
    for seed, kind in enumerate(WEIGHT_KINDS):
        for batch in ((), (2, 3)):
            _assert_transforms_match_fftn(ring, kind, batch, seed)


@pytest.mark.parametrize("spec, calls", [("GR(3,2,2)", 2), ("GF(64)", 0), ("prod(Z/4;GF(8))", 1)])
def test_only_longer_axes_call_pocketfft(spec, calls, monkeypatch):
    """One 1-D pocketfft call per axis longer than 2, and none per
    length-2 axis, in all_char_sums."""
    seen = []
    fft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, axis: seen.append(axis) or fft(a, axis=axis))
    ring = make_ring(spec)
    all_char_sums(ring, np.arange(ring.order))
    assert len(seen) == calls
