"""Lane arithmetic on rings whose every radix is a power of two.

Each digit of such a ring is a bit field (a lane) of the element index, so
add_vec, sub_vec and neg_vec act on whole indices with masked carries and
borrows, and add_table builds its rows with add_vec. Both are checked here
against the digit-wise arithmetic and the addition table built one digit
place at a time, on random Galois rings and products of order at most 1024.
Z/2^k reduces all four of its kernels with the mask n - 1; they are checked
against `% n` up to Z/4096.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.rings import ZModRing, make_ring

LANES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
MAX_LOG_ORDER = 10
MAX_LOG_ZMOD = 12


def _gr(n, r):
    return f"GR(2,{n},{r})"


@st.composite
def lane_specs(draw):
    """GR(2,n,r), prod(Z/2^a;GF(2^b)), prod(Z/2^a;Z/2^b) and a Galois ring
    inside a product, each of order at most 2^10."""
    kind = draw(st.sampled_from(["gr", "z-gf", "z-z", "gr-in-prod"]), label="kind")
    a = draw(st.integers(1, 5), label="a")
    b = draw(st.integers(1, 5), label="b")
    if kind == "gr":
        return _gr(a, draw(st.integers(1, MAX_LOG_ORDER // a), label="r"))
    if kind == "z-gf":
        return f"prod(Z/{2**a};GF({2**b}))"
    if kind == "z-z":
        return f"prod(Z/{2**a};Z/{2**b})"
    n = draw(st.integers(2, 3), label="n")
    r = draw(st.integers(1, (MAX_LOG_ORDER - a) // n), label="r")
    return draw(
        st.sampled_from([f"prod({_gr(n, r)};Z/{2**a})", f"prod(GF({2**a});{_gr(n, r)})"]),
        label="order",
    )


@st.composite
def lane_or_zmod_specs(draw):
    """lane_specs, or Z/2^k with k = 1..12."""
    if draw(st.booleans(), label="zmod"):
        return f"Z/{2 ** draw(st.integers(1, MAX_LOG_ZMOD), label='k')}"
    return draw(lane_specs())


def _digit_path(ring, a, b, sign):
    """a + sign * b digit by digit: the route for radices that are not
    powers of two."""
    return ring._from_digit_array(ring._digits_of(a) + sign * ring._digits_of(b))


def _table_by_places(ring):
    """The full addition table one digit place at a time: the oracle for
    Ring.add_table, which builds rows with add_vec instead."""
    n = ring.order
    digits = ring._digits_of(np.arange(n))
    table = np.zeros((n, n), dtype=np.int64)
    for d, m, place in zip(digits.T, ring._radices, ring._places):
        table += ((d[:, None] + d[None, :]) % m) * int(place)
    return table


@LANES
@given(spec=lane_or_zmod_specs(), data=st.data())
def test_lane_kernels_match_digit_path(spec, data):
    ring = make_ring(spec)
    n = ring.order
    zmod = isinstance(ring, ZModRing)
    assert n <= 1 << (MAX_LOG_ZMOD if zmod else MAX_LOG_ORDER) and ring._lanes
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    xs = np.arange(n, dtype=np.int64)
    col = rng.integers(0, n, (9, 1))
    row = rng.integers(0, n, (1, 7))
    v = int(rng.integers(0, n))
    pairs = [(col, row), (xs, v), (v, xs), (col, xs[None, :]), (v, n - 1), (n - 1, n - 1)]
    for a, b in pairs:
        shape = np.broadcast(a, b).shape
        for got, sign in ((ring.add_vec(a, b), 1), (ring.sub_vec(a, b), -1)):
            assert got.shape == shape
            np.testing.assert_array_equal(got, _digit_path(ring, a, b, sign))
    for a in (xs, col, row, v):
        got = ring.neg_vec(a)
        assert got.shape == np.shape(a)
        np.testing.assert_array_equal(got, _digit_path(ring, 0, a, -1))
    if zmod:
        for a, b in pairs:
            a, b = np.asarray(a), np.asarray(b)
            np.testing.assert_array_equal(ring.add_vec(a, b), (a + b) % n)
            np.testing.assert_array_equal(ring.sub_vec(a, b), (a - b) % n)
            np.testing.assert_array_equal(ring.neg_vec(a), -a % n)
            np.testing.assert_array_equal(ring.mul_vec(a, b), (a * b) % n)


@LANES
@given(spec=lane_specs(), data=st.data())
def test_block_built_add_table_and_translation(spec, data):
    ring = make_ring(spec)
    table = ring.add_table(range(ring.order))
    np.testing.assert_array_equal(table, _table_by_places(ring))
    v = data.draw(st.integers(0, ring.order - 1), label="v")
    np.testing.assert_array_equal(ring.add_table([v])[0], table[v])
    np.testing.assert_array_equal(ring.add_table([v])[0], table[:, v])


@pytest.mark.parametrize("spec", ["GF(9)", "prod(Z/5;Z/7)", "prod(Z/4;Z/3)"])
def test_other_radices_keep_the_digit_path(spec):
    ring = make_ring(spec)
    assert not ring._lanes
    np.testing.assert_array_equal(ring.add_table(range(ring.order)), _table_by_places(ring))
