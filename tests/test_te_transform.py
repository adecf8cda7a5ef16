"""The transform routes of the total ergodicity estimate against the two n^2
routes they replaced (`te_oracle`), on all five constructors up to order
1024: drawn small rings, and each constructor near 1024. Also the sampled
exact check against a transform that lists the characters in the wrong
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import te_oracle
from test_polynomials import ORACLE_RINGS

from ringlab import harmonics
from ringlab.characters import _element_cube
from ringlab.harmonics import ROUTE_TOL, SAMPLE_ROWS, random_functions, te_estimate
from ringlab.polynomials import RingPoly
from ringlab.rings import make_ring

# Each constructor near order 1024.
LARGE_RINGS = (
    "Z/1000", "Z/1024", "GF(729)", "GF(1024)", "GR(2,2,5)", "GR(3,2,3)",
    "PQ(q=32;g=0,0,1)", "PQ(q=4;g=1,0,0,0,0,1)", "prod(Z/8;GF(125))",
)


def _check_against_oracle(ring, P, fs, seed):
    rep = te_estimate(ring, P, fs, ddeg_mode="bound", seed=seed)
    np.testing.assert_allclose(rep.lhs, te_oracle.direct_lhs(ring, P, fs), rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        rep.fourier_lhs, te_oracle.parseval_lhs(ring, P, fs), rtol=0, atol=1e-9
    )
    assert rep.sample_rows == min(SAMPLE_ROWS, ring.order)
    assert rep.sample_gap.shape == (len(fs),)
    assert np.all(rep.sample_gap < ROUTE_TOL)
    assert np.all(rep.route_gap < ROUTE_TOL)


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_te_routes_match_the_n2_oracle(family, data):
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    coeffs = data.draw(
        st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=4), label="coeffs"
    )
    count = data.draw(st.integers(1, 3), label="count")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fs = random_functions(ring, count, seed)
    _check_against_oracle(ring, RingPoly.make(ring, coeffs), fs, seed)


@pytest.mark.parametrize("spec", LARGE_RINGS)
def test_te_routes_match_the_n2_oracle_near_order_1024(spec):
    ring = make_ring(spec)
    P = RingPoly.from_int_coeffs(ring, (1, 1, 1, 1))
    _check_against_oracle(ring, P, random_functions(ring, 2, 9), 9)


def _sums_without_axis_reversal(ring, w):
    """all_char_sums with the transform left in element-cube axis order."""
    cube, axes = _element_cube(ring, w)
    return (np.fft.ifftn(cube, axes=axes) * ring.order).reshape(np.shape(w))


@pytest.mark.parametrize("spec", ["GR(2,2,3)", "prod(Z/4;GF(4))"])
def test_sampled_check_sees_characters_out_of_order(spec, monkeypatch):
    """On a ring with more than one cyclic factor, a transform that skips
    the axis reversal lists the characters in another order; the sampled
    character check must see it. One cyclic factor has no axes to reverse."""
    ring = make_ring(spec)
    P = RingPoly.from_int_coeffs(ring, (0, 1, 1))
    fs = random_functions(ring, 2, 5)
    honest = te_estimate(ring, P, fs, seed=3)
    assert np.all(honest.sample_gap < ROUTE_TOL)
    monkeypatch.setattr(harmonics, "all_char_sums", _sums_without_axis_reversal)
    broken = te_estimate(ring, P, fs, seed=3)
    assert np.all(np.maximum(broken.sample_gap, broken.route_gap) >= ROUTE_TOL)
    assert np.all(broken.sample_gap >= ROUTE_TOL)
    np.testing.assert_allclose(broken.lhs, honest.lhs, rtol=0, atol=1e-12)


def test_sample_is_fixed_by_the_seed():
    """Equal calls give equal reports, and the seed of the sample leaves
    both routes as they are."""
    ring = make_ring("Z/12")
    P = RingPoly.make(ring, (0, 0, 1))
    fs = random_functions(ring, 3, 7)
    a, b = te_estimate(ring, P, fs, seed=1), te_estimate(ring, P, fs, seed=1)
    c = te_estimate(ring, P, fs, seed=2)
    assert np.array_equal(a.sample_gap, b.sample_gap)
    assert np.array_equal(a.lhs, c.lhs) and np.array_equal(a.fourier_lhs, c.fourier_lhs)


@pytest.mark.parametrize("spec", ["Z/64", "GF(256)", "prod(Z/8;GF(125))"])
def test_sample_blocks_leave_the_report_unchanged(spec, monkeypatch):
    """The sampled check gathers its rows and character columns in blocks;
    blocks of one row each give the same bits as one block."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, (1, 0, 0, 1))
    fs = random_functions(ring, 3, 5)
    whole = te_estimate(ring, P, fs, ddeg_mode="bound", seed=4)
    monkeypatch.setattr(harmonics, "_SAMPLE_BLOCK", 1)
    split = te_estimate(ring, P, fs, ddeg_mode="bound", seed=4)
    assert np.array_equal(whole.sample_gap, split.sample_gap)
    assert np.array_equal(whole.lhs, split.lhs)
