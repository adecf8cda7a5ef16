"""The coset-sum route of the van der Corput right side against the direct
enumeration of |H|^k translates that it replaced (`vdc_oracle`), on all five
constructors up to order 64, and its sampled exact check against a coset
matrix built from wrong representatives. Also the k limit and the float
range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdc_oracle
from test_polynomials import ORACLE_RINGS

from ringlab import harmonics
from ringlab.harmonics import ROUTE_TOL, SAMPLE_ROWS, VDC_MAX_K, random_functions, vdc_check
from ringlab.rings import make_ring
from ringlab.subgroups import from_generators, full_subgroup, trivial_subgroup

# Keeps the oracle's |H|^k x order enumeration small.
_ORACLE_WORK = 1 << 15


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_coset_route_matches_the_direct_enumeration(family, data):
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    n = ring.order
    assert n <= 64
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2), label="gens")
    H = data.draw(
        st.sampled_from([from_generators(ring, gens), trivial_subgroup(ring), full_subgroup(ring)]),
        label="H",
    )
    k = data.draw(
        st.sampled_from([k for k in (1, 2, 3) if len(H) ** k * n <= _ORACLE_WORK]), label="k"
    )
    fs = random_functions(ring, data.draw(st.integers(1, 3), label="count"), data.draw(
        st.integers(0, 2**16), label="seed"))
    rep = vdc_check(ring, H, fs, k)
    want = vdc_oracle.direct_rhs(ring, H, fs, k)
    np.testing.assert_allclose(rep.rhs, want.real, rtol=1e-12, atol=0)
    assert rep.rhs_imag_max == 0.0
    assert rep.sample_points == min(SAMPLE_ROWS, n)
    assert rep.sample_gap < ROUTE_TOL
    assert rep.satisfied


# One ring per constructor, each of order at most SAMPLE_ROWS so that every
# point is sampled, with a subgroup that does not hold the element 1, so
# that the representatives shifted by one name other cosets.
MUTATION_CASES = (
    ("Z/8", [2]), ("GF(16)", [2]), ("GR(2,2,2)", [4]), ("PQ(q=4;g=0,0,1)", [4]),
    ("prod(Z/4;GF(4))", [2]),
)


@pytest.mark.parametrize("spec, gens", MUTATION_CASES)
def test_sampled_check_catches_wrong_representatives(spec, gens, monkeypatch):
    ring = make_ring(spec)
    H = from_generators(ring, gens)
    assert ring.order <= SAMPLE_ROWS and 1 < len(H) < ring.order and 1 not in H
    fs = random_functions(ring, 2, 3)
    assert vdc_check(ring, H, fs, 1).sample_gap < ROUTE_TOL
    right = harmonics._coset_reps
    monkeypatch.setattr(harmonics, "_coset_reps", lambda ring, H: right(ring, H) + 1)
    assert vdc_check(ring, H, fs, 1).sample_gap >= ROUTE_TOL


@pytest.mark.parametrize("k", [0, VDC_MAX_K + 1])
def test_k_outside_the_limit_is_refused(k):
    ring = make_ring("Z/8")
    with pytest.raises(ValueError, match=str(VDC_MAX_K)):
        vdc_check(ring, trivial_subgroup(ring), random_functions(ring, 1, 0), k)


def test_deepest_k_stays_finite_and_overflow_is_refused():
    """|f| <= sqrt(2) keeps k = VDC_MAX_K inside float range; functions
    past it overflow the right side, which raises instead of reporting."""
    ring = make_ring("Z/8")
    H = trivial_subgroup(ring)
    rep = vdc_check(ring, H, random_functions(ring, 3, 0), VDC_MAX_K)
    assert np.isfinite(rep.rhs).all() and rep.satisfied
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        vdc_check(ring, H, np.full((1, 8), 10.0), VDC_MAX_K)
