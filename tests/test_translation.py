"""The translation operator x -> x + v and its path for large orders.

Every translate in the package comes from Ring.translation: row v of the
addition table (equal to column v, the table being symmetric) up to order
2^11, and computed one shift at a time above it.
Lowering the cap below a ring's order sends every caller down the second
path, which must reproduce what the table gives.
"""

import numpy as np
import pytest

from ringlab import rings
from ringlab.combinatorics import adjacency_masks, config_count, forbidden_differences
from ringlab.errors import WorkGuardExceeded
from ringlab.harmonics import random_functions, te_estimate, te_sweep, vdc_check
from ringlab.paley import build_paley, uniformity_measure
from ringlab.polynomials import RingPoly, derivational_degree
from ringlab.subgroups import value_subgroup

# One ring per constructor.
SPECS = ("Z/12", "GF(9)", "PQ(q=2;g=1,0,1)", "GR(2,2,2)", "prod(Z/3;GF(4))")


def _results(spec: str) -> dict:
    """Everything that consumes translates, on a freshly built ring."""
    ring = rings.make_ring(spec)
    n = ring.order
    P = RingPoly.from_int_coeffs(ring, (0, 1, 1))
    Q = RingPoly.from_int_coeffs(ring, (1, 0, 0, 1))
    fs = random_functions(ring, 3, 11)
    single = te_estimate(ring, P, fs[0])
    batch = te_estimate(ring, P, fs)
    sweep = te_sweep(ring, [P, Q], fs)
    vdc = vdc_check(ring, value_subgroup(ring, P), fs, 2)
    config = config_count(ring, P, range(0, n, 2), range(n // 3, n))
    uniformity = uniformity_measure(build_paley(ring, 2), mode="structured")
    return {
        "ddeg": derivational_degree(ring, P, mode="exact"),
        "te_single": (single.lhs, single.fourier_lhs, single.rhs),
        "te_batch": np.stack([batch.lhs, batch.fourier_lhs, batch.rhs]),
        "sweep": np.stack([sweep["lhs"], sweep["fourier"], sweep["rhs"]]),
        "vdc": np.stack([vdc.lhs, vdc.rhs_real]),
        "config": config.count,
        "uniformity": uniformity.to_dict(),
        "masks": adjacency_masks(ring, forbidden_differences(ring, P)),
        "translates": np.stack([ring.translation(v) for v in range(n)]),
    }


@pytest.mark.parametrize("spec", SPECS)
def test_large_order_path_matches_table(spec, monkeypatch):
    with_table = _results(spec)
    monkeypatch.setattr(rings, "_ADD_TABLE_MAX_ORDER", 1)
    direct = _results(spec)
    assert direct.keys() == with_table.keys()
    for key, want in with_table.items():
        got = direct[key]
        if isinstance(want, (np.ndarray, tuple)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=key)
        else:
            assert got == want, key


def test_add_table_refused_above_cap(monkeypatch):
    ring = rings.make_ring("Z/20")
    ring.add_table()
    monkeypatch.setattr(rings, "_ADD_TABLE_MAX_ORDER", ring.order - 1)
    with pytest.raises(WorkGuardExceeded):
        ring.add_table()
    assert ring.translation(3).tolist() == [(x + 3) % 20 for x in range(20)]
