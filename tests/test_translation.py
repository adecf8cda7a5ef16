"""The translation operator x -> x + v.

Every translate in the package comes from Ring.add_table(shifts): one
add_vec over the (len(shifts), order) grid, building only the rows asked
for, either directly or through Ring.translates, which yields the rows in
blocks of about 2^18 entries. Both are checked against the full table built
one digit place at a time (tests/test_lanes.py) on every constructor, and
every consumer is run once more with add_table replaced by rows of that
table, which must not change a result. No consumer holds an order x order
table: two of them are measured at order 2048.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_lanes import _table_by_places

from ringlab import rings
from ringlab.combinatorics import adjacency_masks, config_count, forbidden_differences
from ringlab.harmonics import random_functions, te_estimate, te_sweep, vdc_check
from ringlab.paley import adjacency_matrix, build_paley, uniformity_measure
from ringlab.polynomials import RingPoly, derivational_degree
from ringlab.subgroups import from_generators, value_subgroup

# One ring per constructor.
SPECS = ("Z/12", "GF(9)", "PQ(q=2;g=1,0,1)", "GR(2,2,2)", "prod(Z/3;GF(4))")

# Each constructor at a small order and near 1000, where a translates block
# holds 262 rows: 1000 shifts fill three blocks and part of a fourth.
TABLE_SPECS = (
    "Z/7", "Z/1000", "GF(8)", "GF(729)", "PQ(q=2;g=1,0,1)", "PQ(q=9;g=0,0,0,1)",
    "GR(2,2,2)", "GR(3,2,3)", "prod(Z/3;GF(4))", "prod(Z/8;GF(125))",
)
TABLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _oracle_add_table(ring, shifts):
    return _table_by_places(ring)[np.asarray(shifts, dtype=np.int64)]


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
    graph = build_paley(ring, 2)
    uniformity = uniformity_measure(graph, mode="structured")
    return {
        "ddeg": derivational_degree(ring, P, mode="exact"),
        "te_single": (single.lhs, single.fourier_lhs, single.rhs),
        "te_batch": np.stack([batch.lhs, batch.fourier_lhs, batch.rhs]),
        "sweep": np.stack([sweep["lhs"], sweep["fourier"], sweep["rhs"]]),
        "vdc": np.stack([vdc.lhs, vdc.rhs_real]),
        "config": config.count,
        "uniformity": uniformity.to_dict(),
        "masks": adjacency_masks(ring, forbidden_differences(ring, P)),
        "adjacency": adjacency_matrix(graph),
        "translates": np.stack([row for _, row in ring.translates(range(n))]),
    }


@pytest.mark.parametrize("spec", SPECS)
def test_large_order_path_matches_table(spec, monkeypatch):
    """The add_vec rows, once the route above order 2^11 only, now serve
    every order; each consumer must give what the full table gives."""
    direct = _results(spec)
    monkeypatch.setattr(rings.Ring, "add_table", _oracle_add_table)
    with_table = _results(spec)
    assert direct.keys() == with_table.keys()
    for key, want in with_table.items():
        got = direct[key]
        if isinstance(want, (np.ndarray, tuple)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=key)
        else:
            assert got == want, key


@TABLES
@given(
    spec=st.sampled_from(TABLE_SPECS),
    count=st.integers(0, 1200),
    seed=st.integers(0, 2**16),
)
@example(spec="Z/1000", count=1000, seed=0)
@example(spec="prod(Z/8;GF(125))", count=1000, seed=1)
def test_add_table_and_translates_match_place_table(spec, count, seed):
    """Rows come in the order asked, repeated shifts included, and the
    blocks of translates join up to the same rows."""
    ring = rings.make_ring(spec)
    table = _table_by_places(ring)
    shifts = np.random.default_rng(seed).integers(0, ring.order, count)
    np.testing.assert_array_equal(ring.add_table(shifts), table[shifts])
    pairs = list(ring.translates(shifts))
    assert [v for v, _ in pairs] == shifts.tolist()
    for v, row in pairs:
        np.testing.assert_array_equal(row, table[v])


def test_add_table_has_no_cap():
    """Any order gets the rows it asks for, and the ring keeps none."""
    ring = rings.make_ring("Z/20")
    assert ring.add_table([3])[0].tolist() == [(x + 3) % 20 for x in range(20)]
    large = rings.make_ring("Z/4096")
    rows = large.add_table([5, 0, 5])
    assert rows.shape == (3, 4096)
    np.testing.assert_array_equal(rows[1], np.arange(4096))
    assert ring._memo == {} and large._memo == {}


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_order_2048_consumers_stay_small():
    """The order x order int32 table alone took 16 MB at order 2048."""
    field = rings.make_ring("GF(2048)")
    H = from_generators(field, [1, 2])
    assert len(H) == 4
    fs = random_functions(field, 1, 5)
    assert _peak_bytes(lambda: vdc_check(field, H, fs, 2)) < 2 << 20
    zmod = rings.make_ring("Z/2048")
    P = RingPoly.from_int_coeffs(zmod, (0, 0, 0, 1))
    assert _peak_bytes(lambda: derivational_degree(zmod, P, mode="exact")) < 2 << 20
