"""The translation operator x -> x + v.

Every translate in the package is an add_vec, built by one of two methods:
Ring.add_table(shifts), the whole rows for the shifts given and only
those, and Ring.translate_counts(mask, shifts, rows), which counts the
translates of each row that land in a mask and builds them in blocks of
about 2^18 entries. Both are checked against the full table built one digit
place at a time (tests/additive_oracle.py) on every constructor, and every
consumer is run once more with both replaced by reads of that table, which
must not change a result. Two consumers are measured at order 2048, where
an order x order table alone would take 16 MB.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poly_oracle import from_int_coeffs
from additive_oracle import table_by_places

from ringlab import budget, rings
from ringlab.combinatorics import adjacency_masks, config_count, forbidden_differences
from ringlab.harmonics import random_functions, te_estimate, te_sweep, vdc_check
from ringlab.paley import build_paley, uniformity_measure
from ringlab.polynomials import derivational_degree
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
    return table_by_places(ring)[np.asarray(shifts, dtype=np.int64)]


def _oracle_translate_counts(ring, mask, shifts, rows=None):
    """Ring.translate_counts read from the place table one shift at a time."""
    table = table_by_places(ring)
    mask = np.asarray(mask)
    rows = np.arange(ring.order) if rows is None else np.asarray(rows, dtype=np.int64)
    out = np.zeros(mask.shape[:-1] + (rows.size,), dtype=np.int64)
    for v in np.asarray(shifts, dtype=np.int64).tolist():
        out += mask[..., table[v, rows]]
    return out


def _results(spec: str) -> dict:
    """Everything that consumes translates, on a freshly built ring."""
    ring = rings.make_ring(spec)
    n = ring.order
    P = from_int_coeffs(ring, (0, 1, 1))
    Q = from_int_coeffs(ring, (1, 0, 0, 1))
    fs = random_functions(ring, 3, 11)
    single = te_estimate(ring, P, fs[:1])
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
        "vdc": np.stack([vdc.lhs, vdc.rhs]),
        "config": config.count,
        "uniformity": {
            **vars(uniformity),
            "witness_a": uniformity.witness_a.tolist(),
            "witness_b": uniformity.witness_b.tolist(),
        },
        "masks": adjacency_masks(ring, forbidden_differences(ring, P.values())),
    }


@pytest.mark.parametrize("spec", SPECS)
def test_large_order_path_matches_table(spec, monkeypatch):
    """The add_vec rows, once the route above order 2^11 only, now serve
    every order; each consumer must give what the full table gives."""
    direct = _results(spec)
    monkeypatch.setattr(rings.Ring, "add_table", _oracle_add_table)
    monkeypatch.setattr(rings.Ring, "translate_counts", _oracle_translate_counts)
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
    """Rows come in the order asked, repeated shifts included."""
    ring = rings.make_ring(spec)
    shifts = np.random.default_rng(seed).integers(0, ring.order, count)
    np.testing.assert_array_equal(ring.add_table(shifts), table_by_places(ring)[shifts])


# Point masks, one row per element, only at the small order of each
# constructor (every other entry of TABLE_SPECS): at order 1000 one block
# of their translates alone holds 2.6 * 10^8 entries.
COUNT_CASES = [(spec, kind) for spec in TABLE_SPECS for kind in ("bool", "int64")]
COUNT_CASES += [(spec, "points") for spec in TABLE_SPECS[::2]]


@TABLES
@given(
    case=st.sampled_from(COUNT_CASES),
    rows_kind=st.sampled_from(("all", "some", "none")),
    count=st.integers(0, 1200),
    seed=st.integers(0, 2**16),
)
@example(case=("Z/1000", "bool"), rows_kind="all", count=1000, seed=0)
@example(case=("prod(Z/8;GF(125))", "int64"), rows_kind="some", count=1000, seed=1)
@example(case=("GF(8)", "points"), rows_kind="all", count=0, seed=2)
@example(case=("GR(2,2,2)", "points"), rows_kind="none", count=5, seed=3)
def test_translate_counts_match_place_table(case, rows_kind, count, seed):
    """Counts over repeated shifts, at rows with repeats, at every row or
    at none, equal those read from the place table, and blocks of one
    entry give the same integers as the default blocks (1,000 shifts at
    order 1000 fill four)."""
    spec, kind = case
    ring = rings.make_ring(spec)
    n = ring.order
    rng = np.random.default_rng(seed)
    mask = {
        "bool": lambda: rng.integers(0, 2, n).astype(bool),
        "int64": lambda: rng.integers(-3, 4, n),
        "points": lambda: np.eye(n, dtype=bool),
    }[kind]()
    shifts = rng.integers(0, n, count)
    rows = {"all": None, "some": rng.integers(0, n, 40), "none": np.arange(0)}[rows_kind]
    want = _oracle_translate_counts(ring, mask, shifts, rows)
    got = ring.translate_counts(mask, shifts, rows)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    with mock.patch.object(budget, "BLOCK_ENTRIES", 1):
        np.testing.assert_array_equal(ring.translate_counts(mask, shifts, rows), want)


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
    P = from_int_coeffs(zmod, (0, 0, 0, 1))
    assert _peak_bytes(lambda: derivational_degree(zmod, P, mode="exact")) < 2 << 20
