"""The kernels of small rings read from tables.

Up to `rings.TABLE_ORDER` elements, bit lanes and place by place (add, sub
and neg) and the digit, coefficient and factor products are gathers from a
table that the structural kernel builds in one call at the ring's first
operation of that kind. Each table must equal that kernel called directly,
the digit route of tests/additive_oracle.py and the tower oracle of
tests/test_rings.py; scalar operations still return Python ints, and a
0-d product a 0-d int64 array. XOR, residues and the log tables, and every
ring past the cut, build no table.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from additive_oracle import digit_route
from test_rings import _tower_oracle, ring_specs

from ringlab.rings import (
    TABLE_ORDER,
    PolyQuotientRing,
    ProductRing,
    _additive_kernels,
    _coefficient_product,
    _digit_product,
    _factor_product,
    _reduction_matrix,
    make_ring,
)


def _structural_product(ring):
    """The product kernel that `_product_rule` tables, called directly; None
    for a kernel that is not tabled: residues mod M (Z/N, and m = 1 over
    Z/M) and the log tables of a field over Z/M."""
    if isinstance(ring, ProductRing):
        return lambda a, b: _factor_product(ring.factors, a, b)
    if not isinstance(ring, PolyQuotientRing):
        return None
    M = ring.characteristic
    if ring.q != M:
        return lambda a, b: _coefficient_product(ring.base, ring.g, a, b)
    if ring.m == 1 or ring.is_field:
        return None
    L = _reduction_matrix(M, ring.g)
    return lambda a, b: _digit_product(M, L, ring._places, a, b)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(max_order=TABLE_ORDER), seed=st.integers(0, 2**32 - 1))
@example(spec="GF(9)", seed=0)
@example(spec="GF(125)", seed=1)
@example(spec="GR(2,2,2)", seed=2)
@example(spec="GR(3,2,2;f=2,2,1)", seed=3)
@example(spec="PQ(q=2;g=1,0,0,0,0,0,0,1)", seed=4)
@example(spec="PQ(q=4;g=1,0,1)", seed=5)
@example(spec="PQ(q=11;g=0,0,1)", seed=6)
@example(spec="prod(Z/4;GF(4))", seed=7)
@example(spec="prod(Z/2;GF(64))", seed=8)
@example(spec="prod(GF(4);GF(9))", seed=9)
@example(spec="GF(128)", seed=10)
@example(spec="GR(2,7,1)", seed=11)
@example(spec="Z/128", seed=12)
@example(spec="GF(169)", seed=13)
@example(spec="prod(Z/3;GF(64))", seed=14)
@example(spec="GR(3,5,1)", seed=15)
@example(spec="PQ(q=2;g=1,0,0,0,0,0,0,0,1)", seed=16)
def test_small_rings_gather_from_tables_of_their_kernels(spec, seed):
    """After one call of each operation, a ring of at most TABLE_ORDER
    elements keeps, read-only in its memo, the add, sub and neg tables of
    bit lanes or place by place, and the mul table of a digit, coefficient
    or factor product; no other ring keeps a table. Each table equals its
    structural kernel on every pair, and the operations agree with the
    digit route and the tower oracle on drawn operands: scalars are ints,
    and 0-d operands give a 0-d int64 product."""
    ring = make_ring(spec)
    n, radices = ring.order, ring.additive_orders()
    # Every element of a small ring; past the cut, as many as a table holds.
    x = np.arange(min(n, TABLE_ORDER), dtype=np.int64)
    grid = (x[:, None], x)
    got = {"add": ring.add_vec(*grid), "sub": ring.sub_vec(*grid), "neg": ring.neg_vec(x),
           "mul": ring.mul_vec(*grid)}

    small = n <= TABLE_ORDER
    add, sub, neg = _additive_kernels(radices, ring._places.tolist())
    lanes_or_places = len(radices) > 1 and set(radices) != {2}
    product = _structural_product(ring)
    want = {"add": add(*grid), "sub": sub(*grid), "neg": neg(x),
            "mul": None if product is None else product(*grid)}
    tabled = {name: small and (lanes_or_places if name != "mul" else product is not None)
              for name in want}
    for name, table in want.items():
        assert (("table", name) in ring._memo) == tabled[name], (spec, name)
        if tabled[name]:
            kept = ring._memo["table", name]
            assert not kept.flags.writeable and kept.dtype == np.int64
            np.testing.assert_array_equal(kept, table, err_msg=f"{spec} {name}")
        if table is not None:
            np.testing.assert_array_equal(got[name], table, err_msg=f"{spec} {name}")

    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, (2, 60))
    np.testing.assert_array_equal(ring.add_vec(a, b), digit_route(ring, a, b))
    np.testing.assert_array_equal(ring.sub_vec(a, b), digit_route(ring, a, b, -1))
    np.testing.assert_array_equal(ring.neg_vec(b), digit_route(ring, 0, b, -1))
    encode, mul = _tower_oracle(ring)
    for u, v, z in zip(a.tolist(), b.tolist(), ring.mul_vec(a, b).tolist()):
        assert encode(z) == mul(encode(u), encode(v)), (spec, u, v)
    u, v = int(a[0]), int(b[0])
    for result in (ring.add(u, v), ring.sub(u, v), ring.neg(v), ring.mul(u, v)):
        assert type(result) is int, spec
    assert ring.mul(u, v) == int(ring.mul_vec(u, v))
    zero_d = ring.mul_vec(np.asarray(u), np.int64(v))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d.dtype == np.int64


def test_tables_are_built_at_the_first_operation_of_their_kind():
    """Building a ring builds no table; its first add builds the add table
    alone, and its first product the mul table, each once."""
    ring = make_ring("prod(Z/3;GR(2,2,2))")
    assert ring.memo_bytes == 0 and not ring._memo
    assert ring.add(5, 7) == int(ring.add_vec(5, 7))
    assert list(ring._memo) == [("table", "add")]
    table = ring._memo["table", "add"]
    ring.add_vec(np.arange(ring.order), 1)
    assert ring._memo["table", "add"] is table
    ring.mul(2, 3)
    assert list(ring._memo) == [("table", "add"), ("table", "mul")]
    assert ring.memo_bytes == 2 * ring.order**2 * 8
