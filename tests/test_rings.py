"""Ring constructions against independent oracles.

The Galois ring tables are rebuilt here from scratch (modular polynomial
arithmetic on coefficient tuples, no shared code) and compared entry by
entry. The same tuples, nested one level for PQ over GF(p^e), are the oracle
for `mul_vec` on every constructor. The ring axioms and the spec
round trip are Hypothesis properties over specs of all five constructors,
and the canonical modulus search is checked against the full scan it
shortened.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringlab.characters import character_group
from ringlab.errors import NotIrreducible, NotMonic, OrderTooLarge, ParseError
from ringlab.rings import (
    PolyQuotientRing,
    ProductRing,
    Ring,
    ZModRing,
    _monic_polys,
    canonical_irreducible,
    is_prime,
    make_ring,
    poly_is_irreducible,
)


def test_zmod_info():
    ring = make_ring("Z/12")
    assert ring.order == 12
    assert ring.characteristic == 12
    assert ring.lpf() == 2
    assert ring.units_count() == 4
    assert ring.prime_ideal_profile() == [(2, 2), (3, 1)]


def test_z360_profile():
    info = make_ring("Z/360").info_dict()
    assert info["lpf"] == 2
    assert info["prime_profile"] == [[2, 3], [3, 2], [5, 1]]
    assert info["units"] == 96


def test_field_info():
    ring = make_ring("GF(9)")
    assert ring.order == 9
    assert ring.characteristic == 3
    assert ring.lpf() == 9
    assert ring.units_count() == 8
    assert ring.is_field
    assert ring.prime_ideal_profile() == [(9, 1)]


def test_gf4_canonical_modulus():
    """Without an explicit modulus the smallest monic irreducible is chosen,
    so GF(4) is F_2[u]/(u^2+u+1)."""
    ring = make_ring("GF(4)")
    assert ring.defining == (1, 1, 1)


def test_galois_ring_invariants():
    ring = make_ring("GR(3,2,2)")
    assert ring.order == 81
    assert ring.characteristic == 9
    assert ring.lpf() == 9
    assert ring.units_count() == 72
    assert ring.prime_ideal_profile() == [(9, 2)]
    assert ring.additive_orders() == (9, 9)


def _poly_oracle_tables(p, n, defining, inner=None):
    """Independent arithmetic for C[x]/(f): coefficient tuples, schoolbook
    multiplication, remainder by the monic f. C is Z/p^n; or, when `inner`
    is the defining polynomial of GF(p^e) over Z/p, C is that field with
    its elements as tuples, multiplied by this function one level down, and
    f's coefficients are such tuples."""
    deg = len(defining) - 1
    if inner is None:
        mod = p**n
        zero = 0

        def c_add(x, y):
            return (x + y) % mod

        def c_mul(x, y):
            return x * y % mod

        def c_neg(x):
            return -x % mod

    else:
        c_add, c_mul = _poly_oracle_tables(p, 1, inner)
        zero = (0,) * (len(inner) - 1)

        def c_neg(x):
            return tuple(-c % p for c in x)

    def red(cs):
        cs = list(cs)
        while len(cs) > deg:
            lead = cs.pop()
            for i in range(deg):
                cs[-deg + i] = c_add(cs[-deg + i], c_neg(c_mul(lead, defining[i])))
        while len(cs) < deg:
            cs.append(zero)
        return tuple(cs)

    def mul(a, b):
        out = [zero] * (2 * deg - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = c_add(out[i + j], c_mul(ai, bj))
        return red(out)

    def add(a, b):
        return tuple(c_add(x, y) for x, y in zip(a, b))

    return add, mul


def _tower_oracle(ring):
    """(encode, mul): an element index as coefficient tuples (nested for PQ
    over GF(p^e), one per factor for a product), and the oracle product of
    two encoded elements."""
    if isinstance(ring, ProductRing):
        parts = [_tower_oracle(f) for f in ring.factors]
        return (
            lambda x: tuple(enc(c) for (enc, _), c in zip(parts, ring.split(x))),
            lambda a, b: tuple(mul(x, y) for (_, mul), x, y in zip(parts, a, b)),
        )
    if isinstance(ring, ZModRing):
        return (lambda x: x), (lambda a, b: a * b % ring.n)
    if isinstance(ring, PolyQuotientRing):
        base, p = ring.base, ring.characteristic
        if base.order == p:
            return ring.digits, _poly_oracle_tables(p, 1, ring.g)[1]
        g = tuple(base.digits(c) for c in ring.g)
        _, mul = _poly_oracle_tables(p, 1, g, inner=base.defining)
        return (lambda x: tuple(base.digits(c) for c in ring.coeffs(x))), mul
    _, mul = _poly_oracle_tables(ring.p, getattr(ring, "n_exp", 1), ring.defining)
    return ring.digits, mul


def test_galois_ring_tables_match_oracle():
    ring = make_ring("GR(3,2,2)")
    add, mul = _poly_oracle_tables(3, 2, ring.defining)
    coeffs = [ring.digits(i) for i in range(ring.order)]
    index = {c: i for i, c in enumerate(coeffs)}
    for a in range(ring.order):
        for b in range(ring.order):
            assert ring.add(a, b) == index[add(coeffs[a], coeffs[b])]
            assert ring.mul(a, b) == index[mul(coeffs[a], coeffs[b])]


def test_poly_quotient_reducible_modulus():
    """g = t^2 + t splits, so the quotient is GF(2) x GF(2)."""
    ring = make_ring("PQ(q=2;g=0,1,1)")
    assert ring.order == 4
    assert ring.lpf() == 2
    assert ring.prime_ideal_profile() == [(2, 1), (2, 1)]
    assert ring.units_count() == 1
    assert not ring.is_field


def test_poly_quotient_local():
    ring = make_ring("PQ(q=2;g=0,0,1)")
    assert ring.order == 4
    assert ring.prime_ideal_profile() == [(2, 2)]
    assert ring.units_count() == 2
    t = ring.from_int(2)
    assert ring.mul(t, t) == 0


def test_product_encoding():
    """First factor occupies the least significant digits."""
    ring = make_ring("prod(Z/4;GF(4))")
    assert ring.order == 16
    assert ring.characteristic == 4
    assert ring.one == 5
    assert ring.units_count() == 6
    assert ring.additive_orders() == (4, 2, 2)
    assert sorted(ring.prime_ideal_profile()) == [(2, 2), (4, 1)]


def test_element_index_conventions():
    for spec in ("Z/7", "GF(8)", "GR(2,2,2)", "PQ(q=3;g=0,0,1)"):
        ring = make_ring(spec)
        assert ring.from_int(0) == 0
        assert ring.one == 1
        assert ring.add(0, 5 % ring.order) == 5 % ring.order
        assert ring.mul(ring.one, 3 % ring.order) == 3 % ring.order


def test_digits_round_trip():
    for spec in ("Z/12", "GF(27)", "GR(5,2,2)", "prod(Z/9;Z/4)"):
        ring = make_ring(spec)
        for i in range(ring.order):
            assert ring.from_digits(ring.digits(i)) == i


def test_vector_ops_match_scalar():
    rng = np.random.default_rng(7)
    ring = make_ring("GR(3,2,2)")
    a = rng.integers(0, ring.order, 50)
    b = rng.integers(0, ring.order, 50)
    assert all(ring.add_vec(a, b)[i] == ring.add(int(a[i]), int(b[i])) for i in range(50))
    assert all(ring.neg_vec(a)[i] == ring.neg(int(a[i])) for i in range(50))
    assert all(ring.pow_vec(a, 3)[i] == ring.pow(int(a[i]), 3) for i in range(50))


@st.composite
def kernel_specs(draw, max_order=1 << 12):
    """GF(p^e), GR(p,n,r), PQ over GF(p) or GF(p^e) with a random monic g
    (irreducible or not), or a product of two of these; degrees are cut to
    keep the order at most max_order where degree 1 allows it."""
    kind = draw(st.sampled_from(["gf", "gr", "pq", "prod"]), label="kind")
    if kind == "prod":
        small = kernel_specs(max_order=64).filter(lambda s: not s.startswith("prod"))
        return f"prod({draw(small, label='left')};{draw(small, label='right')})"
    p = draw(st.sampled_from([2, 3, 5, 7]), label="p")
    if kind == "pq":
        q = p ** draw(st.integers(1, 3), label="e")
        m = draw(st.integers(1, 3), label="m")
        if q**m > max_order:
            m = 1
        g = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m), label="g") + [1]
        return f"PQ(q={q};g={','.join(map(str, g))})"
    n = draw(st.integers(1, 3), label="n") if kind == "gr" else 1
    r = draw(st.integers(1, 4), label="r")
    while r > 1 and p ** (n * r) > max_order:
        r -= 1
    return f"GR({p},{n},{r})" if kind == "gr" else f"GF({p**r})"


@st.composite
def explicit_specs(draw):
    """GF(q;h=...) or GR(p,n,r;f=...) of order at most 2^12, with h drawn
    from the monic irreducibles of its degree and f lifting one mod p^n."""
    p = draw(st.sampled_from([2, 3, 5]), label="p")
    r = draw(st.integers(2, {2: 4, 3: 3, 5: 2}[p]), label="r")
    F = ZModRing(p)
    h = draw(st.sampled_from([g for g in _monic_polys(F, r) if poly_is_irreducible(g, F)]), label="h")
    if draw(st.booleans(), label="gf"):
        return f"GF({p**r};h={','.join(map(str, h))})"
    n = draw(st.integers(1, 2), label="n")
    lifts = draw(st.lists(st.integers(0, p ** (n - 1) - 1), min_size=r, max_size=r), label="lifts")
    f = [c + p * k for c, k in zip(h, lifts)] + [1]
    return f"GR({p},{n},{r};f={','.join(map(str, f))})"


@st.composite
def ring_specs(draw):
    """Specs of all five constructors: Z/N, GF, GR and PQ (canonical and
    explicit moduli) and products, one factor of which may be a Z/N."""
    kind = draw(st.sampled_from(["zn", "kernel", "explicit", "prod"]), label="spec kind")
    if kind == "zn":
        return f"Z/{draw(st.integers(2, 1 << 12), label='N')}"
    if kind == "kernel":
        return draw(kernel_specs(), label="kernel spec")
    if kind == "explicit":
        return draw(explicit_specs(), label="explicit spec")
    small = kernel_specs(max_order=64).filter(lambda s: not s.startswith("prod"))
    return f"prod(Z/{draw(st.integers(2, 64), label='N')};{draw(small, label='right')})"


RING_AXIOM_SPECS = ("Z/36", "GF(16)", "PQ(q=3;g=1,1,1)", "GR(2,3,2)", "prod(Z/5;GF(4))")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=RING_AXIOM_SPECS[0], seed=0)
@example(spec=RING_AXIOM_SPECS[1], seed=1)
@example(spec=RING_AXIOM_SPECS[2], seed=2)
@example(spec=RING_AXIOM_SPECS[3], seed=3)
@example(spec=RING_AXIOM_SPECS[4], seed=4)
def test_ring_axioms_random_sweep(spec, seed):
    """Associativity, commutativity, distributivity, identities and
    negation on seeded triples, with the vector kernels on 256 triples and
    the scalar operations on the first 8, which must agree."""
    ring = make_ring(spec)
    a, b, c = np.random.default_rng(seed).integers(0, ring.order, (3, 256))
    add, mul = ring.add_vec, ring.mul_vec
    assert (add(a, b) == add(b, a)).all()
    assert (mul(a, b) == mul(b, a)).all()
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    assert (add(a, ring.neg_vec(a)) == 0).all()
    assert (add(a, 0) == a).all()
    assert (mul(a, ring.one) == a).all()
    assert (ring.sub_vec(a, b) == add(a, ring.neg_vec(b))).all()
    products, sums = mul(a, b), add(a, b)
    for x, y, xy, s in zip(a[:8].tolist(), b[:8].tolist(), products.tolist(), sums.tolist()):
        assert ring.mul(x, y) == xy and ring.add(x, y) == s
        assert ring.sub(s, y) == x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec="Z/12", seed=0)
@example(spec="GF(27)", seed=1)
@example(spec="GR(3,2,2)", seed=2)
@example(spec="PQ(q=2;g=0,1,1)", seed=3)
@example(spec="prod(Z/4;GF(4))", seed=4)
@example(spec="GF(9;h=2,2,1)", seed=5)
@example(spec="GR(2,2,2;f=3,1,1)", seed=6)
def test_spec_string_round_trip(spec, seed):
    """make_ring(ring.spec_string()) is the same ring: the same spec string,
    order, prime ideal profile and products."""
    ring = make_ring(spec)
    again = make_ring(ring.spec_string())
    assert again.spec_string() == ring.spec_string()
    assert again.order == ring.order
    assert again.prime_ideal_profile() == ring.prime_ideal_profile()
    a, b = np.random.default_rng(seed).integers(0, ring.order, (2, 64))
    assert (again.mul_vec(a, b) == ring.mul_vec(a, b)).all()


def full_scan_canonical(p, e):
    """The search canonical_irreducible shortened: every monic polynomial of
    degree e in order, constant term 0 included."""
    field = ZModRing(p)
    return next(g for g in _monic_polys(field, e) if poly_is_irreducible(g, field))


def _make_ring_under_order_guard(spec: str, guard: int):
    """make_ring with RINGLAB_ORDER_GUARD = guard; a Hypothesis test cannot
    take the function-scoped monkeypatch fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RINGLAB_ORDER_GUARD", str(guard))
        return make_ring(spec)


def test_canonical_irreducible_matches_full_scan():
    """Every p^e <= 2^12, and GF(2^20), whose modulus u^20 + u^3 + 1 the
    full scan finds in seconds, too slow to repeat here."""
    cases = [(p, e) for p in range(2, 1 << 12) if is_prime(p)
             for e in range(1, 13) if p**e <= 1 << 12]
    for p, e in cases:
        assert canonical_irreducible(p, e) == full_scan_canonical(p, e), (p, e)
    assert canonical_irreducible(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=kernel_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec="GF(1048573)", seed=1)
@example(spec="GR(2,20,1)", seed=2)
@example(spec="GF(65536)", seed=3)
@example(spec="PQ(q=4;g=2,1,1)", seed=4)
@example(spec="PQ(q=4;g=0,0,1)", seed=5)
@example(spec="PQ(q=256;g=0,0,1)", seed=6)
@example(spec="GF(3037000493)", seed=7)
@example(spec="GF(4294967311)", seed=8)
def test_mul_vec_matches_tower_oracle(spec, seed):
    """mul_vec against products of coefficient tuples, on flat arrays,
    broadcast grids, 0-d arrays, plain ints and empty arrays. GF(3037000493)
    holds its digit products in int64 at the edge; GF(4294967311) does not,
    and multiplies with object integers."""
    ring = _make_ring_under_order_guard(spec, 1 << 33)
    encode, mul = _tower_oracle(ring)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(0, ring.order, shape, dtype=np.int64)

    pairs = [
        (draw(40), draw(40)),
        (draw((5, 1)), draw((1, 6))),
        (draw(7), draw(())),
        (draw(()), draw(())),
        (int(draw(())), int(draw(()))),
        (np.int64(ring.order - 1), ring.order - 2),
        (draw((0, 3)), draw(3)),
    ]
    for a, b in pairs:
        got = ring.mul_vec(a, b)
        assert got.dtype == np.int64 and got.shape == np.broadcast(a, b).shape
        for x, y, z in zip(*(v.ravel() for v in np.broadcast_arrays(a, b, got))):
            assert encode(int(z)) == mul(encode(int(x)), encode(int(y))), (spec, x, y)
    x, y = (int(v) for v in draw(2))
    assert ring.mul(x, y) == int(ring.mul_vec(x, y))


def test_zmod_mul_vec_past_int64_products(monkeypatch):
    """(n - 1)^2 overflows int64 once n passes about 3.04e9; the product
    used to wrap there, 4294967088 instead of 2."""
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", str(1 << 33))
    ring = make_ring("Z/4294967311")
    assert ring.mul(4294967310, 4294967309) == 2
    assert int(ring.mul_vec(4294967310, 4294967309)) == 2
    got = ring.mul_vec(np.array([4294967310, 3]), np.array([[4294967309], [5]]))
    assert got.dtype == np.int64
    assert got.tolist() == [[2, 4294967311 - 3 * 2], [4294967311 - 5, 15]]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3_037_000_000, 1 << 36),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3_037_000_499, seed=1)
@example(n=3_037_000_500, seed=2)
@example(n=3_037_000_501, seed=3)
@example(n=1 << 34, seed=4)
def test_zmod_mul_vec_matches_scalar_on_large_moduli(n, seed):
    """mul_vec against Python-integer scalar mul around and past the int64
    edge, on flat, broadcast, 0-d and largest-element operands."""
    ring = _make_ring_under_order_guard(f"Z/{n}", 1 << 37)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(0, n, shape, dtype=np.int64)

    pairs = [
        (draw(20), draw(20)),
        (draw((3, 1)), draw((1, 4))),
        (draw(()), draw(())),
        (np.int64(n - 1), n - 1),
        (draw((0, 2)), draw(2)),
    ]
    for a, b in pairs:
        got = ring.mul_vec(a, b)
        assert got.dtype == np.int64 and got.shape == np.broadcast(a, b).shape
        for x, y, z in zip(*(v.ravel() for v in np.broadcast_arrays(a, b, got))):
            assert int(z) == ring.mul(int(x), int(y)), (n, x, y)


@pytest.mark.parametrize(
    "spec", ["Z/12", "GF(9)", "PQ(q=2;g=1,0,1)", "GR(2,2,2)", "prod(Z/3;GF(4))"]
)
def test_pow_makes_the_fewest_multiplications(spec, monkeypatch):
    """Binary powering needs bit_length(d) - 1 squarings and popcount(d) - 1
    further products; pow_vec and pow make no more, agree with repeated
    multiplication, and pow_vec always returns a new array."""
    ring = make_ring(spec)
    mul_vec, mul = ring.mul_vec, ring.mul
    calls = []
    monkeypatch.setattr(ring, "mul_vec", lambda a, b: calls.append("vec") or mul_vec(a, b))
    monkeypatch.setattr(ring, "mul", lambda a, b: calls.append("scalar") or mul(a, b))
    xs = np.arange(ring.order)
    want = np.full(ring.order, ring.one)
    for d in range(10):
        fewest = max(0, d.bit_count() + d.bit_length() - 2)
        calls.clear()
        got = ring.pow_vec(xs, d)
        assert calls == ["vec"] * fewest, d
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, xs)
        calls.clear()
        assert [ring.pow(int(x), d) for x in xs] == want.tolist()
        # Scalar mul may itself call mul_vec on 0-d arrays: count its layer only.
        assert calls.count("scalar") == fewest * ring.order, d
        want = mul_vec(want, xs)
    with pytest.raises(ValueError):
        ring.pow_vec(xs, -1)


def test_units_count_multiplicative():
    r1 = make_ring("Z/8")
    r2 = make_ring("GF(9)")
    prod = make_ring("prod(Z/8;GF(9))")
    assert prod.units_count() == r1.units_count() * r2.units_count()
    assert prod.lpf() == min(r1.lpf(), r2.lpf())


def test_lpf_is_min_residue_field_size():
    for spec in ("Z/35", "GR(2,2,3)", "prod(GF(4);GF(9))"):
        ring = make_ring(spec)
        assert ring.lpf() == min(size for size, _ in ring.prime_ideal_profile())


@pytest.mark.parametrize(
    "spec",
    ["Z/1", "Z/0", "Z/-3", "GF(6)", "GF(1)", "GR(4,2,2)", "nonsense", "prod()"],
)
def test_parse_rejects(spec):
    with pytest.raises(ParseError):
        make_ring(spec)


def test_parse_rejects_nonmonic_modulus():
    with pytest.raises(NotMonic):
        make_ring("PQ(q=2;g=1,1,0)")


def test_parse_rejects_reducible_field_modulus():
    with pytest.raises(NotIrreducible):
        make_ring("GF(4;h=1,0,1)")


def test_order_guard():
    with pytest.raises(OrderTooLarge):
        make_ring("Z/1048577")


def test_order_guard_env_override(monkeypatch):
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", "100")
    with pytest.raises(OrderTooLarge):
        make_ring("Z/128")
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", "200")
    assert make_ring("Z/128").order == 128


def test_eval_poly_vec_matches_horner():
    ring = make_ring("Z/9")
    coeffs = (2, 0, 3, 1)
    xs = np.arange(ring.order)
    got = ring.eval_poly_vec(coeffs, xs)
    for x in range(ring.order):
        acc = 0
        for c in reversed(coeffs):
            acc = ring.add(ring.mul(acc, x), c)
        assert got[x] == acc


def test_cached_arrays_are_read_only():
    ring = make_ring("GF(9)")
    group = character_group(ring)
    with pytest.raises(ValueError):
        group.unit_table[0] = 0
    assert group.unit_table[0] == 1


@pytest.mark.parametrize(
    "spec",
    ["GF(2)", "GF(8)", "GF(64)", "PQ(q=4;g=0,0,1)", "GR(2,1,3)", "prod(GF(4);GF(8))"],
)
def test_xor_kernels_match_digit_path(spec):
    """Rings whose every radix is 2 add and subtract by XOR and negate by
    copying; the results equal the generic digit-wise arithmetic, for
    scalars, vectors and broadcast shapes alike."""
    ring = make_ring(spec)
    assert ring._binary

    def digit_add(a, b, sign=1):
        a, b = np.asarray(a), np.asarray(b)
        return ring._from_digit_array(ring._digits_of(a) + sign * ring._digits_of(b))

    rng = np.random.default_rng(5)
    xs = np.arange(ring.order, dtype=np.int64)
    col = rng.integers(0, ring.order, (7, 1))
    pairs = [(xs[:, None], xs[None, :]), (col, xs[None, :6]), (xs, 3 % ring.order), (1, 1)]
    for a, b in pairs:
        np.testing.assert_array_equal(ring.add_vec(a, b), digit_add(a, b))
        np.testing.assert_array_equal(ring.sub_vec(a, b), digit_add(a, b, -1))
        np.testing.assert_array_equal(ring.neg_vec(a), ring._from_digit_array(-ring._digits_of(a)))
        assert ring.add_vec(a, b).shape == np.broadcast(a, b).shape
    assert not make_ring("Z/4")._binary and not make_ring("GF(9)")._binary
