"""Ring constructions against independent oracles.

The Galois ring tables are rebuilt here from scratch (modular polynomial
arithmetic on coefficient tuples, no shared code) and compared entry by
entry. The same tuples, nested one level for PQ over GF(p^e), are the oracle
for `mul_vec` on every constructor. The ring axioms, the additive kernels
against the digit route of tests/additive_oracle.py and the spec round
trip are Hypothesis properties over specs of all five constructors, and
the canonical modulus search is checked against the full scan it
shortened.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from additive_oracle import digit_route, scalar_route
from test_acceptance import run_cli

from ringlab.budget import blocks
from ringlab.characters import character_group
from ringlab.errors import NotIrreducible, NotMonic, OrderTooLarge, ParseError
from ringlab.polynomials import RingPoly
from ringlab.rings import (
    PolyQuotientRing,
    ProductRing,
    Ring,
    ZModRing,
    _digit_product,
    _monic_polys,
    _power,
    _primitive_step,
    _reduction_matrix,
    canonical_irreducible,
    digits_of,
    field_log_tables,
    is_prime,
    join_index,
    make_ring,
    poly_is_irreducible,
    split_index,
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
    assert ring.g == (1, 1, 1)


def test_galois_ring_invariants():
    ring = make_ring("GR(3,2,2)")
    assert ring.order == 81
    assert ring.characteristic == 9
    assert ring.lpf() == 9
    assert ring.units_count() == 72
    assert ring.prime_ideal_profile() == [(9, 2)]
    assert ring.additive_orders() == (9, 9)


def test_pq_refuses_a_base_that_is_not_a_field():
    """(Z/4)[x]/(x^2) is not a principal ideal ring, and its PQ spec would
    name GF(4)[t]/(t^2): over Z/p^n with n >= 2 only GR builds."""
    for n, g in ((4, (0, 0, 1)), (4, (3, 0, 1)), (9, (0, 0, 1))):
        with pytest.raises(ParseError, match=r"GR\(p,n,r\)"):
            PolyQuotientRing(ZModRing(n), g)
    for spec in ("GR(2,2,2)", "GR(3,2,2)"):
        ring = make_ring(spec)
        assert ring.spec_string() == spec and ring == make_ring(ring.spec_string())


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
    two encoded elements. GF and GR are PolyQuotientRings over Z/p^n,
    whose coefficients the oracle multiplies mod p^n."""
    if isinstance(ring, ProductRing):
        parts = [_tower_oracle(f) for f in ring.factors]
        return (
            lambda x: tuple(enc(c) for (enc, _), c in zip(parts, ring.split(x))),
            lambda a, b: tuple(mul(x, y) for (_, mul), x, y in zip(parts, a, b)),
        )
    if isinstance(ring, ZModRing):
        return (lambda x: x), (lambda a, b: a * b % ring.n)
    base, p = ring.base, ring.characteristic
    if base.order == p:
        return ring.digits, _poly_oracle_tables(p, 1, ring.g)[1]
    g = tuple(base.digits(c) for c in ring.g)
    _, mul = _poly_oracle_tables(p, 1, g, inner=base.g)
    return (lambda x: tuple(base.digits(c) for c in ring.coeffs(x))), mul


def test_galois_ring_tables_match_oracle():
    ring = make_ring("GR(3,2,2)")
    add, mul = _poly_oracle_tables(3, 2, ring.g)
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
    assert all(ring.pow_vec(a, 3)[i] == ring.mul(ring.mul(int(x), int(x)), int(x)) for i, x in enumerate(a))


@st.composite
def kernel_specs(draw, max_order=1 << 12):
    """GF(p^e), GR(p,n,r), PQ over GF(p) or GF(p^e) with a random monic g
    (irreducible or not), or a product of two of these; each degree is cut
    to the largest that keeps the order at most max_order, down to 1."""
    kind = draw(st.sampled_from(["gf", "gr", "pq", "prod"]), label="kind")
    if kind == "prod":
        small = kernel_specs(max_order=64).filter(lambda s: not s.startswith("prod"))
        return f"prod({draw(small, label='left')};{draw(small, label='right')})"
    p = draw(st.sampled_from([2, 3, 5, 7]), label="p")
    if kind == "pq":
        q = p ** draw(st.integers(1, 3), label="e")
        m = draw(st.integers(1, 3), label="m")
        while m > 1 and q**m > max_order:
            m -= 1
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
def ring_specs(draw, max_order=1 << 12):
    """Specs of all five constructors: Z/N, GF, GR and PQ (canonical and
    explicit moduli) and products, one factor of which may be a Z/N. As in
    kernel_specs, max_order cuts degrees, so a few specs exceed it."""
    kind = draw(st.sampled_from(["zn", "kernel", "explicit", "prod"]), label="spec kind")
    if kind == "zn":
        return f"Z/{draw(st.integers(2, max_order), label='N')}"
    if kind == "kernel":
        return draw(kernel_specs(max_order=max_order), label="kernel spec")
    if kind == "explicit":
        return draw(explicit_specs(), label="explicit spec")
    side = math.isqrt(max_order)
    small = kernel_specs(max_order=side).filter(lambda s: not s.startswith("prod"))
    return f"prod(Z/{draw(st.integers(2, side), label='N')};{draw(small, label='right')})"


def test_join_index_reduces_digits_and_pads_with_zeros():
    assert join_index((5, -1), (4, 3)) == 1 + 2 * 4
    assert join_index((0, 1), (7,)) == 0
    assert join_index((3,), (4, 5)) == 3
    assert split_index(59, (4, 3, 5)) == (3, 2, 4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec="PQ(q=4;g=1,1,1)", seed=0)
@example(spec="prod(Z/9;GR(2,2,2))", seed=1)
@example(spec="prod(GF(4);PQ(q=9;g=0,0,1))", seed=2)
def test_index_codec_round_trips(spec, seed):
    """The one mixed-radix codec: split_index and join_index invert each
    other and digits_of agrees with split_index; a PQ coefficient is its
    e base-field digits, a product component is its factor's digits, and
    a character's position inverts its coefficients."""
    ring = make_ring(spec)
    radices = ring.additive_orders()
    group = character_group(ring)
    xs = np.random.default_rng(seed).integers(0, ring.order, 40)
    for x, row in zip(xs.tolist(), digits_of(xs, radices).tolist()):
        ds = split_index(x, radices)
        assert join_index(ds, radices) == x
        assert ds == tuple(row) == ring.digits(x)
        assert group.position(group.coeffs(x).tolist()) == x
        if isinstance(ring, PolyQuotientRing):
            e = len(ring.base.additive_orders())
            assert ring.coeffs(x) == tuple(
                ring.base.from_digits(ds[j * e:(j + 1) * e]) for j in range(ring.m))
        if isinstance(ring, ProductRing):
            start, parts = 0, []
            for f in ring.factors:
                width = len(f.additive_orders())
                parts.append(f.from_digits(ds[start:start + width]))
                start += width
            assert ring.split(x) == tuple(parts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec="Z/2", seed=0)
@example(spec="GF(8)", seed=1)
@example(spec="Z/36", seed=2)
@example(spec="Z/64", seed=3)
@example(spec="GF(1048573)", seed=4)
@example(spec="GR(2,3,2)", seed=5)
@example(spec="prod(Z/4;GF(8))", seed=6)
@example(spec="GF(9)", seed=7)
@example(spec="PQ(q=3;g=1,1,1)", seed=8)
@example(spec="prod(Z/5;GR(3,2,1))", seed=9)
def test_additive_kernels_match_digit_route(spec, seed):
    """Each ring's one additive kernel, whichever its radices pick, against
    the digit route of tests/additive_oracle.py: scalar add, sub and neg on
    Python ints, which they return, and add_vec, sub_vec and neg_vec on
    0-d, 1-d and (n, 1) by (1, m) broadcast operands, zero and the last
    element included. GF(p) adds, subtracts and negates as Z/p does."""
    ring = make_ring(spec)
    n = ring.order
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, 2).tolist()
    for x, y in ((a, b), (0, b), (a, 0), (n - 1, n - 1)):
        for got, want in (
            (ring.add(x, y), scalar_route(ring, x, y)),
            (ring.sub(x, y), scalar_route(ring, x, y, -1)),
            (ring.neg(y), scalar_route(ring, 0, y, -1)),
        ):
            assert type(got) is int and got == want
    pairs = [
        (np.asarray(a), np.asarray(b)),
        (rng.integers(0, n, 50), rng.integers(0, n, 50)),
        (rng.integers(0, n, (6, 1)), rng.integers(0, n, (1, 5))),
        (np.array([0, n - 1]), n - 1),
    ]
    for x, y in pairs:
        for got, want in (
            (ring.add_vec(x, y), digit_route(ring, x, y)),
            (ring.sub_vec(x, y), digit_route(ring, x, y, -1)),
            (ring.neg_vec(y), digit_route(ring, 0, y, -1)),
        ):
            assert np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(got, want)
    if ring.spec_string().startswith("GF(") and ring.m == 1:
        zp = make_ring(f"Z/{n}")
        xs = np.arange(n) if n <= 64 else rng.integers(0, n, 64)
        for name in ("add_vec", "sub_vec"):
            np.testing.assert_array_equal(
                getattr(ring, name)(xs[:, None], xs), getattr(zp, name)(xs[:, None], xs))
        np.testing.assert_array_equal(ring.neg_vec(xs), zp.neg_vec(xs))


# element_str of a few elements of one ring per constructor, and str() of
# one polynomial over it: digit polynomials print plain digits with no head
# for 1, PQ over GF(p^e) parenthesises every coefficient, the constant
# included, and polynomials parenthesise every head but the ring's one.
ELEMENT_TEXT = {
    "Z/12": ({0: "0", 7: "7"}, (3, 1, 0, 5), "3 + x + (5)x^3"),
    "GF(8)": ({0: "0", 4: "u^2", 6: "u + u^2", 7: "1 + u + u^2"}, (), "0"),
    "GF(9)": ({3: "u", 6: "2u", 7: "1 + 2u"}, (0, 1, 3, 7), "x + (u)x^2 + (1 + 2u)x^3"),
    "GR(2,2,2)": ({4: "w", 9: "1 + 2w", 15: "3 + 3w"}, (9, 0, 1, 4), "1 + 2w + x^2 + (w)x^3"),
    "PQ(q=2;g=1,0,1)": ({1: "1", 2: "t", 3: "1 + t"}, (0, 0, 3), "(1 + t)x^2"),
    "PQ(q=4;g=1,1,1)": (
        {0: "0", 1: "(1)", 2: "(u)", 4: "(1)t", 5: "(1) + (1)t", 6: "(u) + (1)t",
         15: "(1 + u) + (1 + u)t"},
        (6, 1, 0, 5),
        "(u) + (1)t + x + ((1) + (1)t)x^3",
    ),
    "PQ(q=4;g=0,0,0,1)": ({16: "(1)t^2", 18: "(u) + (1)t^2", 33: "(1) + (u)t^2"}, (), "0"),
    "prod(Z/3;GF(4))": (
        {0: "(0, 0)", 1: "(1, 0)", 5: "(2, 1)", 11: "(2, 1 + u)"},
        (5, 4, 0, 11),
        "(2, 1) + x + ((2, 1 + u))x^3",
    ),
}


@pytest.mark.parametrize("spec", sorted(ELEMENT_TEXT))
def test_element_and_polynomial_text(spec):
    ring = make_ring(spec)
    elements, coeffs, text = ELEMENT_TEXT[spec]
    assert {x: ring.element_str(x) for x in elements} == elements
    assert str(RingPoly.make(ring, coeffs)) == text


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=ring_specs(max_order=256))
@example(spec="Z/216")
@example(spec="GR(2,2,3;f=3,1,0,1)")
@example(spec="GR(3,2,2)")
@example(spec="PQ(q=2;g=0,1,1)")
@example(spec="PQ(q=2;g=0,0,1,1)")
@example(spec="PQ(q=3;g=1,2,1)")
@example(spec="PQ(q=9;g=1,2,1)")
@example(spec="PQ(q=4;g=1,0,1,0,1)")
@example(spec="prod(Z/12;PQ(q=4;g=1,0,1))")
def test_prime_ideal_profile_counts_units_and_nilpotents(spec):
    """The profile against brute force on the whole multiplication table:
    with (q, m) its entries, units_count is the number of rows of the
    mul_vec table that hold one, the nilpotent elements (x^order = 0) number
    the product of q^(m - 1), and the product of q^m is the order."""
    ring = make_ring(spec)
    assume(ring.order <= 256)
    xs = np.arange(ring.order, dtype=np.int64)
    table = ring.mul_vec(xs[:, None], xs[None, :])
    profile = ring.prime_ideal_profile()
    assert ring.units_count() == int((table == ring.one).any(axis=1).sum()), spec
    nilpotent = int((ring.pow_vec(xs, ring.order) == 0).sum())
    assert nilpotent == math.prod(q ** (m - 1) for q, m in profile), spec
    assert math.prod(q**m for q, m in profile) == ring.order, spec


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
    """Every p^e <= 2^12, and GF(2^20), whose modulus u^20 + u^17 + 1 the
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
@example(spec="PQ(q=9;g=1,2,3,1)", seed=9)
@example(spec="PQ(q=25;g=3,1,1)", seed=10)
@example(spec="PQ(q=8;g=3,5,1,1)", seed=11)
@example(spec="PQ(q=1024;g=3,1)", seed=12)
@example(spec="prod(PQ(q=4;g=1,0,1);GR(2,2,2))", seed=13)
def test_mul_vec_matches_tower_oracle(spec, seed):
    """mul_vec against products of coefficient tuples, on flat arrays,
    broadcast grids, 0-d arrays, plain ints and empty arrays. GF(3037000493)
    holds its digit products in int64 at the edge; GF(4294967311) does not,
    and multiplies with object integers. The dense moduli of degree 3 over
    GF(9), GF(25) and GF(8) see the sign of g's coefficients in odd
    characteristic and the top-down order of the reduction, and g of
    degree 1 leaves PQ over GF(1024) nothing to reduce."""
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
        assert isinstance(got, np.ndarray), (spec, type(got))
        assert got.dtype == np.int64 and got.shape == np.broadcast(a, b).shape
        for x, y, z in zip(*(v.ravel() for v in np.broadcast_arrays(a, b, got))):
            assert encode(int(z)) == mul(encode(int(x)), encode(int(y))), (spec, x, y)
    x, y = (int(v) for v in draw(2))
    assert ring.mul(x, y) == int(ring.mul_vec(x, y))


def _extension_fields(ring):
    """Every GF(p^e) with e >= 2 inside a ring: itself, the factors of a
    product, the coefficient field of a quotient, and GF(q) for every
    residue field size q = p^e in its prime ideal profile."""
    parts = [ring, *getattr(ring, "factors", ()), getattr(ring, "base", None)]
    parts += [make_ring(f"GF({q})") for q, _ in ring.prime_ideal_profile() if not is_prime(q)]
    found = {}
    for part in parts:
        if isinstance(part, PolyQuotientRing) and part.spec_string().startswith("GF(") and part.m >= 2:
            found[part.spec_string()] = part
    return list(found.values())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(kernel_specs(), explicit_specs()), seed=st.integers(0, 2**32 - 1))
@example(spec="GF(1048576)", seed=1)
@example(spec="GF(59049)", seed=2)
@example(spec="GF(9;h=2,2,1)", seed=3)
@example(spec="PQ(q=16;g=3,1,1)", seed=4)
@example(spec="prod(GF(4);GF(27;h=1,2,0,1))", seed=5)
def test_log_tables_match_digit_kernel(spec, seed):
    """Products of GF(p^e;h), e >= 2, and of its spellings PQ(q=p;g=h) and
    GR(p,1,e;f=h), all of which read the log tables, equal the digit
    kernel called directly on Z/p and h, the oracle that shares no table
    with them: on every pair of a field of order <= 64 and on drawn
    operands of the larger ones: flat arrays with zeros, broadcast grids,
    0-d arrays, plain ints and empty arrays, and scalar `mul`."""
    fields = _extension_fields(make_ring(spec))
    assume(fields)
    rng = np.random.default_rng(seed)
    for field in fields:
        q, p, e, h = field.order, field.characteristic, field.m, field.g
        text = ",".join(map(str, h))
        L = _reduction_matrix(p, h)

        def kernel(a, b):
            return _digit_product(p, L, field._places, a, b)

        spellings = (field, make_ring(f"PQ(q={p};g={text})"), make_ring(f"GR({p},1,{e};f={text})"))
        xs = np.arange(min(q, 4096), dtype=np.int64)
        for ring in spellings:
            assert ring.order == q and ring.one == field.one and ring.is_field
            assert ring.additive_orders() == field.additive_orders()
            np.testing.assert_array_equal(ring.add_vec(xs, xs[::-1]), field.add_vec(xs, xs[::-1]))

        def draw(shape):
            out = rng.integers(0, q, shape, dtype=np.int64)
            out.reshape(-1)[3::7] = 0
            return out

        pairs = [
            (draw(300), draw(300)),
            (draw((5, 1)), draw((1, 6))),
            (draw(7), draw(())),
            (draw(()), draw(())),
            (0, int(draw(()))),
            (np.int64(q - 1), q - 1),
            (draw((0, 3)), draw(3)),
            (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        ]
        if q <= 64:
            pairs.append((xs[:, None], xs[None, :]))
        scalars = list(zip(draw(20).tolist() + [0, 0, q - 1], draw(20).tolist() + [0, q - 1, 0]))
        for ring in spellings:
            for a, b in pairs:
                got = ring.mul_vec(a, b)
                want = kernel(a, b)
                assert got.dtype == np.int64 and got.shape == want.shape == np.broadcast(a, b).shape
                np.testing.assert_array_equal(got, want, err_msg=ring.spec_string())
            for x, y in scalars:
                z = ring.mul(x, y)
                assert type(z) is int and z == int(kernel(x, y)), (ring.spec_string(), x, y)


def test_fields_build_no_digit_kernel(monkeypatch):
    """The digit kernel's reduction rows are built at the first digit
    product, and no field or quotient of degree 1 builds them: with
    `_reduction_matrix` made to raise, GF(q), its PQ and GR spellings,
    products of fields, PQ over GF(p^e), e >= 2, and the m = 1 quotients
    PQ(q=7;g=3,1) and GR(3,2,1) still build and multiply, while GR(2,2,2)
    and PQ(q=2;g=0,0,1), which are not fields, build and then reach the
    patch at their first product."""
    def refuse(M, modulus):
        raise RuntimeError("digit kernel built")

    monkeypatch.setattr("ringlab.rings._reduction_matrix", refuse)
    for spec in ("GF(4)", "GF(7)", "GF(9;h=2,2,1)", "GF(1048576)", "prod(GF(4);GF(9))",
                 "PQ(q=4;g=0,0,1)", "PQ(q=9;g=1,2,3,1)", "PQ(q=16;g=3,1)", "PQ(q=2;g=1,1,1)",
                 "PQ(q=3;g=1,2,0,1)", "GR(2,1,2)", "GR(3,1,3;f=1,2,0,1)", "PQ(q=7;g=3,1)",
                 "GR(3,2,1)"):
        ring = make_ring(spec)
        a = np.arange(min(ring.order, 64), dtype=np.int64)
        products = ring.mul_vec(a, a[::-1])
        assert products.dtype == np.int64
        assert [ring.mul(x, y) for x, y in zip(a.tolist(), a[::-1].tolist())] == products.tolist()
    for spec in ("GR(2,2,2)", "PQ(q=2;g=0,0,1)"):
        ring = make_ring(spec)
        with pytest.raises(RuntimeError, match="digit kernel built"):
            ring.mul(1, 1)


@st.composite
def field_spellings(draw):
    """The GF, PQ and GR spellings of one field (Z/p)[u]/(h), p <= 7 and
    order <= 4096: h is the first monic irreducible of its degree at or
    after a drawn monic polynomial, in the order of `_monic_polys`."""
    p = draw(st.sampled_from([2, 3, 5, 7]), label="p")
    e = draw(st.integers(1, max(e for e in range(1, 13) if p**e <= 4096)), label="e")
    F = ZModRing(p)
    monic = list(_monic_polys(F, e))
    start = draw(st.integers(0, len(monic) - 1), label="start")
    h = next(g for g in monic[start:] + monic[:start] if poly_is_irreducible(g, F))
    text = ",".join(map(str, h))
    return f"GF({p**e};h={text})", f"PQ(q={p};g={text})", f"GR({p},1,{e};f={text})"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(specs=field_spellings(), low=st.lists(st.integers(0, 12), min_size=1, max_size=3),
       lead=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(specs=("GF(4;h=1,1,1)", "PQ(q=2;g=1,1,1)", "GR(2,1,2;f=1,1,1)"), low=[0, 0, 0], lead=1, seed=0)
@example(specs=("GF(7;h=3,1)", "PQ(q=7;g=3,1)", "GR(7,1,1;f=3,1)"), low=[5, 0], lead=3, seed=1)
@example(specs=("GF(4096;h=1,0,0,0,0,0,0,0,0,1,0,0,1)", "PQ(q=2;g=1,0,0,0,0,0,0,0,0,1,0,0,1)",
                "GR(2,1,12;f=1,0,0,0,0,0,0,0,0,1,0,0,1)"), low=[0, 1, 1], lead=1, seed=2)
def test_isomorphic_spellings_agree(specs, low, lead, seed):
    """GF(p^e;h), PQ(q=p;g=h) and GR(p,1,e;f=h) are one ring under three
    spellings, and each multiplies by the route of its structure: equal
    `mul_vec` and scalar `mul` on every pair up to order 64 and on drawn
    operands past it, equal `ring info` apart from `spec`, and equal
    `expsum`, `poly ddeg` and `subgroup` results apart from `ring_spec` for
    a drawn P = low + lead x^len(low), lead a unit."""
    rings = [make_ring(spec) for spec in specs]
    q, p = rings[0].order, rings[0].characteristic
    assume(lead % p)
    if q <= 64:
        a, b = np.meshgrid(np.arange(q), np.arange(q))
    else:
        a, b = np.random.default_rng(seed).integers(0, q, (2, 300))
    for ring in rings:
        np.testing.assert_array_equal(ring.mul_vec(a, b), rings[0].mul_vec(a, b), err_msg=ring.spec_string())
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            assert ring.mul(x, y) == rings[0].mul(x, y), (ring.spec_string(), x, y)
    poly = "--poly=" + ",".join(map(str, low + [lead]))
    for args, drop in ((["ring", "info"], "spec"), (["expsum", poly, "--ring"], "ring_spec"),
                       (["poly", "ddeg", poly, "--ring"], "ring_spec"),
                       (["subgroup", poly, "--ring"], "ring_spec")):
        reports = [run_cli(args + [spec]) for spec in specs]
        results = [(code, {k: v for k, v in doc["result"].items() if k != drop}) for code, doc in reports]
        assert results[0][0] == 0 and results[0] == results[1] == results[2], (args, specs)


def test_pq_builds_its_field_tables_at_its_first_product(monkeypatch):
    """Constructing PQ over GF(2^20) builds nothing for products, though
    its order is 2^20 (g linear); its first product reads GF(2^20)'s own
    log tables, the field's product of the two constants."""
    calls = []

    def refuse(p, e, h):
        raise RuntimeError("log tables built")

    monkeypatch.setattr("ringlab.rings.field_log_tables", refuse)
    ring = make_ring("PQ(q=1048576;g=3,1)")
    assert ring.order == 1 << 20 and ring.prime_ideal_profile() == [(1 << 20, 1)]
    with pytest.raises(RuntimeError, match="log tables built"):
        ring.mul(3, 5)
    monkeypatch.setattr("ringlab.rings.field_log_tables",
                        lambda *key: calls.append(key) or field_log_tables(*key))
    assert ring.mul(3, 5) == ring.base.mul(3, 5)
    assert calls and all(key == (2, 20, ring.base.g) for key in calls)


def test_log_tables_are_shared_per_field_and_read_only():
    """The one GF(16) of a process, alone or as a factor, keeps one
    read-only table pair in its memo, built at its first product; another
    modulus of the same field is another ring with its own. The pair is a
    permutation of the nonzero elements with the zero sentinel past every
    sum of two logs."""
    r1, r2 = make_ring("GF(16)"), make_ring("prod(Z/3;GF(16))").factors[1]
    assert r1 is r2 and r1.g == (1, 0, 0, 1, 1) and r1.memo_bytes == 0
    assert "log_tables" not in r1._memo
    assert int(r1.mul_vec(3, 5)) == r2.mul(3, 5)
    log, antilog = r1._memo["log_tables"]
    assert r1.memo_bytes == log.nbytes + antilog.nbytes
    assert r1.mul(7, 9) == int(r1.mul_vec(7, 9))
    again = r1._memo["log_tables"]
    assert again[0] is log and again[1] is antilog
    np.testing.assert_array_equal(field_log_tables(2, 4, r1.g)[1], antilog)
    r3 = make_ring("GF(16;h=1,1,0,0,1)")
    r3.mul(2, 3)
    other = r3._memo["log_tables"]
    assert other[0] is not log and other[1] is not antilog
    assert not (np.array_equal(other[0], log) and np.array_equal(other[1], antilog))
    for table in (log, antilog, *other):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
    n = 15
    assert sorted(antilog[:n].tolist()) == list(range(1, 16))
    assert (antilog[n:2 * n - 1] == antilog[:n - 1]).all()
    assert log[0] == 2 * n - 1 and len(antilog) == 2 * log[0] + 1
    assert not antilog[log[0]:].any()


def _int64_powers(p, e, h):
    """g^i for i < p^e - 1 by field_log_tables' doubling on the digit rows,
    each block's digit sums reduced mod p in int64."""
    n = p**e - 1
    step = _primitive_step(p, e, h)
    rows = np.zeros((n, e), dtype=np.min_scalar_type(p - 1))
    rows[0, 0] = 1
    k = 1
    while k < n:
        count = min(k, n - k)
        by = step.T.astype(np.float64)
        for block in blocks(count, e):
            rows[k:][block] = (rows[block] @ by).astype(np.int64) % p
        step = step @ step % p
        k += count
    return rows @ p ** np.arange(e, dtype=np.int64)


PRIME_POWER_FIELDS = [(p, e) for p in range(2, 65) if is_prime(p)
                      for e in range(2, 13) if p**e <= 1 << 12] + [(2, 20)]


@pytest.mark.parametrize("p,e", PRIME_POWER_FIELDS, ids=lambda v: str(v))
def test_log_tables_match_the_int64_reduction(p, e):
    """The digit sums reduced in the narrowest unsigned type give the same
    tables as in int64, on every GF(q) with q <= 2^12 not prime and on
    GF(2^20): the same powers of g, in int32, with log their inverse."""
    h = canonical_irreducible(p, e)
    n = p**e - 1
    log, antilog = field_log_tables(p, e, h)
    assert log.dtype == antilog.dtype == np.int32
    np.testing.assert_array_equal(antilog[:n], _int64_powers(p, e, h))
    np.testing.assert_array_equal(log[antilog[:n]], np.arange(n))


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


def test_scalar_mul_past_int64_multiplies_python_ints(monkeypatch):
    """Z/N and GF(p) with (N - 1)^2 past int64, under a raised order
    guard: scalar `mul` multiplies two ints as Python ints, with no numpy
    array made, and returns the exact product mod N as an int, while
    arrays keep the exact object route."""
    def refuse(*args, **kwargs):
        raise AssertionError("a scalar product made an array")

    monkeypatch.setenv("RINGLAB_ORDER_GUARD", str(1 << 33))
    n = 4294967311
    xs = [n - 1, 3, 123456789, 0, 2**32]
    ys = [n - 1, n - 2, 987654321, n - 1, 2**32 + 7]
    for spec in ("Z/4294967311", "GF(4294967311)"):
        ring = make_ring(spec)
        ring.mul(1, 1)
        with monkeypatch.context() as patch:
            patch.setattr(np, "asarray", refuse)
            got = [ring.mul(x, y) for x, y in zip(xs, ys)]
        assert all(type(z) is int for z in got) and got == [x * y % n for x, y in zip(xs, ys)]
        got = ring.mul_vec(np.array(xs), np.array(ys))
        assert got.dtype == np.int64 and got.tolist() == [x * y % n for x, y in zip(xs, ys)]


def test_products_read_one_kernel(monkeypatch):
    """`Ring` alone defines `mul` and `mul_vec`, and each ring's one kernel
    `_mul` serves both. After a first product, which picks a quotient's
    kernel, the kernel sits on the ring, and neither product reads a memo;
    a recording stub put in its place (and in the place of Z/N's `mul`,
    which is the kernel itself) is then called by scalar `mul` on ints and
    by `mul_vec` on arrays. Z/4294967311, under a raised order guard,
    multiplies object residues."""
    def subclasses(cls):
        return [cls] + [s for sub in cls.__subclasses__() for s in subclasses(sub)]

    assert "mul" in vars(Ring) and "mul_vec" in vars(Ring)
    assert not any("mul" in vars(cls) or "mul_vec" in vars(cls) for cls in subclasses(Ring)[1:])
    monkeypatch.setenv("RINGLAB_ORDER_GUARD", str(1 << 33))
    for spec in ("Z/12", "Z/4294967311", "GF(7)", "GF(256)", "GR(2,2,3)", "PQ(q=2;g=0,0,1)",
                 "PQ(q=4;g=0,0,1)", "prod(Z/4;GF(4))"):
        ring = make_ring(spec)
        x, y = 3, ring.order - 2
        want = ring.mul(x, y)
        kernel = vars(ring)["_mul"]

        def refuse(key, build):
            raise AssertionError(f"{spec}: a product read a memo")

        for part in (ring, getattr(ring, "base", None), *getattr(ring, "factors", ())):
            if part is not None:
                monkeypatch.setitem(vars(part), "memo", refuse)
        assert ring.mul(x, y) == want and int(ring.mul_vec(x, y)) == want, spec
        calls = []

        def stub(a, b):
            calls.append(type(a))
            return kernel(a, b)

        for name in [name for name, value in vars(ring).items() if value is kernel]:
            monkeypatch.setitem(vars(ring), name, stub)
        assert ring.mul(x, y) == want
        got = ring.mul_vec(np.array([x, y]), np.array([y, x]))
        assert got.dtype == np.int64 and got.tolist() == [want, want], spec
        assert calls == [int, np.ndarray], (spec, calls)


@pytest.mark.parametrize(
    "spec", ["Z/12", "GF(9)", "PQ(q=2;g=1,0,1)", "GR(2,2,2)", "prod(Z/3;GF(4))"]
)
def test_pow_makes_the_fewest_multiplications(spec, monkeypatch):
    """Binary powering needs bit_length(d) - 1 squarings and popcount(d) - 1
    further products; pow_vec, and `_power` on scalar products, make no
    more, agree with repeated multiplication, and pow_vec always returns a
    new array."""
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
        assert [_power(ring.mul, int(x), d) if d else ring.one for x in xs] == want.tolist()
        assert calls == ["scalar"] * (fewest * ring.order), d
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
    assert set(ring.additive_orders()) == {2}
    rng = np.random.default_rng(5)
    xs = np.arange(ring.order, dtype=np.int64)
    col = rng.integers(0, ring.order, (7, 1))
    pairs = [(xs[:, None], xs[None, :]), (col, xs[None, :6]), (xs, 3 % ring.order), (1, 1)]
    for a, b in pairs:
        np.testing.assert_array_equal(ring.add_vec(a, b), digit_route(ring, a, b))
        np.testing.assert_array_equal(ring.sub_vec(a, b), digit_route(ring, a, b, -1))
        np.testing.assert_array_equal(ring.neg_vec(a), digit_route(ring, 0, a, -1))
        assert ring.add_vec(a, b).shape == np.broadcast(a, b).shape
