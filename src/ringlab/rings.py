"""Finite principal ideal rings with integer-indexed elements.

Five constructions are supported: integers mod N, finite fields GF(p^e),
quotients of a polynomial ring over a finite field by an arbitrary monic
modulus, Galois rings Z[w]/(p^n, f(w)), and finite products of any of these.
A ring's residue fields are only their sizes, in `prime_ideal_profile`:
finite fields of one order are isomorphic, so none is built.

Every ring enumerates its elements as indices 0..order-1. The additive group
is a direct sum of cyclic groups and the index is the mixed-radix encoding of
the coordinate vector, least significant coordinate first: in PQ the
coefficient of t^j sits at place q^j, and the first factor of a product is
least significant. `split_index`, `join_index` and `digits_of` are the one
codec, which the rings, the character positions (coefficients most
significant first) and the Hensel climb's digit rows all call; `poly_str`
is the one polynomial formatter. Index 0 is always the zero element, and
the multiplicative identity is always index 1 for the single-component
constructions. Element indices are plain Python ints, which keeps bulk
arithmetic vectorisable with numpy and makes reports JSON-stable. A set
of elements has one form, a sorted read-only int64 array, and one checked
constructor, `element_set`. Every translate x -> x + v is an `add_vec`:
`Ring.add_table(shifts)` builds whole rows, and `Ring.translate_counts`,
the one count of translates that land in a set, builds them in blocks of
at most `budget.BLOCK_ENTRIES` entries.

Each ring has one additive kernel (`_additive_kernels`), chosen from its
radices at its first add, sub or neg: XOR, residues mod M, bit lanes, or
place by place. Every add, sub and neg, scalar or vector, calls it, and
GF(p) adds residues as Z/p does.

Each ring has one product kernel, `_mul`, one expression for Python ints
and int64 arrays as the additive kernel is, and scalar `mul` and `mul_vec`
both call it. Z/N picks its kernels from N when it is built
(`_residue_product`), and binds them as its scalar operations too. GF, GR
and PQ are one class, `PolyQuotientRing`: base[t]/(g) over a base Z/p^n
or GF(q), GF(p^e;h) and GR(p,n,r;f) being quotients over Z/p^n with g
irreducible mod p that carry their spec and variable as data, so
PQ(q=p;g=h), GR(p,1,e;f=h) and GF(p^e;h) are one ring. Its kernel follows
from its structure, not its spelling, and is picked at its first product
(`_product_rule`): over Z/M, residues mod M when m = deg g = 1, the log and
antilog tables (`field_log_tables`) of a field, and the digit kernel
(`_digit_product`), with its reduction rows, on every other quotient; over
GF(q), q not prime, coefficient by coefficient through that field.
Products multiply factor by factor.

Up to `TABLE_ORDER` elements, bit lanes and place by place, and the digit,
coefficient and factor products, are one gather from a table in the
ring's memo, which the kernel builds in one call over every pair of
elements at the ring's first use of it (`Ring._tabled`).

`make_ring` keeps one ring per printed spec and guards, whose memo is the
one cache: its arrays stay under `budget.CACHE_BYTES` by dropping whole rings.
`_build_ring` alone checks a spec, against the order guard too; no
constructor reads a guard. Ring specs use a small textual grammar:

    Z/12
    GF(9)                    canonical defining polynomial
    GF(9;h=2,2,1)            explicit defining polynomial, ascending degree
    PQ(q=2;g=0,0,1)          F_2[t]/(t^2); g need not be irreducible
    GR(2,3,2)                Galois ring Z[w]/(2^3, f(w)), deg f = 2
    GR(2,3,2;f=1,1,1)        explicit f, irreducible mod p
    prod(Z/4;GF(4))          finite product, first factor least significant

Each coefficient of h, f and g is an element index of the base, 0..|base|-1.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import re
from typing import Iterable, Sequence

import numpy as np

from .budget import CACHE_BYTES, blocks, charge, order_guard, parse_int, work_guard
from .errors import NotIrreducible, NotMonic, OrderTooLarge, ParseError


def split_index(x: int, radices: Sequence[int]) -> tuple[int, ...]:
    """The digits of index x in the mixed radix radices, least significant
    first."""
    out = []
    for m in radices:
        x, d = divmod(x, m)
        out.append(d)
    return tuple(out)


def join_index(ds: Sequence[int], radices: Sequence[int]) -> int:
    """The index whose digits in the mixed radix radices are ds, least
    significant first: each digit is reduced mod its radix, and digits
    past the shorter of ds and radices count as zero."""
    x, place = 0, 1
    for d, m in zip(ds, radices):
        x += int(d) % m * place
        place *= m
    return x


def digits_of(a, radices: Sequence[int]) -> np.ndarray:
    """`split_index` of every entry of a, shape a.shape + (len(radices),)."""
    rest = np.asarray(a, dtype=np.int64)
    out = np.empty(rest.shape + (len(radices),), dtype=np.int64)
    for i, m in enumerate(radices):
        rest, out[..., i] = np.divmod(rest, m)
    return out


def _additive_kernels(radices: Sequence[int], places: Sequence[int]):
    """(add, sub, neg) on the indices of Z/m_1 + ... + Z/m_k with these radices
    and places, each one expression for Python ints and int64 arrays that
    holds no ring, so a ring keeping them forms no reference cycle: XOR when
    every radix is 2; residues mod M when there is one radix M, by a mask
    when M is a power of two; bit lanes when every radix is a power of two,
    H holding each lane's top bit so no carry or borrow leaves it (Warren,
    Hacker's Delight 2-18); else place by place, as a // P is the digit at
    place P plus a multiple of m. Each sub adds a multiple of m (M, or
    R = order / P) to keep the remainder's operand nonnegative, on which
    numpy's int64 remainder runs about twice as fast; neg takes -(a // P) % m,
    which measured faster than sub from 0."""
    if all(m == 2 for m in radices):
        return operator.xor, operator.xor, operator.pos
    if len(radices) == 1:
        M = radices[0]
        if M & (M - 1) == 0:
            return ((lambda a, b: (a + b) & (M - 1)), (lambda a, b: (a - b) & (M - 1)),
                    (lambda a: -a & (M - 1)))
        return (lambda a, b: (a + b) % M), (lambda a, b: (a - b + M) % M), (lambda a: (M - a) % M)
    if all(m & (m - 1) == 0 for m in radices):
        H = sum(m // 2 * P for m, P in zip(radices, places))
        return (lambda a, b: ((a & ~H) + (b & ~H)) ^ ((a ^ b) & H),
                lambda a, b: ((a | H) - (b & ~H)) ^ ((a ^ ~b) & H),
                lambda a: (H - (a & ~H)) ^ (~a & H))
    cut = [(m, P, math.prod(radices) // P) for m, P in zip(radices, places)]
    return (lambda a, b: sum((a // P + b // P) % m * P for m, P, _ in cut),
            lambda a, b: sum((a // P - b // P + R) % m * P for m, P, R in cut),
            lambda a: sum(-(a // P) % m * P for m, P, _ in cut))


#: The largest order at which bit lanes and place by place (add, sub and
#: neg) and the digit, coefficient and factor products are read from
#: tables (`Ring._tabled`): there one gather costs less than their numpy
#: calls. XOR, residues and the log tables are one expression each, and
#: as fast as a gather, so they stay as they are at every order.
TABLE_ORDER = 128


def distinct(*arrays) -> np.ndarray:
    """The sorted distinct entries of the arrays joined, as int64: what
    np.unique and np.union1d give, without the numpy.ma import that their
    first call in a process costs."""
    out = np.sort(np.concatenate(arrays, axis=None).astype(np.int64))
    return np.concatenate((out[:1], out[1:][out[1:] != out[:-1]]))


def element_set(ring: "Ring", elements) -> np.ndarray:
    """A set of elements of ring in its one form: the sorted distinct
    indices as a read-only int64 array. Python and numpy integers are
    accepted; any other entry (bool, float, digit string) and any index out
    of range, however large, is a ParseError."""
    if isinstance(elements, np.ndarray):
        integral = elements.dtype.kind in "iu"
    else:
        elements = list(elements)
        integral = all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in elements
        )
    if not integral:
        raise ParseError("set elements must be integers")
    try:
        out = distinct(np.asarray(elements, dtype=np.int64))
        in_range = not out.size or (out[0] >= 0 and out[-1] < ring.order)
    except OverflowError:
        in_range = False
    if not in_range:
        raise ParseError("set elements must be valid element indices")
    out.flags.writeable = False
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, ascending,
    by trial division, whose divisor is charged to the work guard each time
    it doubles past 2^10, all that an order under the default guard needs."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    d, charged = 2, 1 << 10
    while d * d <= n:
        if d > charged:
            charge(d, f"trial division of {n}")
            charged = 2 * d
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    if not isinstance(n, int) or isinstance(n, bool):
        return False
    if n < 2:
        return False
    return factorize(n) == [(n, 1)]


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers over a coefficient ring.
#
# Polynomials are tuples of element indices, ascending degree, no trailing
# zeros. These helpers are used at construction time (canonical moduli,
# reduction matrices, irreducibility checks, factoring quotient moduli) and
# by the F_p[t] elements of the intersectivity oracle, so scalar arithmetic
# on the coefficient ring is fast enough.
# ---------------------------------------------------------------------------


def _ptrim(c: Sequence[int]) -> tuple[int, ...]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _pmul(a: Sequence[int], b: Sequence[int], F: "Ring") -> tuple[int, ...]:
    if not a or not b:
        return ()
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] = add(out[i + j], mul(ai, bj))
    return _ptrim(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], F: "Ring") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide a by monic b over F, returning (quotient, remainder)."""
    if not b or b[-1] != F.one:
        raise ValueError("division requires a monic divisor")
    rem = list(a)
    db = len(b) - 1
    if db == 0:
        return _ptrim(a), ()
    sub, mul = F.sub, F.mul
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - db] = c
        rem[i] = 0
        for j in range(db):
            if b[j]:
                rem[i - db + j] = sub(rem[i - db + j], mul(c, b[j]))
    return _ptrim(quot), _ptrim(rem)


def _monic_polys(F: "Ring", degree: int) -> Iterable[tuple[int, ...]]:
    """All monic polynomials of the given degree over F, lexicographic in the
    ascending-degree coefficient vector."""
    for low in itertools.product(range(F.order), repeat=degree):
        yield low + (F.one,)


def poly_is_irreducible(poly: Sequence[int], F: "Ring") -> bool:
    """Trial-division irreducibility over a finite field F (poly monic)."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(F, d):
            _, rem = _pdivmod(poly, cand, F)
            if not rem:
                return False
    return True


def factor_poly(poly: Sequence[int], F: "Ring") -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic polynomial over a finite field F into monic irreducibles.

    Returns (factor, multiplicity) pairs ordered by (degree, coefficient
    vector). Trial division in that order only ever splits off irreducible
    factors, because any proper divisor of smaller degree would have been
    found first.
    """
    rem = _ptrim(poly)
    if len(rem) - 1 < 1:
        return []
    out: list[tuple[tuple[int, ...], int]] = []
    d = 1
    while len(rem) - 1 >= 2 * d:
        for cand in _monic_polys(F, d):
            mult = 0
            while True:
                quot, r = _pdivmod(rem, cand, F)
                if r:
                    break
                rem = quot
                mult += 1
            if mult:
                out.append((cand, mult))
            if len(rem) - 1 < 2 * d:
                break
        d += 1
    if len(rem) - 1 >= 1:
        out.append((rem, 1))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree e over Z/p,
    comparing ascending-degree coefficient vectors.

    For e >= 2 the search starts at constant term 1: a candidate with
    constant term 0 is divisible by u, and all of those come first in the
    order. The search takes milliseconds at e = 20; it runs once per
    interned field or Galois ring, whose `g` keeps the result.
    """
    if e == 1:
        return (0, 1)
    field = ZModRing(p)
    for low in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        if poly_is_irreducible(low + (1,), field):
            return low + (1,)
    raise RuntimeError(f"no irreducible of degree {e} over Z/{p}")


def field_log_tables(p: int, e: int, h: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(log, antilog) of GF(p^e) = (Z/p)[u]/(h), e >= 2, for the product
    a*b = antilog[log[a] + log[b]] (Lidl & Niederreiter, *Finite Fields*,
    ch. 9), as read-only arrays.

    With g a primitive element and n = p^e - 1, antilog[i] = g^(i mod n)
    for i < 2n - 1, so a sum of two logs needs no reduction mod n. Zero's
    log is the sentinel 2n - 1, past every such sum, and antilog is zero
    from there to its end at 2(2n - 1), so a product with zero reads 0
    without a mask.

    The powers of g are digit rows over F_p, built by doubling: rows k..2k-1
    are rows 0..k-1 times the matrix of multiplication by g^k, which is
    squared after each step. The field keeps them in its memo. They take 5
    entries per element, int32 below 2^29 elements.
    """
    n = p**e - 1
    step = _primitive_step(p, e, h)
    dtype = np.int32 if 4 * n < 1 << 31 else np.int64
    places = p ** np.arange(e, dtype=np.int64)
    antilog = np.zeros(2 * (2 * n - 1) + 1, dtype=dtype)
    rows = np.zeros((n, e), dtype=np.min_scalar_type(p - 1))
    # Exact in float64, and reduced in the narrowest unsigned type that
    # holds them: each entry sums e products of two digits < p.
    sum_type = np.min_scalar_type(e * (p - 1) ** 2)
    rows[0, 0] = antilog[0] = 1
    k = 1
    while k < n:
        count = min(k, n - k)
        by = step.T.astype(np.float64)
        for block in blocks(count, e):
            rows[k:][block] = (rows[block] @ by).astype(sum_type) % p
            antilog[k:][block] = rows[k:][block] @ places
        step = step @ step % p
        k += count
    antilog[n:2 * n - 1] = antilog[:n - 1]
    log = np.empty(n + 1, dtype=dtype)
    log[antilog[:n]] = np.arange(n, dtype=dtype)
    log[0] = 2 * n - 1
    log.flags.writeable = antilog.flags.writeable = False
    return log, antilog


def _primitive_step(p: int, e: int, h: tuple[int, ...]) -> np.ndarray:
    """The e x e matrix over F_p of multiplication by the first element of
    GF(p^e) = (Z/p)[u]/(h), in index order, whose (n/r)-th power is not the
    identity for any prime r dividing n = p^e - 1: a primitive element. The
    search starts at u, since 0..p-1 lie in F_p."""
    n = p**e - 1
    # Column a is u * u^a: u^(a+1), or -h(u) + u^e for a = e - 1.
    U = np.zeros((e, e), dtype=np.int64)
    U[1:, :-1] = np.eye(e - 1, dtype=np.int64)
    U[:, -1] = [-c % p for c in h[:-1]]
    u_powers = [np.eye(e, dtype=np.int64)]
    for _ in range(e - 1):
        u_powers.append(U @ u_powers[-1] % p)

    def mul(A, B):
        return A @ B % p

    identity, cofactors = u_powers[0], [n // r for r, _ in factorize(n)]
    for g in range(p, n + 1):
        G = sum(d * power for d, power in zip(split_index(g, (p,) * e), u_powers)) % p
        if all(not np.array_equal(_power(mul, G, c), identity) for c in cofactors):
            return G
    raise RuntimeError(f"no primitive element modulo {list(h)} over Z/{p}")


# ---------------------------------------------------------------------------
# Ring base class
# ---------------------------------------------------------------------------


class Ring:
    """Common element-index arithmetic over a fixed additive coordinate system.

    Subclasses must set `order`, `characteristic` and `_radices`, set `_mul`
    or implement `_product_rule`, and implement `prime_ideal_profile` and
    `spec_string`; no ring builds its residue fields, which the profile
    gives by their sizes alone. Addition is generic: the first add, sub or
    neg picks its kernel from the radices (`_additive`), and every add,
    sub and neg, scalar or vector, calls it; a subclass defines no
    additive method. Products are too: `_mul` is the ring's one product
    kernel, on Python ints and int64 arrays alike, holding no reference to
    the ring, and scalar `mul` and `mul_vec` both call it; a subclass
    defines neither. The scalar operations return Python ints.
    """

    order: int
    characteristic: int
    one: int
    _radices: tuple[int, ...]

    def __init__(self) -> None:
        self._memo: dict = {}
        self.memo_bytes = 0
        places = list(itertools.accumulate(self._radices[:-1], operator.mul, initial=1))
        self._places = np.array(places, dtype=np.int64)

    def memo(self, key, build):
        """The value of `build()` for this ring and key: built on the first
        call, then returned as is for as long as the ring lives. A numpy
        array is made read-only before it is kept, since every caller shares
        it, and so is every array of a tuple or dataclass value;
        `memo_bytes` adds up their nbytes. No value may refer back to the
        ring: a ring in a reference cycle outlives its last user until the
        cyclic collector runs."""
        if key not in self._memo:
            value = build()
            parts = (value if isinstance(value, tuple) else
                     vars(value).values() if dataclasses.is_dataclass(value) else (value,))
            for part in parts:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
                    self.memo_bytes += part.nbytes
            self._memo[key] = value
        return self._memo[key]

    # -- the kernels, each bound at its first call ---------------------------

    def _add(self, a, b):
        """The first add: the kernel that `_additive` picks takes this
        method's place on the ring, and every later add calls it directly;
        so do sub, neg and the first product."""
        self._add = self._additive("add")
        return self._add(a, b)

    def _sub(self, a, b):
        self._sub = self._additive("sub")
        return self._sub(a, b)

    def _neg(self, a):
        self._neg = self._additive("neg")
        return self._neg(a)

    def _mul(self, a, b):
        self._mul = self._product_rule()
        return self._mul(a, b)

    def _additive(self, name: str):
        """The add, sub or neg kernel of `_additive_kernels`, from its table
        (`_tabled`) when it is bit lanes or place by place: more than one
        radix, not all of them 2."""
        kernels = _additive_kernels(self._radices, self._places.tolist())
        kernel = kernels[("add", "sub", "neg").index(name)]
        if len(self._radices) == 1 or set(self._radices) == {2}:
            return kernel
        return self._tabled(name, kernel, arity=1 if name == "neg" else 2)

    def _tabled(self, name: str, kernel, arity: int = 2):
        """kernel on a ring of more than `TABLE_ORDER` elements; else a
        gather from its table over every element (arity 1) or every pair
        of elements (arity 2), built by one broadcast call of kernel and
        kept in the memo under ("table", name). The gather holds the table
        alone and gives an np.int64 on Python ints."""
        if self.order > TABLE_ORDER:
            return kernel

        def build():
            x = np.arange(self.order, dtype=np.int64)
            return np.asarray(kernel(*((x,) if arity == 1 else (x[:, None], x))), dtype=np.int64)

        table = self.memo(("table", name), build)
        return lambda *operands: table[operands]

    # -- scalar coordinate arithmetic --------------------------------------

    def additive_orders(self) -> tuple[int, ...]:
        return self._radices

    def digits(self, x: int) -> tuple[int, ...]:
        return split_index(x, self._radices)

    def from_digits(self, ds: Sequence[int]) -> int:
        return join_index(ds, self._radices)

    def add(self, a: int, b: int) -> int:
        return int(self._add(a, b))

    def neg(self, a: int) -> int:
        return int(self._neg(a))

    def sub(self, a: int, b: int) -> int:
        return int(self._sub(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self._mul(a, b))

    def from_int(self, n: int) -> int:
        ds = self.digits(self.one)
        return self.from_digits([n * d for d in ds])

    # -- derived structure ---------------------------------------------------

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        """(residue field size, multiplicity) per prime ideal, sorted."""
        raise NotImplementedError

    def lpf(self) -> int:
        """Least prime factor: the smallest residue field size."""
        return min(size for size, _ in self.prime_ideal_profile())

    def units_count(self) -> int:
        count = self.order
        for size, _ in self.prime_ideal_profile():
            count = count // size * (size - 1)
        return count

    @property
    def is_field(self) -> bool:
        profile = self.prime_ideal_profile()
        return len(profile) == 1 and profile[0] == (self.order, 1)

    def spec_string(self) -> str:
        raise NotImplementedError

    def element_str(self, x: int) -> str:
        return str(x)

    def info_dict(self) -> dict:
        return {
            "spec": self.spec_string(),
            "order": self.order,
            "characteristic": self.characteristic,
            "lpf": self.lpf(),
            "units": self.units_count(),
            "prime_profile": [list(entry) for entry in self.prime_ideal_profile()],
            "additive_invariants": list(self._radices),
        }

    def __repr__(self) -> str:
        return f"<Ring {self.spec_string()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.spec_string() == other.spec_string()

    def __hash__(self) -> int:
        return hash(self.spec_string())

    # -- vectorised coordinate arithmetic -----------------------------------

    def add_vec(self, a, b) -> np.ndarray:
        """a + b elementwise, broadcasting, by the ring's one kernel."""
        return self._add(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def neg_vec(self, a) -> np.ndarray:
        return self._neg(np.asarray(a, dtype=np.int64))

    def sub_vec(self, a, b) -> np.ndarray:
        return self._sub(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def mul_vec(self, a, b) -> np.ndarray:
        """a * b elementwise, broadcasting, by the ring's one kernel: an
        int64 array, 0-d for 0-d operands, where numpy gives scalars."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return np.asarray(self._mul(a, b), dtype=np.int64)

    def pow_vec(self, a, e: int) -> np.ndarray:
        """a^e elementwise, always as a new array."""
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.full(a.shape, self.one, dtype=np.int64)
        result = _power(self.mul_vec, a, e)
        return a.copy() if result is a else result

    def eval_poly_vec(self, coeffs: Sequence[int], xs) -> np.ndarray:
        """Evaluate sum_j coeffs[j] x^j at every x in xs (Horner)."""
        xs = np.asarray(xs, dtype=np.int64)
        if not coeffs:
            return np.zeros(xs.shape, dtype=np.int64)
        acc = np.full(xs.shape, coeffs[-1], dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc = self.mul_vec(acc, xs)
            if c != 0:
                acc = self.add_vec(acc, np.full(xs.shape, c, dtype=np.int64))
        return acc

    def add_table(self, shifts) -> np.ndarray:
        """Rows x -> x + v over every element x, one row per shift v in the
        order given, repeats included: one `add_vec` over the
        (len(shifts), order) grid. Nothing is kept, and no row is built
        that was not asked for."""
        column = np.asarray(shifts, dtype=np.int64).reshape(-1, 1)
        return self.add_vec(np.arange(self.order, dtype=np.int64), column)

    def translate_counts(self, mask, shifts, rows=None) -> np.ndarray:
        """#{v in shifts, repeats counted : mask[..., x + v]} for every x in
        rows (default: every element), exact int64 of shape mask.shape[:-1]
        + (len(rows),); an integer mask adds its entries. The translates are
        built in blocks of the shifts of at most `budget.BLOCK_ENTRIES`."""
        mask = np.asarray(mask)
        shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, 1)
        rows = np.asarray(np.arange(self.order) if rows is None else rows, dtype=np.int64)
        out = np.zeros(mask.shape[:-1] + (rows.size,), dtype=np.int64)
        for block in blocks(len(shifts), max(rows.size, 1)):
            # Named until the next block is built: freed inside the gather,
            # each block went back to the kernel and was faulted in again.
            table = self.add_vec(rows, shifts[block])
            out += np.take(mask, table, axis=-1).sum(axis=-2)
        return out


def _power(mul, a, e: int):
    """a^e for e >= 1 by left-to-right binary powering: bit_length(e) - 1
    squarings and popcount(e) - 1 further products (Knuth, TAOCP vol. 2,
    4.6.3), the fewest that binary powering needs."""
    if e < 0:
        raise ValueError("negative exponents are not defined here")
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


# ---------------------------------------------------------------------------
# Z/N
# ---------------------------------------------------------------------------


class ZModRing(Ring):
    """Integers modulo N, N >= 2."""

    def __init__(self, n: int):
        self.n = n
        self.order = n
        self.characteristic = n
        self.one = 1
        self._radices = (n,)
        self._factorization = factorize(n)
        # Residues give Python ints on Python ints, so each kernel is its
        # scalar operation too, which the trial division of the canonical
        # modulus search runs on.
        kernels = _additive_kernels((n,), (1,))
        self._add, self._sub, self._neg = self.add, self.sub, self.neg = kernels
        self._mul = self.mul = _residue_product(n)
        super().__init__()

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        return [(p, e) for p, e in self._factorization]

    def spec_string(self) -> str:
        return f"Z/{self.n}"


def _reduce(x: np.ndarray, M: int) -> np.ndarray:
    """x mod M; a mask when M is a power of two, which two's complement
    makes right for negative x too."""
    return x & (M - 1) if M & (M - 1) == 0 else x % M


def _residue_product(M: int):
    """a * b mod M, one expression for Python ints and int64 arrays that
    holds no ring and gives Python ints on Python ints: by a mask when M is
    a power of two, by % M otherwise, and in object integers, which keep
    the product exact, once (M - 1)^2 no longer fits in int64."""
    if (M - 1) ** 2 >= 1 << 63:
        return lambda a, b: (a * b % M if type(a) is type(b) is int
                             else np.asarray(a, dtype=object) * b % M)
    mask = M - 1
    if M & mask == 0:
        return lambda a, b: a * b & mask
    return lambda a, b: a * b % M


# ---------------------------------------------------------------------------
# base[t] / (g): a base Z/p^n or GF(q), g monic; GF and GR are spellings
# ---------------------------------------------------------------------------


class PolyQuotientRing(Ring):
    """base[t]/(g) for a base Z/p^n or GF(q) and a monic modulus g of
    degree m >= 1, which need not be irreducible: PQ(q;g). GF and GR pass
    their `spelling`, the pair (spec, variable); their g is irreducible
    mod p, as `_build_ring` checks.

    Elements are polynomials in t of degree < m with coefficients in the
    base, encoded base q = |base|: coefficient j occupies digit-place q^j.
    A base Z/p^n with n >= 2 builds only as GR, whose f is irreducible mod
    p: other g may give a ring that is not a principal ideal ring, such as
    (Z/4)[x]/(x^2), and the PQ spec would name GF(p^n)[t]/(g) instead.
    """

    def __init__(self, base: Ring, g: tuple[int, ...], spelling: tuple[str, str] | None = None):
        if base.prime_ideal_profile()[0][1] > 1 and spelling is None:
            raise ParseError(
                f"PQ: coefficient ring Z/{base.order} is not a field; a quotient over Z/p^n "
                "with n >= 2 builds only as GR(p,n,r), whose modulus is irreducible mod p"
            )
        self.base = base
        self.g = tuple(int(c) for c in g)
        self.m = m = len(self.g) - 1
        self.q = base.order
        self.order = base.order**m
        self.characteristic = base.characteristic
        self.one = 1
        self._radices = base.additive_orders() * m
        self._spec, self._variable = spelling or (None, "t")
        super().__init__()

    def _product_rule(self):
        """The ring's one product kernel, picked from its structure: over
        Z/M, residues mod M when m = 1 (`_residue_product`), the log tables
        (`field_log_tables`) of a field with m >= 2, and the digit kernel
        (`_digit_product`) on every other quotient; over GF(q), q not prime,
        coefficient by coefficient through that field
        (`_coefficient_product`). The last two are read from their tables
        (`_tabled`) up to `TABLE_ORDER` elements. None refers back to the
        ring."""
        M, m, g = self.characteristic, self.m, self.g
        if self.q != M:
            return self._tabled("mul", functools.partial(_coefficient_product, self.base, g))
        if m == 1:
            return _residue_product(M)
        if self.is_field:
            log, antilog = self.memo("log_tables", lambda: field_log_tables(M, m, g))
            return lambda a, b: antilog[log[a] + log[b]]
        L = self.memo("reduction_rows", lambda: _reduction_matrix(M, g))
        return self._tabled("mul", functools.partial(_digit_product, M, L, self._places))

    def coeffs(self, x: int) -> tuple[int, ...]:
        return split_index(x, (self.q,) * self.m)

    def modulus_factors(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """g over the residue field of the base, Z/p or GF(q), factored
        into monic irreducibles with their multiplicities: g mod p alone
        for GF and GR, whose g is irreducible mod p, without trial
        division."""
        def build():
            (k, _), = self.base.prime_ideal_profile()
            g = tuple(c % k for c in self.g)
            return ((g, 1),) if self._spec else tuple(factor_poly(g, self.base))
        return self.memo("modulus_factors", build)

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        """With (k, n) the base's one entry, (p, n) for Z/p^n and (q, 1) for
        GF(q), each factor h^e of `modulus_factors` gives (k^deg h, n e)."""
        (k, n), = self.base.prime_ideal_profile()
        return sorted((k ** (len(h) - 1), n * e) for h, e in self.modulus_factors())

    def spec_string(self) -> str:
        return self._spec or f"PQ(q={self.q};g={','.join(str(c) for c in self.g)})"

    def element_str(self, x: int) -> str:
        if self.q == self.characteristic:
            return poly_str(self.coeffs(x), self._variable, _digit_head)

        def part(c: int) -> str:
            return f"({self.base.element_str(c)})"

        return poly_str(self.coeffs(x), "t", part, const=part)


def _digit_product(M: int, L: np.ndarray, places: np.ndarray, a, b) -> np.ndarray:
    """The digit kernel of a quotient over Z/M with m = len(places) >= 2:
    the integer convolution of the two operands' m coefficients, reduced
    mod M; each coefficient of t^b with b >= m is then added in times row
    b - m of the reduction matrix L, t^b mod g, and the sum reduced mod M."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    m = len(places)
    # Digit rows of at least one entry: an object row takes their entries
    # as Python ints, where a 0-d array would be stored whole.
    da, db = np.empty((2, m, a.size), dtype=L.dtype)
    for rest, digits in ((a.reshape(-1), da), (b.reshape(-1), db)):
        for i in range(m - 1):
            high = rest // M
            digits[i] = rest - high * M
            rest = high
        digits[-1] = rest
    conv = np.zeros((2 * m - 1, a.size), dtype=L.dtype)
    term = np.empty_like(db)
    for j in range(m):
        conv[j:j + m] += np.multiply(da[j], db, out=term)
    conv = _reduce(conv, M)
    out = conv[:m]
    for high, row in zip(conv[m:], L):
        out += row[:, None] * high
    return (places @ _reduce(out, M)).astype(np.int64).reshape(a.shape)


def _coefficient_product(F: Ring, g: tuple[int, ...], a, b) -> np.ndarray:
    """The product of F[t]/(g) for a field F = GF(q), q not prime: the
    schoolbook product of the m = deg g coefficients through F's products
    and sums, reduced by g from the top coefficient down."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    q, m = F.order, len(g) - 1
    # One array per coefficient: the field's gathers read the strided
    # columns of `digits_of` about twice as slowly.
    ca, cb = [], []
    for _ in range(m):
        (a, ai), (b, bi) = np.divmod(a, q), np.divmod(b, q)
        ca.append(ai)
        cb.append(bi)
    c = [None] * (2 * m - 1)
    for i, j in itertools.product(range(m), repeat=2):
        term = F.mul_vec(ca[i], cb[j])
        c[i + j] = term if c[i + j] is None else F.add_vec(c[i + j], term)
    for top in range(2 * m - 2, m - 1, -1):
        for j, gj in enumerate(g[:-1], start=top - m):
            if gj:
                c[j] = F.sub_vec(c[j], F.mul_vec(c[top], gj))
    return sum(cj * q**j for j, cj in enumerate(c[:m]))


def _reduction_matrix(M: int, modulus: tuple[int, ...]) -> np.ndarray:
    """Row b - m holds t^b mod the monic modulus of degree m over Z/M, for
    m <= b < 2m - 1, in the narrowest signed dtype that keeps the digit
    kernel's sums exact. The quotient ring keeps it in its memo, built at
    its first digit product."""
    m = len(modulus) - 1
    rows, row = [], [int(j == m - 1) for j in range(m)]
    for _ in range(m - 1):
        # t * t^(b-1): shift up, and t^m = -(g_0 + ... + g_(m-1) t^(m-1)).
        row = [(c - row[-1] * g) % M for c, g in zip([0] + row[:-1], modulus)]
        rows.append(row)
    # Every sum the kernel forms has at most 2m - 1 terms, each a product of
    # two digits below M (object past int64: exact, slow).
    dtype = np.min_scalar_type(-1 - (2 * m - 1) * (M - 1) ** 2)
    return np.array(rows, dtype=dtype).reshape(m - 1, m)


# ---------------------------------------------------------------------------
# Finite products
# ---------------------------------------------------------------------------


class ProductRing(Ring):
    """Direct product of rings; the first factor is least significant in the
    element index."""

    def __init__(self, factors: Sequence[Ring]):
        self.factors = tuple(factors)
        self.order = math.prod(f.order for f in factors)
        self.characteristic = math.lcm(*(f.characteristic for f in factors))
        self._radices = tuple(
            m for f in factors for m in f.additive_orders()
        )
        self.one = join_index([f.one for f in factors], [f.order for f in factors])
        super().__init__()

    def _product_rule(self):
        """Factor by factor (`_factor_product`), from its table (`_tabled`)
        up to `TABLE_ORDER` elements."""
        return self._tabled("mul", functools.partial(_factor_product, self.factors))

    def split(self, x: int) -> tuple[int, ...]:
        return split_index(x, [f.order for f in self.factors])

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        return sorted(entry for f in self.factors for entry in f.prime_ideal_profile())

    def spec_string(self) -> str:
        return f"prod({';'.join(f.spec_string() for f in self.factors)})"

    def element_str(self, x: int) -> str:
        parts = [
            f.element_str(c) for f, c in zip(self.factors, self.split(x))
        ]
        return "(" + ", ".join(parts) + ")"


def _factor_product(factors: Sequence[Ring], a, b):
    """The product kernel of a direct product: factor by factor, each
    factor's `mul_vec` broadcasting a against b."""
    result, place = 0, 1
    for f in factors:
        a, ca = np.divmod(a, f.order)
        b, cb = np.divmod(b, f.order)
        result = result + place * f.mul_vec(ca, cb)
        place *= f.order
    return result


# ---------------------------------------------------------------------------
# Formatting and parsing
# ---------------------------------------------------------------------------


def poly_str(coeffs: Sequence[int], var: str, head, const=str) -> str:
    """sum_j c_j var^j as text in ascending degree, zero terms left out and
    "0" when all are: const(c_0) for the constant term, and head(c_j) just
    before each power of var."""
    terms = [const(c) if j == 0 else head(c) + var + (f"^{j}" if j > 1 else "")
             for j, c in enumerate(coeffs) if c != 0]
    return " + ".join(terms) or "0"


def _digit_head(c: int) -> str:
    """The head of a digit coefficient: none for 1."""
    return "" if c == 1 else str(c)


def _check_order(order: int) -> None:
    """Refuse an order past the guard; one of more than 64 bits is named by
    its bit length, as Python formats no int of more than 4,300 digits."""
    limit = order_guard()
    if order > limit:
        shown = order if order.bit_length() <= 64 else f"of {order.bit_length()} bits"
        raise OrderTooLarge(f"ring order {shown} exceeds the enumeration guard {limit}")


def _spec_size(digits: str) -> int:
    """A size in a ring spec (a modulus, q, or p, n or r of GR), each at most
    the ring's order: more digits than the order guard refuse the spec
    before int() reads them."""
    limit = order_guard()
    if len(digits.lstrip("0")) > len(str(limit)):
        raise OrderTooLarge(f"ring spec number of {len(digits)} digits exceeds the enumeration guard {limit}")
    return int(digits)


# Past any real product; keeps each recursion over factors in Python's limit.
_MAX_SPEC_NESTING = 32


def _split_top_level(body: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
            if depth > _MAX_SPEC_NESTING:
                raise ParseError(f"ring spec nests parentheses more than {_MAX_SPEC_NESTING} deep")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {body!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {body!r}")
    parts.append("".join(current))
    return parts


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of text, each by `parse_int`."""
    return tuple(parse_int(t, what) for t in text.split(","))


#: The interned rings by (printed spec, order guard, work guard), least
#: recent first, and the key of the ring that each stripped spec text gave
#: under those guards.
_RINGS: dict[tuple[str, int, int], Ring] = {}
_TEXTS: dict[tuple[str, int, int], tuple[str, int, int]] = {}


def make_ring(spec: str) -> Ring:
    """The one ring of spec under the current guards, built at its first
    call: equal spellings, such as GF(16), GF(016) and GF(16;h=1,0,0,1,1),
    whose `spec_string` is one, give one ring. Each call first drops whole
    rings, least recently used first, until the `memo_bytes` of those kept
    fit under `budget.CACHE_BYTES`: a ring over the cap alone too, which is
    then rebuilt empty.

    Raises ParseError for malformed specs, NotMonic / NotIrreducible for bad
    defining polynomials, and OrderTooLarge when the order exceeds the guard
    (default 2^20, set by RINGLAB_ORDER_GUARD); `_build_ring` checks them all.
    """
    text = (spec.strip(), order_guard(), work_guard())
    key = _TEXTS.get(text)
    if key in _RINGS:
        _RINGS[key] = _RINGS.pop(key)
    held = sum(r.memo_bytes for r in _RINGS.values())
    while held > CACHE_BYTES:
        held -= _RINGS.pop(next(iter(_RINGS))).memo_bytes
    if key not in _RINGS:
        ring = _build_ring(text[0])
        key = _TEXTS[text] = (ring.spec_string(), *text[1:])
        # A spelling seen first keeps its ring, now the most recent.
        _RINGS[key] = _RINGS.pop(key, ring)
    return _RINGS[key]


def _build_ring(spec: str) -> Ring:
    """A new ring of the stripped spec, which this function alone checks:
    its numbers, its modulus and its order against the order guard. PQ's
    modulus before its base field and order; GF's and GR's order before
    their prime power is factored and their modulus checked or searched for."""
    m = re.fullmatch(r"Z/([0-9]+)", spec)
    if m:
        n = _spec_size(m.group(1))
        if n < 2:
            raise ParseError(f"Z/{n}: modulus must be at least 2")
        _check_order(n)
        return ZModRing(n)

    m = re.fullmatch(r"PQ\(q=([0-9]+);g=([^)]+)\)", spec)
    if m:
        q = _spec_size(m.group(1))
        g = parse_int_list(m.group(2), "PQ g")
        if len(g) < 2:
            raise ParseError("PQ: modulus must have degree at least 1")
        if any(not 0 <= c < q for c in g):
            raise ParseError("PQ: modulus coefficients must be base field indices")
        if g[-1] != 1:
            raise NotMonic("PQ: modulus must be monic")
        base = make_ring(f"GF({q})")
        _check_order(q ** (len(g) - 1))
        return PolyQuotientRing(base, g)

    if spec.startswith("prod(") and spec.endswith(")"):
        body = spec[len("prod(") : -1]
        parts = _split_top_level(body, ";")
        if any(not p.strip() for p in parts):
            raise ParseError(f"prod: empty factor in {spec!r}")
        factors = [make_ring(p) for p in parts]
        _check_order(math.prod(f.order for f in factors))
        return ProductRing(factors)

    # GF(p^r;h) and GR(p,n,r;f), n = 1 for GF: (Z/p^n)[x]/(f).
    m = re.fullmatch(r"GF\(([0-9]+)(?:;h=([^)]+))?\)", spec)
    if m:
        q = _spec_size(m.group(1))
        given = m.group(2) and parse_int_list(m.group(2), "GF h")
        _check_order(q)
        factors = factorize(max(q, 1))
        if len(factors) != 1:
            raise ParseError(f"{q} is not a prime power")
        (p, r), = factors
        n, head, args = 1, "GF", f"{q}"
    else:
        m = re.fullmatch(r"GR\(([0-9]+),([0-9]+),([0-9]+)(?:;f=([^)]+))?\)", spec)
        if not m:
            raise ParseError(f"unrecognised ring spec {spec!r}")
        p, n, r = (_spec_size(d) for d in m.group(1, 2, 3))
        given = m.group(4) and parse_int_list(m.group(4), "GR f")
        head, args = "GR", f"{p},{n},{r}"
        if n < 1 or r < 1:
            raise ParseError(f"GR({args}): n and r must be positive")
        # For p >= 2, p^(n r) >= p and >= 2^(n r): bound both before the power.
        limit = order_guard()
        if p > limit or (p > 1 and n * r > limit.bit_length()):
            raise OrderTooLarge(f"GR({args}): order {p}^{n * r} exceeds the enumeration guard {limit}")
        if not is_prime(p):
            raise ParseError(f"GR({args}): {p} is not prime")
        _check_order(p ** (n * r))
    key, noun, variable = _SPELLINGS[head]
    what = f"{head}({args}): {noun}"
    if given is not None:
        if len(given) != r + 1:
            raise ParseError(f"{what} must have degree {r}")
        if any(not 0 <= c < p**n for c in given):
            raise ParseError(f"{what} coefficients must lie in 0..{p**n - 1}")
        if given[-1] != 1:
            raise NotMonic(f"{what} must be monic")
        if not poly_is_irreducible(tuple(c % p for c in given), ZModRing(p)):
            raise NotIrreducible(f"{what} {list(given)} is reducible mod {p}")
    # The canonical modulus is searched for only once the spec is checked,
    # and a given modulus equal to it is left out of the spec.
    canonical = canonical_irreducible(p, r)
    f = canonical if given is None else given
    pinned = "" if f == canonical else f";{key}={','.join(map(str, f))}"
    return PolyQuotientRing(ZModRing(p**n), f, (f"{head}({args}{pinned})", variable))


#: GF's and GR's given modulus: its key in the spec, its name in errors, and
#: the variable.
_SPELLINGS = {"GF": ("h", "defining polynomial", "u"), "GR": ("f", "f", "w")}
