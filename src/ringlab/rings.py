"""Finite principal ideal rings with integer-indexed elements.

Five constructions are supported: integers mod N, finite fields GF(p^e),
quotients of a polynomial ring over a finite field by an arbitrary monic
modulus, Galois rings Z[w]/(p^n, f(w)), and finite products of any of these.

Every ring enumerates its elements as indices 0..order-1. The additive group
is a direct sum of cyclic groups and the index is the mixed-radix encoding of
the coordinate vector, least significant coordinate first. Index 0 is always
the zero element, and the multiplicative identity is always index 1 for the
single-component constructions. Element indices are plain Python ints, which
keeps bulk arithmetic vectorisable with numpy and makes reports JSON-stable.
Every translate x -> x + v comes from `Ring.add_table(shifts)`, which builds
only the rows asked for; `Ring.translate_blocks` hands them out in blocks
of bounded size, and `Ring.translates` one row at a time.

GF(p^e), GR(p,n,r) and PQ(q;g) are each a coefficient ring modulo a monic
polynomial, and share one multiplication kernel (`_PolyModRing.mul_vec`):
the integer 2-D convolution of the two operands' digit grids (m
coefficients by e digits), reduced mod the characteristic M, mapped through
one reduction matrix L whose row (b, a) holds the digits of u^a t^b, and
reduced mod M again. Z/N keeps its own kernels; products multiply factor
by factor; scalar `mul` is `mul_vec` on 0-d arrays.

Ring specs use a small textual grammar:

    Z/12
    GF(9)                    canonical defining polynomial
    GF(9;h=2,2,1)            explicit defining polynomial, ascending degree
    PQ(q=2;g=0,0,1)          F_2[t]/(t^2); g need not be irreducible
    GR(2,3,2)                Galois ring Z[w]/(2^3, f(w)), deg f = 2
    GR(2,3,2;f=1,1,1)        explicit f, irreducible mod p
    prod(Z/4;GF(4))          finite product, first factor least significant
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Sequence

import numpy as np

from .budget import order_guard
from .errors import NotIrreducible, NotMonic, OrderTooLarge, ParseError

#: entries per block of rows that `Ring.translate_blocks` builds at once
_TRANSLATE_BLOCK = 1 << 18


def distinct(*arrays) -> np.ndarray:
    """The sorted distinct entries of the arrays joined, as int64: what
    np.unique and np.union1d give, without the numpy.ma import that their
    first call in a process costs."""
    out = np.sort(np.concatenate(arrays, axis=None).astype(np.int64))
    return np.concatenate((out[:1], out[1:][out[1:] != out[:-1]]))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
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


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise ParseError if q is not one."""
    if q < 2:
        raise ParseError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ParseError(f"{q} is not a prime power")
    return fac[0]


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


@functools.lru_cache(maxsize=None)
def canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree e over Z/p,
    comparing ascending-degree coefficient vectors.

    For e >= 2 the search starts at constant term 1: a candidate with
    constant term 0 is divisible by u, and all of those come first in the
    order. Memoised for the whole process, unlike the per-ring values in
    `Ring.memo`: the result depends on (p, e) alone and holds no ring, while
    the trial-division search still takes milliseconds at e = 20 and a
    batch builds the same fields job after job.
    """
    if e == 1:
        return (0, 1)
    field = ZModRing(p)
    for low in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        if poly_is_irreducible(low + (1,), field):
            return low + (1,)
    raise RuntimeError(f"no irreducible of degree {e} over Z/{p}")


# ---------------------------------------------------------------------------
# Ring base class
# ---------------------------------------------------------------------------


class Ring:
    """Common element-index arithmetic over a fixed additive coordinate system.

    Subclasses must set `order`, `characteristic`, `_radices` and implement
    `mul_vec`, `prime_ideal_profile`, `residue_fields` and `spec_string`.
    Addition is generic: it acts digit-wise on the mixed-radix coordinates.
    Scalar `mul` is `mul_vec` on 0-d arrays unless a subclass overrides it.
    """

    order: int
    characteristic: int
    one: int
    _radices: tuple[int, ...]

    def __init__(self) -> None:
        self._memo: dict = {}
        radices = np.asarray(self._radices, dtype=np.int64)
        self._radices_arr = radices
        places = np.ones(len(self._radices), dtype=np.int64)
        for i in range(1, len(self._radices)):
            places[i] = places[i - 1] * self._radices[i - 1]
        self._places = places
        # Every digit mod 2: the element index is the bit vector of its
        # coordinates, so addition and subtraction are XOR and x = -x.
        self._binary = all(m == 2 for m in self._radices)
        # Every radix a power of two: each digit is a bit field (a lane) of
        # the index, and H holds the top bit of every lane.
        self._lanes = all(m & (m - 1) == 0 for m in self._radices)
        self._lane_top = sum(m // 2 * int(pl) for m, pl in zip(self._radices, places))

    def memo(self, key, build):
        """The value of `build()` for this ring and key: built on the first
        call, then returned as is for as long as the ring lives. A numpy
        array is made read-only before it is kept, since every caller shares
        it. No value may refer back to the ring: a ring in a reference cycle
        outlives its last user until the cyclic collector runs."""
        if key not in self._memo:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    # -- scalar coordinate arithmetic --------------------------------------

    def additive_orders(self) -> tuple[int, ...]:
        return self._radices

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for m in self._radices:
            x, d = divmod(x, m)
            out.append(d)
        return tuple(out)

    def from_digits(self, ds: Sequence[int]) -> int:
        x = 0
        for d, m, pl in zip(ds, self._radices, self._places):
            x += (d % m) * int(pl)
        return x

    def add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.from_digits([x + y for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self.from_digits([-d for d in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_vec(a, b))

    def pow(self, a: int, e: int) -> int:
        return _power(self.mul, a, e) if e else self.one

    def from_int(self, n: int) -> int:
        ds = self.digits(self.one)
        return self.from_digits([n * d for d in ds])

    # -- derived structure ---------------------------------------------------

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        """(residue field size, multiplicity) per prime ideal, sorted."""
        raise NotImplementedError

    def residue_fields(self) -> list[tuple[int, "Ring"]]:
        """(residue field size, quotient ring) per prime ideal."""
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

    def _digits_of(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        out = np.empty(a.shape + (len(self._radices),), dtype=np.int64)
        rest = a
        for i, m in enumerate(self._radices):
            rest, d = np.divmod(rest, m)
            out[..., i] = d
        return out

    def _from_digit_array(self, ds: np.ndarray) -> np.ndarray:
        return (ds % self._radices_arr) @ self._places

    def add_vec(self, a, b) -> np.ndarray:
        """a + b elementwise, broadcasting. XOR when every radix is 2; on
        other lane rings the low bits of each lane add in one pass and the
        top bits are put back by XOR, so no carry crosses a lane (Warren,
        Hacker's Delight 2-18); else digit by digit."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._binary:
            return np.bitwise_xor(a, b)
        if self._lanes:
            H = self._lane_top
            return ((a & ~H) + (b & ~H)) ^ ((a ^ b) & H)
        return self._from_digit_array(self._digits_of(a) + self._digits_of(b))

    def neg_vec(self, a) -> np.ndarray:
        if self._lanes:
            return self.sub_vec(0, a)
        return self._from_digit_array(-self._digits_of(a))

    def sub_vec(self, a, b) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._binary:
            return np.bitwise_xor(a, b)
        if self._lanes:
            # Each lane of a | H is at least H's bit and each lane of b & ~H
            # below it, so no borrow leaves a lane and no mask is needed.
            H = self._lane_top
            return ((a | H) - (b & ~H)) ^ ((a ^ ~b) & H)
        return self._from_digit_array(self._digits_of(a) - self._digits_of(b))

    def mul_vec(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod the characteristic, for rings whose every radix is the
        characteristic; a mask when it is a power of two, which two's
        complement makes right for negative x too."""
        M = self.characteristic
        return x & (M - 1) if self._lanes else x % M

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

    def translate_blocks(self, shifts):
        """(block of shifts, its `add_table`) over consecutive blocks of the
        shifts in order, each table about 2^18 entries, so memory stays
        bounded at every order however many shifts are asked for."""
        shifts = np.asarray(shifts, dtype=np.int64)
        step = max(1, _TRANSLATE_BLOCK // self.order)
        for start in range(0, shifts.size, step):
            block = shifts[start:start + step]
            yield block, self.add_table(block)

    def translates(self, shifts):
        """(v, row of x -> x + v) for each shift v in order."""
        for block, table in self.translate_blocks(shifts):
            yield from zip(block.tolist(), table)


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
    """Integers modulo N, N >= 2. `_guard_checked` skips the order guard,
    for a ring whose order a work charge has already covered."""

    def __init__(self, n: int, _guard_checked: bool = False):
        if n < 2:
            raise ParseError(f"Z/{n}: modulus must be at least 2")
        if not _guard_checked:
            _check_order(n)
        self.n = n
        self.order = n
        self.characteristic = n
        self.one = 1
        self._radices = (n,)
        self._factorization = factorize(n)
        # A product of two residues needs (n - 1)^2 to fit int64; past that,
        # object integers keep it exact (as in _PolyModRing's kernel).
        self._object_products = (n - 1) ** 2 >= 1 << 63
        super().__init__()

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def neg(self, a: int) -> int:
        return (-a) % self.n

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.n

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def from_int(self, n: int) -> int:
        return n % self.n

    def add_vec(self, a, b) -> np.ndarray:
        return self._reduce(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64))

    def neg_vec(self, a) -> np.ndarray:
        return self._reduce(-np.asarray(a, dtype=np.int64))

    def sub_vec(self, a, b) -> np.ndarray:
        return self._reduce(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))

    def mul_vec(self, a, b) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._object_products:
            return np.asarray(a.astype(object) * b.astype(object) % self.n, dtype=np.int64)
        return self._reduce(a * b)

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        return [(p, e) for p, e in self._factorization]

    def residue_fields(self) -> list[tuple[int, Ring]]:
        return [(p, ZModRing(p)) for p, _ in self._factorization]

    def spec_string(self) -> str:
        return f"Z/{self.n}"


# ---------------------------------------------------------------------------
# A coefficient ring modulo a monic polynomial: GF(p^e) = (Z/p)[u]/(h),
# GR(p,n,r) = (Z/p^n)[w]/(f) and PQ(q;g) = GF(q)[t]/(g), one kernel for all.
# ---------------------------------------------------------------------------


class _PolyModRing(Ring):
    """Polynomials of degree < m over a coefficient ring, multiplied modulo a
    monic polynomial of degree m. Each such ring is a Z/M-algebra with every
    radix M, its characteristic, and one kernel multiplies them all.

    An element is a grid of m coefficients by e digits: e = 1 over Z/M, and
    e = log_p q over GF(q), where digit j*e + a is the u^a part of the
    coefficient of t^j. A product is the integer 2-D convolution of the two
    grids, reduced mod M, then mapped through the reduction matrix L, whose
    row (b, a) holds the digits of u^a t^b, and reduced mod M again.
    """

    def __init__(self, coeff: Ring, modulus: tuple[int, ...]) -> None:
        super().__init__()
        m, e, M = len(modulus) - 1, len(coeff.additive_orders()), self.characteristic
        t_powers = [(0,) * b + (coeff.one,) for b in range(m)]
        for _ in range(m - 1):
            t_powers.append(_pdivmod((0,) + t_powers[-1], modulus, coeff)[1])
        T = np.array([t + (0,) * (m - len(t)) for t in t_powers], dtype=np.int64)
        # u^a for a < 2e - 1 are the rows of GF(q)'s own reduction matrix.
        U = coeff._L @ coeff._places if e > 1 else np.array([coeff.one])
        L = coeff._digits_of(coeff.mul_vec(T[:, None, :], U[None, :, None]))
        # Every sum the kernel forms has at most (2m-1)(2e-1) terms, each a
        # product of two digits below M; the narrowest signed type that holds
        # it keeps the kernel exact (object past int64: exact, slow).
        self._dtype = np.min_scalar_type(-1 - T.shape[0] * U.size * (M - 1) ** 2)
        self._L = L.reshape(-1, m * e).astype(self._dtype)
        self._grid = (m, e)
        # Row (b, a) of L with b < m and a < e is the unit vector of digit
        # b*e + a, so the kernel takes those rows as they are and multiplies
        # only the others.
        self._high = [(r, row[:, None]) for r, row in enumerate(self._L)
                      if r // (2 * e - 1) >= m or r % (2 * e - 1) >= e]

    def _digit_grid(self, a: np.ndarray) -> np.ndarray:
        """The digits of every entry of a, shaped (m, e) + a.shape."""
        M = self.characteristic
        # Rows of at least one entry: an object row takes their entries as
        # Python ints, where a 0-d array would be stored whole.
        out = np.empty((len(self._radices), a.size), dtype=self._dtype)
        rest = a.reshape(-1)
        for i in range(len(out) - 1):
            high = rest // M
            out[i] = rest - high * M
            rest = high
        out[-1] = rest
        return out.reshape(self._grid + a.shape)

    def mul_vec(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        (m, e), da, db = self._grid, self._digit_grid(a), self._digit_grid(b)
        conv = np.zeros((2 * m - 1, 2 * e - 1) + a.shape, dtype=self._dtype)
        term = np.empty_like(db)
        for j, c in itertools.product(range(m), range(e)):
            conv[j:j + m, c:c + e] += np.multiply(da[j, c], db, out=term)
        conv = self._reduce(conv)
        rows = conv.reshape(len(self._L), -1)
        out = conv[:m, :e].reshape(m * e, -1)
        for r, row in self._high:
            out += row * rows[r]
        return (self._places @ self._reduce(out)).astype(np.int64).reshape(a.shape)


class FiniteFieldRing(_PolyModRing):
    """GF(p^e) as Z/p[u] modulo a monic irreducible of degree e."""

    def __init__(self, q: int, h: tuple[int, ...] | None = None):
        p, e = prime_power(q)
        _check_order(q)
        if h is None:
            h = canonical_irreducible(p, e)
            self._h_is_canonical = True
        else:
            h = tuple(c % p for c in h)
            if len(h) != e + 1:
                raise ParseError(
                    f"GF({q}): defining polynomial must have degree {e}"
                )
            if h[-1] != 1:
                raise NotMonic(f"GF({q}): defining polynomial must be monic")
            if not poly_is_irreducible(h, ZModRing(p)):
                raise NotIrreducible(
                    f"GF({q}): {list(h)} is reducible over Z/{p}"
                )
            self._h_is_canonical = h == canonical_irreducible(p, e)
        self.p = p
        self.e = e
        self.q = q
        self.order = q
        self.characteristic = p
        self.one = 1
        self._radices = (p,) * e
        self.defining = h
        super().__init__(ZModRing(p), h)

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        return [(self.q, 1)]

    def residue_fields(self) -> list[tuple[int, Ring]]:
        return [(self.q, self)]

    def spec_string(self) -> str:
        if self._h_is_canonical:
            return f"GF({self.q})"
        return f"GF({self.q};h={','.join(str(c) for c in self.defining)})"

    def element_str(self, x: int) -> str:
        return _poly_str(self.digits(x), "u")


class GaloisRingRing(_PolyModRing):
    """Galois ring Z[w]/(p^n, f(w)) with f monic of degree r, irreducible
    mod p. Order p^(n r), characteristic p^n, residue field GF(p^r)."""

    def __init__(
        self,
        p: int,
        n: int,
        r: int,
        f: tuple[int, ...] | None = None,
    ):
        if not is_prime(p):
            raise ParseError(f"GR({p},{n},{r}): {p} is not prime")
        if n < 1 or r < 1:
            raise ParseError(f"GR({p},{n},{r}): n and r must be positive")
        order = p ** (n * r)
        _check_order(order)
        pn = p**n
        if f is None:
            f = tuple(c % pn for c in canonical_irreducible(p, r))
            self._f_is_canonical = True
        else:
            f = tuple(c % pn for c in f)
            if len(f) != r + 1:
                raise ParseError(f"GR({p},{n},{r}): f must have degree {r}")
            if f[-1] != 1:
                raise NotMonic(f"GR({p},{n},{r}): f must be monic")
            f_mod_p = tuple(c % p for c in f[:-1]) + (1,)
            if not poly_is_irreducible(f_mod_p, ZModRing(p)):
                raise NotIrreducible(
                    f"GR({p},{n},{r}): f reduces mod {p}"
                )
            canon = tuple(c % pn for c in canonical_irreducible(p, r))
            self._f_is_canonical = f == canon
        self.p = p
        self.n_exp = n
        self.r = r
        self.order = order
        self.characteristic = pn
        self.one = 1
        self._radices = (pn,) * r
        self.defining = f
        super().__init__(ZModRing(pn), f)

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        return [(self.p**self.r, self.n_exp)]

    def residue_fields(self) -> list[tuple[int, Ring]]:
        q = self.p**self.r
        field: Ring
        if self.r == 1:
            field = ZModRing(self.p)
        else:
            field = FiniteFieldRing(q)
        return [(q, field)]

    def spec_string(self) -> str:
        base = f"GR({self.p},{self.n_exp},{self.r})"
        if self._f_is_canonical:
            return base
        return base[:-1] + f";f={','.join(str(c) for c in self.defining)})"

    def element_str(self, x: int) -> str:
        return _poly_str(self.digits(x), "w")


# ---------------------------------------------------------------------------
# F_q[t] / (g), g monic but not necessarily irreducible
# ---------------------------------------------------------------------------


class PolyQuotientRing(_PolyModRing):
    """Quotient of a polynomial ring over Z/p or GF(q) by a monic modulus g.

    Elements are polynomials in t of degree < deg g with coefficients in the
    base field, encoded base q: coefficient j occupies digit-place q^j.
    `_guard_checked` skips the order guard, as in ZModRing.
    """

    def __init__(self, base: Ring, g: tuple[int, ...], _guard_checked: bool = False):
        g = tuple(int(c) for c in g)
        if len(g) < 2:
            raise ParseError("PQ: modulus must have degree at least 1")
        if any(not 0 <= c < base.order for c in g):
            raise ParseError("PQ: modulus coefficients must be base field indices")
        if g[-1] != base.one:
            raise NotMonic("PQ: modulus must be monic")
        # The kernel reads the base's digits as powers of one generator u.
        if not isinstance(base, (ZModRing, FiniteFieldRing)) or not base.is_field:
            raise ParseError("PQ: coefficient ring must be Z/p or GF(q)")
        m = len(g) - 1
        order = base.order**m
        if not _guard_checked:
            _check_order(order)
        self.base = base
        self.g = g
        self.m = m
        self.q = base.order
        self.order = order
        self.characteristic = base.characteristic
        self.one = 1
        self._radices = base.additive_orders() * m
        super().__init__(base, g)

    def coeffs(self, x: int) -> list[int]:
        out = []
        for _ in range(self.m):
            x, d = divmod(x, self.q)
            out.append(d)
        return out

    def from_coeffs(self, cs: Sequence[int]) -> int:
        x = 0
        for c in reversed(list(cs)):
            x = x * self.q + c
        return x

    def modulus_factors(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return self.memo("modulus_factors", lambda: tuple(factor_poly(self.g, self.base)))

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        profile = [
            (self.q ** (len(f) - 1), mult) for f, mult in self.modulus_factors()
        ]
        profile.sort()
        return profile

    def residue_fields(self) -> list[tuple[int, Ring]]:
        out: list[tuple[int, Ring]] = []
        for f, _ in self.modulus_factors():
            deg = len(f) - 1
            if deg == 1:
                out.append((self.q, self.base))
            else:
                out.append((self.q**deg, PolyQuotientRing(self.base, f)))
        out.sort(key=lambda sr: sr[0])
        return out

    def spec_string(self) -> str:
        return f"PQ(q={self.q};g={','.join(str(c) for c in self.g)})"

    def element_str(self, x: int) -> str:
        if self.q == self.characteristic:
            return _poly_str(self.coeffs(x), "t")
        parts = [f"({self.base.element_str(c)})" for c in self.coeffs(x)]
        return _poly_str_generic(parts, self.coeffs(x), "t")


# ---------------------------------------------------------------------------
# Finite products
# ---------------------------------------------------------------------------


class ProductRing(Ring):
    """Direct product of rings; the first factor is least significant in the
    element index."""

    def __init__(self, factors: Sequence[Ring]):
        if not factors:
            raise ParseError("prod: at least one factor required")
        order = 1
        for f in factors:
            order *= f.order
        _check_order(order)
        self.factors = tuple(factors)
        self.order = order
        self.characteristic = math.lcm(*(f.characteristic for f in factors))
        self._radices = tuple(
            m for f in factors for m in f.additive_orders()
        )
        self.one = self.join([f.one for f in factors])
        super().__init__()

    def split(self, x: int) -> list[int]:
        out = []
        for f in self.factors:
            x, c = divmod(x, f.order)
            out.append(c)
        return out

    def join(self, comps: Sequence[int]) -> int:
        x = 0
        for f, c in zip(reversed(self.factors), reversed(list(comps))):
            x = x * f.order + c
        return x

    def mul_vec(self, a, b) -> np.ndarray:
        """Factor by factor; each factor's kernel broadcasts a against b."""
        rest_a, rest_b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        result, place = 0, 1
        for f in self.factors:
            rest_a, ca = np.divmod(rest_a, f.order)
            rest_b, cb = np.divmod(rest_b, f.order)
            result = result + place * f.mul_vec(ca, cb)
            place *= f.order
        return result

    def prime_ideal_profile(self) -> list[tuple[int, int]]:
        profile = [
            entry for f in self.factors for entry in f.prime_ideal_profile()
        ]
        profile.sort()
        return profile

    def residue_fields(self) -> list[tuple[int, Ring]]:
        out = [pair for f in self.factors for pair in f.residue_fields()]
        out.sort(key=lambda sr: sr[0])
        return out

    def spec_string(self) -> str:
        return f"prod({';'.join(f.spec_string() for f in self.factors)})"

    def element_str(self, x: int) -> str:
        parts = [
            f.element_str(c) for f, c in zip(self.factors, self.split(x))
        ]
        return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Formatting and parsing
# ---------------------------------------------------------------------------


def _poly_str(coeffs: Sequence[int], var: str) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{var}" if j == 1 else f"{head}{var}^{j}")
    return " + ".join(terms) if terms else "0"


def _poly_str_generic(parts: Sequence[str], coeffs: Sequence[int], var: str) -> str:
    terms = []
    for j, (part, c) in enumerate(zip(parts, coeffs)):
        if c == 0:
            continue
        if j == 0:
            terms.append(part)
        else:
            terms.append(f"{part}{var}" if j == 1 else f"{part}{var}^{j}")
    return " + ".join(terms) if terms else "0"


def _check_order(order: int) -> None:
    limit = order_guard()
    if order > limit:
        raise OrderTooLarge(
            f"ring order {order} exceeds the enumeration guard {limit}"
        )


def _split_top_level(body: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
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


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    items = [t.strip() for t in text.split(",")]
    if not items or any(not re.fullmatch(r"-?\d+", t) for t in items):
        raise ParseError(f"{what}: expected a comma-separated integer list, got {text!r}")
    return tuple(int(t) for t in items)


def make_ring(spec: str) -> Ring:
    """Parse a ring spec string and construct the ring.

    Raises ParseError for malformed specs, NotMonic / NotIrreducible for bad
    defining polynomials, and OrderTooLarge when the order exceeds the guard
    (default 2^20, set by RINGLAB_ORDER_GUARD).
    """
    spec = spec.strip()
    m = re.fullmatch(r"Z/(\d+)", spec)
    if m:
        return ZModRing(int(m.group(1)))

    m = re.fullmatch(r"GF\((\d+)\)", spec)
    if m:
        return FiniteFieldRing(int(m.group(1)))

    m = re.fullmatch(r"GF\((\d+);h=([^)]+)\)", spec)
    if m:
        return FiniteFieldRing(int(m.group(1)), h=_parse_int_list(m.group(2), "GF h"))

    m = re.fullmatch(r"PQ\(q=(\d+);g=([^)]+)\)", spec)
    if m:
        q = int(m.group(1))
        g = _parse_int_list(m.group(2), "PQ g")
        return PolyQuotientRing(FiniteFieldRing(q), g)

    m = re.fullmatch(r"GR\((\d+),(\d+),(\d+)\)", spec)
    if m:
        return GaloisRingRing(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    m = re.fullmatch(r"GR\((\d+),(\d+),(\d+);f=([^)]+)\)", spec)
    if m:
        return GaloisRingRing(
            int(m.group(1)),
            int(m.group(2)),
            int(m.group(3)),
            f=_parse_int_list(m.group(4), "GR f"),
        )

    if spec.startswith("prod(") and spec.endswith(")"):
        body = spec[len("prod(") : -1]
        parts = _split_top_level(body, ";")
        if any(not p.strip() for p in parts):
            raise ParseError(f"prod: empty factor in {spec!r}")
        return ProductRing([make_ring(p) for p in parts])

    raise ParseError(f"unrecognised ring spec {spec!r}")
