"""The Hensel climb behind the intersectivity oracle, over Z and F_p[t].

A polynomial P has a root mod pi^j for every j once a root r mod pi^j has
P(r) = 0 or j >= 2 v(P'(r)) + 1; other roots are extended one level at a
time. The climb runs at every prime pi with N(pi) <= B up to
N(pi^j) <= B^2 and is batched by level: the lifts r + pi^j t of every
surviving root of every prime are evaluated as one array, in blocks of a
fixed entry count, by Horner on integers mod pi^(j+1), or over F_p[t] on
coefficient rows, then divided by each row's g^(j+1). Level 1 lifts the
root 0 mod 1, so it evaluates P on all residues of all primes at once.
Only the few settle tests on surviving roots run on scalars. The primes
of F_p[t] come from a sieve that strikes every product of a lower-degree
irreducible with a monic cofactor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rings import Ring, _pdivmod, _pmul, _ptrim


@dataclass(order=True, slots=True)
class _FpPoly:
    """An element of F_p[t], with the + * % // truth value and order that
    the settle tests also use on Python ints. c holds the ascending
    coefficients mod p, already trimmed; an int operand stands for the
    constant it reduces to."""

    c: tuple[int, ...]
    F: Ring

    @classmethod
    def encode(cls, c, F: Ring) -> "_FpPoly":
        """Integers by base-p digits, a negative one negated; sequences as
        coefficient lists mod p."""
        if isinstance(c, (list, tuple)):
            return cls(_ptrim([int(x) % F.order for x in c]), F)
        digits, rest = [], abs(int(c))
        while rest:
            rest, d = divmod(rest, F.order)
            digits.append(d)
        return cls(tuple(digits), F) * (1 if int(c) >= 0 else -1)

    def _coeffs(self, other) -> tuple[int, ...]:
        return other.c if isinstance(other, _FpPoly) else _ptrim((other % self.F.order,))

    def __add__(self, other) -> "_FpPoly":
        a, b = self.c, self._coeffs(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] = (out[i] + y) % self.F.order
        return _FpPoly(_ptrim(out), self.F)

    def __mul__(self, other) -> "_FpPoly":
        return _FpPoly(_pmul(self.c, self._coeffs(other), self.F), self.F)

    __rmul__ = __mul__

    def __floordiv__(self, other: "_FpPoly") -> "_FpPoly":
        return _FpPoly(_pdivmod(self.c, other.c, self.F)[0], self.F)

    def __mod__(self, other: "_FpPoly") -> "_FpPoly":
        return _FpPoly(_pdivmod(self.c, other.c, self.F)[1], self.F)

    def __bool__(self) -> bool:
        return bool(self.c)


def _horner(coeffs: Sequence, x):
    rest = reversed(coeffs)
    acc = next(rest)
    for c in rest:
        acc = acc * x + c
    return acc


def _valuation(value, pi) -> float:
    """The exponent of pi in value; infinite for zero."""
    if not value:
        return math.inf
    v = 0
    while not value % pi:
        value, v = value // pi, v + 1
    return v


# Entries in one block of the climb's arrays: a level's candidates, their
# products and the sieve's products are built this many at a time, so memory
# stays bounded however many candidates a level holds.
_CLIMB_BLOCK = 1 << 18


def _blocks(count: int, width: int):
    """Consecutive slices of range(count), each covering at least one row
    and at most _CLIMB_BLOCK entries at width entries a row."""
    step = max(1, _CLIMB_BLOCK // width)
    return (slice(s, min(s + step, count)) for s in range(0, count, step))


def _narrowest_int(bound: int):
    """The narrowest numpy integer type that holds every value of absolute
    value up to bound, or object integers past int64."""
    for bits, dtype in ((7, np.int8), (15, np.int16), (31, np.int32), (63, np.int64)):
        if bound < 1 << bits:
            return dtype
    return object


def _digit_grid(p: int, e: int) -> np.ndarray:
    """The p^e coefficient rows of length e in itertools.product order."""
    return np.arange(p**e)[:, None] // p ** np.arange(e - 1, -1, -1) % p


def _rows_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products, not reduced, of ascending coefficient rows a
    (m, la) and b (m, lb), by a loop over the columns of the narrower."""
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=a.dtype)
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i, None] * b
    return out


def _rows_horner(coeffs: list[np.ndarray], x: np.ndarray, p: int) -> np.ndarray:
    """P(x) over F_p[t] for each row x, not reduced by any modulus, with P
    given by its coefficient rows, the leading one nonzero."""
    acc = np.broadcast_to(coeffs[-1], (len(x), len(coeffs[-1])))
    for c in reversed(coeffs[:-1]):
        prod = _rows_mul(acc, x)
        if prod.shape[1] < len(c):
            prod = np.hstack([prod, np.zeros((len(x), len(c) - prod.shape[1]), dtype=prod.dtype)])
        if len(c):
            prod[:, :len(c)] += c
        acc = prod % p
    return acc


def _rows_divisible(a: np.ndarray, top: np.ndarray, degree: np.ndarray, p: int) -> np.ndarray:
    """Whether each row of a (m, L) is divisible over F_p by the monic
    polynomial of degree degree[i] in row i of top (m, D + 1), stored with
    its leading 1 in column D. Long division from the top coefficient down,
    each row stopping at its own degree."""
    D = top.shape[1] - 1
    out = np.zeros((len(a), D + a.shape[1]), dtype=top.dtype)
    out[:, D:] = a
    for i in range(a.shape[1] - 1, int(degree.min(initial=a.shape[1])) - 1, -1):
        c = out[:, D + i] % p * (degree <= i)
        out[:, i:D + i + 1] -= c[:, None] * top
    return ~(out % p).any(axis=1)


def _padded(blocks: list[np.ndarray], width: int) -> np.ndarray:
    """The rows of blocks stacked, each padded with zeros to width."""
    out = np.zeros((sum(map(len, blocks)), width), dtype=blocks[0].dtype)
    row = 0
    for b in blocks:
        out[row:row + len(b), :b.shape[1]] = b
        row += len(b)
    return out


def _monic(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows, np.ones((len(rows), 1), dtype=rows.dtype)])


def _primes_upto(n: int) -> list[int]:
    """The primes up to n, by the sieve of Eratosthenes."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if prime[q]:
            prime[q * q::q] = False
    return np.flatnonzero(prime).tolist()


def _irreducibles(p: int, top: int) -> list[np.ndarray]:
    """The monic irreducibles over F_p of degrees 1 to top, one (k_e, e)
    array of low coefficients per degree, in `_monic_polys` order. A sieve:
    degree e keeps the rows that no product of an irreducible of degree
    d <= e/2 and a monic cofactor of degree e - d reaches."""
    grids = [_digit_grid(p, e) for e in range(top + 1)]
    found: list[np.ndarray] = []
    for e in range(1, top + 1):
        place = p ** np.arange(e - 1, -1, -1)
        reducible = np.zeros(p**e, dtype=bool)
        for d in range(1, e // 2 + 1):
            a, b = _monic(found[d - 1]), _monic(grids[e - d])
            for block in _blocks(len(a) * len(b), e + 1):
                ia, ib = np.divmod(np.arange(block.start, block.stop), len(b))
                reducible[_rows_mul(a[ia], b[ib])[:, :e] % p @ place] = True
        found.append(grids[e][~reducible])
    return found


class _IntegerLevels:
    """The climb's arrays over Z. A residue mod pi^j is an integer below
    pi^j, and the residues of pi are range(pi). Every modulus is at most
    B^2 and Horner multiplies two residues, so entries stay below B^4."""

    def __init__(self, P: list[int], primes: list[int], B: int):
        self.P = P
        self.pi = self.norm = primes
        self.dtype = _narrowest_int((B * B) ** 2)

    def start(self) -> np.ndarray:
        return np.zeros(len(self.pi), dtype=self.dtype)

    def level(self, j: int, live: np.ndarray) -> int:
        """Tables for the lift from pi^j to pi^(j+1) at the live primes;
        returns the entries a candidate takes."""
        k = len(self.pi)
        pis = [self.pi[i] for i in live.tolist()]
        mods = [q ** (j + 1) for q in pis]
        self.step = np.ones(k, dtype=self.dtype)
        self.step[live] = [q**j for q in pis]
        self.mod = np.ones(k, dtype=self.dtype)
        self.mod[live] = mods
        self.coeffs = np.zeros((k, len(self.P)), dtype=self.dtype)
        self.coeffs[live] = [[c % M for c in self.P] for M in mods]
        return len(self.P)

    def lift(self, o: np.ndarray, r: np.ndarray, t: np.ndarray):
        """The candidates x = r + pi^j t of primes o, and whether P(x) = 0
        mod pi^(j+1)."""
        x = r + self.step[o] * t
        mod, coeffs = self.mod[o], self.coeffs[o]
        acc = coeffs[:, -1]
        for i in range(len(self.P) - 2, -1, -1):
            acc = (acc * x + coeffs[:, i]) % mod
        return x, acc == 0

    def element(self, x) -> int:
        return int(x)


class _FptLevels:
    """The climb's arrays over F_p[t] at the monic irreducibles g of degree 1
    to E, given per degree as rows of low coefficients. A residue mod g^j is
    a row of coefficients, padded with zeros to the widest live prime, and
    the residues of g are the rows of `_digit_grid(p, deg g)`. P(x) is
    evaluated exactly, by Horner on rows, then divided by g^(j+1), each row
    by its own modulus. Level 1's candidates depend on deg g alone, so P is
    evaluated once on the residues of every degree."""

    def __init__(self, P: list[_FpPoly], F: Ring, gs: list[np.ndarray], B: int):
        p, E = F.order, len(gs)
        # Entries stay below (D + 1) (p-1)^2 + p, where D = deg g^j is at
        # most 2 log_p B < 2 bit_length(B).
        dtype = _narrowest_int(2 * B.bit_length() * (p - 1) ** 2 + p)
        self.F, self.p = F, p
        self.coeffs = [np.array(c.c, dtype=dtype) for c in P]
        self.degree = np.repeat(np.arange(1, E + 1), [len(g) for g in gs])
        self.norm = (p**self.degree).tolist()
        grids = [_digit_grid(p, e) for e in range(1, E + 1)]
        self.residues = _padded(grids, E).astype(dtype)
        self.first_residue = np.cumsum([0] + [len(grid) for grid in grids])[self.degree - 1]
        monic = np.zeros((len(self.degree), E + 1), dtype=dtype)
        monic[:, :E] = _padded(gs, E)
        monic[np.arange(len(monic)), self.degree] = 1
        self.pi = [_FpPoly(_ptrim(g), F) for g in monic.tolist()]
        self.powers = [np.ones((len(monic), 1), dtype=dtype), monic]

    def start(self) -> np.ndarray:
        return self.powers[0][:, :0]

    def level(self, j: int, live: np.ndarray) -> int:
        # Columns past (j + 1) times the widest live degree are zero in
        # every live row; rows of primes no longer live are not read.
        self.width = int(self.degree[live].max())
        while len(self.powers) <= j + 1:
            self.powers.append(_rows_mul(self.powers[-1], self.powers[1]) % self.p)
        self.step = self.powers[j][:, :j * self.width + 1]
        D = (j + 1) * self.width
        self.mod_degree = (j + 1) * self.degree
        # Each live g^(j+1), shifted so that its leading 1 is in column D.
        self.top = np.zeros((len(self.degree), D + 1), dtype=self.step.dtype)
        for e in range(1, self.width + 1):
            rows = self.degree == e
            self.top[rows, D - (j + 1) * e:] = self.powers[j + 1][rows, :(j + 1) * e + 1]
        self.first = _rows_horner(self.coeffs, self.residues, self.p) if j == 0 else None
        values_width = (len(self.coeffs) - 1) * (D - 1) + max(map(len, self.coeffs))
        return values_width + D

    def lift(self, o: np.ndarray, r: np.ndarray, t: np.ndarray):
        index = self.first_residue[o] + t
        if self.first is not None:
            x, values = self.residues[index, :self.width], self.first[index]
        else:
            x = _rows_mul(self.residues[index, :self.width], self.step[o])
            w = min(r.shape[1], x.shape[1])
            x[:, :w] += r[:, :w]
            x %= self.p
            values = _rows_horner(self.coeffs, x, self.p)
        return x, _rows_divisible(values, self.top[o], self.mod_degree[o], self.p)

    def element(self, x: list) -> _FpPoly:
        return _FpPoly(_ptrim(x), self.F)


def _climb(levels, P: list, tops: list[int]) -> list[tuple[str, int]]:
    """The Hensel climb at every prime of levels, one batch a level:
    ('resolved', j), ('witness', j) or ('capped', j) per prime, with j the
    last level examined in full. Level j + 1 lifts each root r mod pi^j to
    the candidates r + pi^j t, t over the residues mod pi, in (r, t) order,
    and keeps those with P = 0 mod pi^(j+1); level 1 lifts the root 0 mod
    1. A root r mod pi^j settles every level when P(r) = 0 or
    j >= 2 v(P'(r)) + 1, tested on scalars.

    levels holds the primes pi and their norms N(pi), the number of
    residues mod pi, and their arithmetic: start() gives the root 0 of
    every prime, level(j, live) sets up the lift from pi^j for the live
    primes and returns the entries a candidate takes, lift(o, r, t) gives
    the candidates of roots r of primes o with whether each is a root, and
    element(x) turns a root into the scalar the settle test takes."""
    deriv = [i * c for i, c in enumerate(P)][1:]
    out: list = [None] * len(tops)
    norm = np.array(levels.norm, dtype=np.int64)
    live = owner = np.arange(len(tops))
    roots = levels.start()
    j = 0
    while live.size:
        width = levels.level(j, live)
        R = int(norm[live].max())
        found = []
        for block in _blocks(len(owner) * R, width):
            src, t = np.divmod(np.arange(block.start, block.stop), R)
            o = owner[src]
            inside = t < norm[o]
            src, t, o = src[inside], t[inside], o[inside]
            x, zero = levels.lift(o, roots[src], t)
            found.append((o[zero], x[zero]))
        owner, roots = (np.concatenate(part) for part in zip(*found))
        j += 1
        going = []
        counts = np.bincount(owner, minlength=len(tops)).tolist()
        found_roots, start = roots.tolist(), 0
        for i in live.tolist():
            # owner is sorted, so the roots of prime i come next.
            mine, start = found_roots[start:start + counts[i]], start + counts[i]
            pi = levels.pi[i]
            if not mine:
                out[i] = ("witness", j)
            elif any(not _horner(P, r) or j >= 2 * _valuation(_horner(deriv, r), pi) + 1
                     for r in map(levels.element, mine)):
                out[i] = ("resolved", j)
            elif j == tops[i]:
                out[i] = ("capped", j)
            else:
                going.append(i)
        if not going:
            break
        kept = np.zeros(len(tops), dtype=bool)
        kept[going] = True
        kept = kept[owner]
        live, owner, roots = np.array(going), owner[kept], roots[kept]
    return out


def _sweep(P: list, levels, B: int):
    """The climb at every prime of levels (all with N(pi) <= B) through
    every level with N(pi^j) <= B^2. Returns the least witness
    (N(pi^j), pi, j) or None, the number of resolved primes, and the capped
    ones as (pi, j, N(pi^j))."""
    witnesses, capped, resolved = [], [], 0
    tops = [next(j for j in itertools.count(1) if norm ** (j + 1) > B * B) for norm in levels.norm]
    for pi, norm, (outcome, j) in zip(levels.pi, levels.norm, _climb(levels, P, tops)):
        if outcome == "witness":
            witnesses.append((norm**j, pi, j))
        elif outcome == "resolved":
            resolved += 1
        else:
            capped.append((pi, j, norm**j))
    return min(witnesses, default=None), resolved, capped
