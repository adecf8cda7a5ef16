"""The Hensel climb behind the intersectivity oracle, over Z and F_p[t].

A polynomial P has a root mod pi^j for every j once a root r mod pi^j has
P(r) = 0 or j >= 2 v(P'(r)) + 1; other roots are extended one level at a
time. The climb runs at every prime pi with N(pi) <= B up to
N(pi^j) <= B^2 and is batched by level: the lifts r + pi^j t of every
surviving root of every prime in one batch are evaluated as one array, in
blocks of a fixed entry count, by Horner on integers mod pi^(j+1), or over
F_p[t] on coefficient rows, then divided by each row's g^(j+1). Over Z one
batch holds every prime; over F_p[t] one batch holds the irreducibles of
one degree e, so every row of a level is (j + 1) e wide and unpadded.
Level 1 lifts the root 0 mod 1, so it evaluates P on all residues of a
batch at once. The settle tests of a level's roots run on the same
arrays, over F_p[t] by Horner on rows and division by g^ceil(j/2), over Z
on Python ints. The primes of F_p[t] come from a sieve that strikes every
product of a lower-degree irreducible with a monic cofactor.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .budget import blocks
from .rings import _ptrim, digits_of


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _digit_grid(p: int, e: int) -> np.ndarray:
    """The p^e coefficient rows of length e in itertools.product order."""
    return digits_of(np.arange(p**e), (p,) * e)[:, ::-1]


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
        prod[:, :len(c)] += c
        acc = prod % p
    return acc


def _rows_divisible(a: np.ndarray, top: np.ndarray, p: int) -> np.ndarray:
    """Whether each row of a (m, L) is divisible over F_p by the monic
    polynomial in the same row of top (m, D + 1), its leading 1 in column
    D. Long division from the top coefficient down to column D, on
    transposed copies, so that each step reads and writes whole columns."""
    D = top.shape[1] - 1
    a, low = a.T.copy(), top[:, :D].T.copy()
    for i in range(len(a) - 1, D - 1, -1):
        a[i - D:i] -= a[i] % p * low
    return ~(a[:D] % p).any(axis=0)


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
            for block in blocks(len(a) * len(b), e + 1):
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
        self.deriv = [i * c for i, c in enumerate(P)][1:]
        self.pi = self.norm = primes
        self.dtype = np.min_scalar_type(-1 - (B * B) ** 2)

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

    def settles(self, j: int, o: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Whether each root r mod pi^j of primes o settles, on Python ints:
        P(r) = 0, or pi^ceil(j/2) does not divide P'(r)."""
        half = (j + 1) // 2
        return np.array([not _horner(self.P, x) or _horner(self.deriv, x) % self.pi[i] ** half != 0
                         for i, x in zip(o.tolist(), r.tolist())], dtype=bool)


class _FptLevels:
    """The climb's arrays over F_p[t] at the monic irreducibles g of one
    degree e, given as rows of low coefficients. A residue mod g^j is a row
    of j e coefficients, and the residues of g are the rows of
    `_digit_grid(p, e)`. P(x) is evaluated exactly, by Horner on rows, then
    divided by g^(j+1), which is (j + 1) e + 1 wide in every row. Level 1's
    candidates are the residues of g alone, so P is evaluated once on them."""

    def __init__(self, P: list[tuple[int, ...]], p: int, gs: np.ndarray, B: int):
        # Entries stay below (D + 1) (p-1)^2 + p, where D = deg g^j is at
        # most 2 log_p B < 2 bit_length(B); the narrowest signed type holds them.
        dtype = np.min_scalar_type(-1 - (2 * B.bit_length() * (p - 1) ** 2 + p))
        self.p = p
        self.coeffs = [np.array(c, dtype=dtype) for c in P]
        # P' with its zero top coefficients dropped; empty when P' = 0.
        self.deriv = [np.array(_ptrim([i * x % p for x in c]), dtype=dtype) for i, c in enumerate(P)][1:]
        while self.deriv and not len(self.deriv[-1]):
            self.deriv.pop()
        monic = _monic(gs.astype(dtype))
        self.pi = list(map(tuple, monic.tolist()))
        self.norm = [p ** gs.shape[1]] * len(gs)
        self.residues = _digit_grid(p, gs.shape[1]).astype(dtype)
        self.powers = [np.ones((len(gs), 1), dtype=dtype), monic]

    def start(self) -> np.ndarray:
        return self.powers[0][:, :0]

    def _power(self, k: int) -> np.ndarray:
        """g^k of every prime, its leading 1 in column k e."""
        while len(self.powers) <= k:
            self.powers.append(_rows_mul(self.powers[-1], self.powers[1]) % self.p)
        return self.powers[k]

    def level(self, j: int, live: np.ndarray) -> int:
        self.step, self.top = self._power(j), self._power(j + 1)
        self.first = _rows_horner(self.coeffs, self.residues, self.p) if j == 0 else None
        D = self.top.shape[1] - 1
        return (len(self.coeffs) - 1) * (D - 1) + max(map(len, self.coeffs)) + D

    def lift(self, o: np.ndarray, r: np.ndarray, t: np.ndarray):
        if self.first is not None:
            x, values = self.residues[t], self.first[t]
        else:
            x = _rows_mul(self.residues[t], self.step[o])
            x[:, :r.shape[1]] += r
            x %= self.p
            values = _rows_horner(self.coeffs, x, self.p)
        return x, _rows_divisible(values, self.top[o], self.p)

    def settles(self, j: int, o: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Whether each root r mod g^j of primes o settles, on rows: P(r) = 0,
        or g^ceil(j/2) does not divide P'(r)."""
        exact = ~_rows_horner(self.coeffs, r, self.p).any(axis=1)
        if not self.deriv:
            return exact
        values = _rows_horner(self.deriv, r, self.p)
        return exact | ~_rows_divisible(values, self._power((j + 1) // 2)[o], self.p)


def _climb(levels, tops: list[int]) -> list[tuple[str, int]]:
    """The Hensel climb at every prime of levels, one batch a level:
    ('resolved', j), ('witness', j) or ('capped', j) per prime, with j the
    last level examined in full. Level j + 1 lifts each root r mod pi^j to
    the candidates r + pi^j t, t over the residues mod pi, in (r, t) order,
    and keeps those with P = 0 mod pi^(j+1); level 1 lifts the root 0 mod
    1. A root r mod pi^j settles every level when P(r) = 0 or
    j >= 2 v(P'(r)) + 1, that is when pi^ceil(j/2) does not divide P'(r).

    levels holds the primes pi and their norms N(pi), the number of
    residues mod pi, and their arithmetic: start() gives the root 0 of
    every prime, level(j, live) sets up the lift from pi^j for the live
    primes and returns the entries a candidate takes, lift(o, r, t) gives
    the candidates of roots r of primes o with whether each is a root, and
    settles(j, o, r) whether each root r mod pi^j of primes o settles, both
    in blocks of that many entries a row."""
    out: list = [None] * len(tops)
    norm = np.array(levels.norm, dtype=np.int64)
    live = owner = np.arange(len(tops))
    roots = levels.start()
    j = 0
    while live.size:
        width = levels.level(j, live)
        R = int(norm[live].max())
        found = []
        for block in blocks(len(owner) * R, width):
            src, t = np.divmod(np.arange(block.start, block.stop), R)
            o = owner[src]
            inside = t < norm[o]
            src, t, o = src[inside], t[inside], o[inside]
            x, zero = levels.lift(o, roots[src], t)
            found.append((o[zero], x[zero]))
        owner, roots = (np.concatenate(part) for part in zip(*found))
        j += 1
        settles = np.zeros(len(owner), dtype=bool)
        for block in blocks(len(owner), width):
            settles[block] = levels.settles(j, owner[block], roots[block])
        counts = np.bincount(owner, minlength=len(tops)).tolist()
        settled = np.bincount(owner[settles], minlength=len(tops)).tolist()
        going = np.zeros(len(tops), dtype=bool)
        for i in live.tolist():
            if not counts[i]:
                out[i] = ("witness", j)
            elif settled[i]:
                out[i] = ("resolved", j)
            elif j == tops[i]:
                out[i] = ("capped", j)
            else:
                going[i] = True
        if not going.any():
            break
        kept = going[owner]
        live, owner, roots = np.flatnonzero(going), owner[kept], roots[kept]
    return out


def _sweep(batches, B: int):
    """The climb at every prime of each batch of levels (all with
    N(pi) <= B) through every level with N(pi^j) <= B^2, one batch after
    another. Returns the least witness (N(pi^j), pi, j) or None, the number
    of resolved primes, and the capped ones as (pi, j, N(pi^j)) in batch
    order."""
    witnesses, capped, resolved = [], [], 0
    for levels in batches:
        tops = [next(j for j in itertools.count(1) if norm ** (j + 1) > B * B) for norm in levels.norm]
        for pi, norm, (outcome, j) in zip(levels.pi, levels.norm, _climb(levels, tops)):
            if outcome == "witness":
                witnesses.append((norm**j, pi, j))
            elif outcome == "resolved":
                resolved += 1
            else:
                capped.append((pi, j, norm**j))
    return min(witnesses, default=None), resolved, capped
