"""Polynomials over a finite ring and their difference structure.

The central quantity is the derivational degree of P: the least k such that
every (k+1)-fold iterated difference

    d_{n_1, ..., n_{k+1}} P(x)

vanishes at every point of the ring. It is computed exactly by taking
differences along an additive basis (below), or bounded cheaply from the
exponents of P:

  * characteristic a prime p: the maximum base-p digit sum of the exponents
    is an upper bound, and is the exact formal answer for a single monomial;
  * any characteristic whose prime factors all exceed deg P: the bound
    deg P is attained exactly (the leading iterated difference is
    (deg P)! times the leading coefficient times a product of directions,
    and (deg P)! is a unit);
  * squarefree composite characteristic: the ring splits into prime
    characteristic factors, so the max over prime divisors of the digit-sum
    bound applies;
  * otherwise only the trivial bound deg P is sound. In particular the
    per-prime digit sum is not a bound once the characteristic has a square
    factor: x^4 over Z/4 has derivational degree 2, but the base-2 digit sum
    of 4 is 1.

Exact verification searches along the cyclic generators g_1..g_r of (R, +)
(r <= log2 |R|). Difference operators commute and d_{a+b} = d_a + d_b +
d_a d_b, so every (k+1)-fold difference is a sum of products of at least
k+1 generator differences; checking each multiset of k+1 generators once
suffices. Confirming degree k evaluates at most C(k+r, r) value tables of
length |R|, and the guard refuses once that work exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .budget import charge, work_guard
from .errors import ParseError, WorkGuardExceeded
from .rings import Ring, _ptrim, factorize, is_prime

@dataclass(frozen=True)
class RingPoly:
    """A univariate polynomial with coefficients given by element indices,
    ascending degree, trailing zeros trimmed (the zero polynomial has no
    coefficients at all)."""

    ring: Ring
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ring: Ring, coeffs: Sequence[int]) -> "RingPoly":
        return RingPoly(ring, _ptrim([int(c) % ring.order for c in coeffs]))

    @staticmethod
    def from_int_coeffs(ring: Ring, ints: Sequence[int]) -> "RingPoly":
        return RingPoly.make(ring, [ring.from_int(c) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.ring.add(self.ring.mul(acc, x), c)
        return acc

    def values(self) -> np.ndarray:
        """P(x) for every x, in element order."""
        xs = np.arange(self.ring.order, dtype=np.int64)
        return self.ring.eval_poly_vec(self.coeffs, xs)

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def monomials(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs with nonzero coefficient."""
        return [(j, c) for j, c in enumerate(self.coeffs) if c != 0]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j, c in self.monomials():
            s = self.ring.element_str(c)
            if j == 0:
                parts.append(s)
            else:
                head = "" if c == self.ring.one else f"({s})"
                parts.append(f"{head}x" if j == 1 else f"{head}x^{j}")
        return " + ".join(parts)


def parse_poly_literal(ring: Ring, text: str) -> RingPoly:
    """Parse 'c0,c1,...,cd'. Plain integers map through the canonical image
    of Z in the ring; a '#' prefix gives a raw element index instead."""
    items = [t.strip() for t in text.split(",")]
    coeffs = []
    for item in items:
        if item.startswith("#"):
            body = item[1:]
            if not body.isdigit():
                raise ParseError(f"bad raw element index {item!r}")
            idx = int(body)
            if not 0 <= idx < ring.order:
                raise ParseError(
                    f"raw index {idx} out of range for order {ring.order}"
                )
            coeffs.append(idx)
        else:
            try:
                coeffs.append(ring.from_int(int(item)))
            except ValueError:
                raise ParseError(f"bad polynomial coefficient {item!r}") from None
    return RingPoly(ring, _ptrim(coeffs))


def digit_sum(n: int, p: int) -> int:
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def b_constant(d: int, c) -> int:
    """B(d, c) = c^(2 floor(log_c d)) when c is a prime, and 1 otherwise
    (composite characteristic or the infinite sentinel)."""
    if d < 1:
        raise ValueError("b_constant needs d >= 1")
    if not (isinstance(c, int) and is_prime(c)):
        return 1
    k = 0
    power = c
    while power <= d:
        k += 1
        power *= c
    return c ** (2 * k)


@dataclass(frozen=True)
class DdegResult:
    """Outcome of a derivational degree computation.

    `method` is one of "exact" (full functional verification), "degree"
    (deg P, exact when every prime factor of the characteristic exceeds it,
    otherwise just a bound), or "digit-sum" (exponent digit sums; an upper
    bound in general). `certified` is True when k is the exact functional
    value rather than an upper bound. `fallback_reason` is the guard's
    message when mode "auto" gave up the exact route, else None.
    """

    k: int
    method: str
    certified: bool
    fallback_reason: str | None = None


@dataclass(frozen=True)
class BoundParams:
    """Exponent and constant actually used in the exponential-sum bound
    B(d, c) (k - 1) / lpf and its derived estimates.

    `k`, `method`, `certified` describe the exponent; `b` is the constant;
    `functional_k` is the derivational degree of P as a function on the
    ring (or its certified-or-not upper bound, per the DdegResult it came
    from), kept for reporting, and `fallback_reason` is that DdegResult's.
    """

    k: int
    method: str
    certified: bool
    b: int
    functional_k: int
    fallback_reason: str | None = None


def bound_parameters(ring: Ring, degree: int, dres: DdegResult) -> BoundParams:
    """Select the exponent k and constant B for the exponential-sum bound.

    A ring of prime characteristic p is an algebra over its prime field,
    and the difference induction behind the bound runs on functions there,
    so the functional derivational degree is the exponent and B(deg P, p)
    the constant. Every other characteristic forces the constant-1 route,
    whose induction differentiates a lift of P over a characteristic-zero
    domain; each difference lowers the lift's degree by exactly one, so the
    sound exponent is deg P, not the functional degree. Substituting the
    functional degree there fails: x + x^2 + x^4 over prod(GF(4);GF(9)) is
    functionally of degree 2, yet the character supported on the GF(9)
    factor has |S|^2 = 1/3, above (k - 1)/lpf = 1/4.
    """
    why = dres.fallback_reason
    if dres.k == 0:
        return BoundParams(0, dres.method, dres.certified, 1, 0, why)
    if is_prime(ring.characteristic):
        b = b_constant(degree, ring.characteristic)
        return BoundParams(dres.k, dres.method, dres.certified, b, dres.k, why)
    return BoundParams(degree, "degree", True, 1, dres.k, why)


def derivational_degree(
    ring: Ring,
    P: RingPoly,
    mode: str = "auto",
) -> DdegResult:
    """Derivational degree of P as a function on the ring.

    mode "exact" forces full verification (WorkGuardExceeded once the
    difference tables it evaluates exceed the work guard), "bound" forces
    the cheap estimate, and "auto" tries exact first and falls back to the
    bound.
    """
    if mode not in ("exact", "bound", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return _exact_ddeg(ring, P)
    if mode == "bound":
        return _bound_ddeg(ring, P)
    try:
        return _exact_ddeg(ring, P)
    except WorkGuardExceeded as exc:
        return replace(_bound_ddeg(ring, P), fallback_reason=str(exc))


def _exact_ddeg(ring: Ring, P: RingPoly) -> DdegResult:
    n = spent = ring.order
    charge(n, "exact derivational degree")
    # One read of the guard per call: a charge per difference table would
    # cost more than the many small tables it guards.
    budget = work_guard()
    values = P.values()
    if not values.any():
        return DdegResult(0, "exact", True)
    shifts = ring.add_table(ring._places)
    # Level m holds the nonzero differences d_{g_i1} ... d_{g_im} P with
    # i1 <= ... <= im, each paired with im; a zero function has only zero
    # differences, so it is dropped.
    level, frontier = 0, [(values, 0)]
    while True:
        active = [(f, j) for f, j in frontier if not (f == f[0]).all()]
        if not active:
            return DdegResult(level, "exact", True)
        frontier = []
        for f, j in active:
            for i in range(j, len(shifts)):
                spent += n
                if spent > budget:
                    raise WorkGuardExceeded(
                        f"exact derivational degree of {P} on {ring.spec_string()} "
                        f"needs more than {budget} work at depth {level + 1}"
                    )
                child = ring.sub_vec(f[shifts[i]], f)
                if child.any():
                    frontier.append((child, i))
        level += 1


def _bound_ddeg(ring: Ring, P: RingPoly) -> DdegResult:
    if P.is_constant:
        # Constant polynomials are constant functions.
        return DdegResult(0, "degree", True)
    d = P.degree
    char = ring.characteristic
    char_factors = factorize(char)
    smallest = char_factors[0][0]
    if d < smallest:
        # The d-fold difference in directions (1, ..., 1) equals d! times the
        # leading coefficient plus lower terms' contributions of degree 0;
        # d! is a unit, so the degree is attained exactly.
        return DdegResult(d, "degree", True)
    if len(char_factors) == 1 and char_factors[0][1] == 1:
        p = smallest
        k = max(digit_sum(m, p) for m, _ in P.monomials() if m >= 1)
        return DdegResult(k, "digit-sum", False)
    if all(e == 1 for _, e in char_factors):
        # Squarefree characteristic: the ring is a product of prime
        # characteristic rings, and the digit-sum bound applies factorwise.
        k = max(
            digit_sum(m, p)
            for p, _ in char_factors
            for m, _ in P.monomials()
            if m >= 1
        )
        return DdegResult(k, "digit-sum", False)
    return DdegResult(d, "degree", False)
