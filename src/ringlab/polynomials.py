"""Polynomials over a finite ring and their difference structure.

The central quantity is the derivational degree of P: the least k such that
every (k+1)-fold iterated difference

    d_{n_1, ..., n_{k+1}} P(x)

vanishes at every point of the ring. The exact route takes the first of
four rules that applies; each reports method "exact", certified.

  1. Field: any ring whose `is_field` holds, so GF(q), Z/p, and fields
     spelled PQ or GR(p,1,r). Since x^q = x, every exponent m >= 1 may be
     replaced by (m - 1) mod (q - 1) + 1; like terms then merge with the
     field's addition, and what is left is the unique polynomial of the
     function with exponents below q. In coordinates over F_p, x^m has
     degree digit_sum(m, p) (each x^(p^i) is F_p-linear), so k is the
     largest base-p digit sum among the exponents whose merged coefficient
     is nonzero, and 0 if there is none: the degree of Delsarte, Goethals
     and MacWilliams ("On generalized Reed-Muller codes and their
     relatives", Information and Control 16, 1970). The rule reads only
     P's coefficients and evaluates nothing.
  2. Product: a `prod`, and Z/N with two or more prime factors, which by
     CRT is the product of its Z/p^e. P acts factor by factor, and so does
     every difference, so k is the largest degree over the factors, each
     by these rules on P's coefficients projected into it. A Z/p factor
     of Z/N takes rule 1 on residues mod p and builds no ring; a Z/p^e
     factor, e >= 2, is the ring Z/p^e. So rules 3 and 4 run on local
     rings only.
  3. Prime characteristic p: PQ over GF(p^e) whose modulus is not
     irreducible. Every radix is p, so (R, +) is F_p^N along the additive
     basis, and the Newton transform at 0, the forward differences along
     each axis of the (p,)*N cube of P's values, gives P's coefficients c_J
     in the basis prod_i binom(x_i, j_i), j_i < p. A difference along axis
     i lowers j_i by one, so the |J|-fold difference at the largest |J|
     with c_J != 0 is the constant c_J, and every longer one vanishes: k is
     the largest digit sum of a nonzero position. For p = 2 this is the
     binary Moebius transform. Since Frobenius is additive, k is at most
     the largest base-p digit sum s of P's exponents, so only the sub-cube
     [0, min(p - 1, s)]^N is transformed. When that work would exceed the
     guard, the search below runs instead.
  4. Everything else, prime-power characteristic (Z/p^a and GR with
     n >= 2), searches differences along the cyclic generators g_1..g_r of
     (R, +) (r <= log2 |R|). Difference operators commute and d_{a+b} =
     d_a + d_b + d_a d_b, so every (k+1)-fold difference is a sum of
     products of at least k+1 generator differences; checking each
     multiset of k+1 generators once suffices. Confirming degree k
     evaluates at most C(k+r, r) value tables of length |R|, and the guard
     refuses once that work exceeds the budget. The search is also the
     tests' oracle for rules 1-3.

Mode "bound" estimates k from the exponents of P alone:

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .budget import charge, parse_int, work_guard
from .errors import ParseError, WorkGuardExceeded
from .rings import (
    ProductRing,
    Ring,
    ZModRing,
    _ptrim,
    factorize,
    is_prime,
    make_ring,
    poly_str,
)

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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def values(self) -> np.ndarray:
        """P(x) for every x, in element order: one read-only table per ring
        and polynomial, kept in the ring's memo. Horner's deg P products
        of order entries each are charged to the work guard before they run."""
        ring, coeffs = self.ring, self.coeffs

        def build() -> np.ndarray:
            charge(max(self.degree, 0) * ring.order,
                   f"evaluating a degree-{self.degree} polynomial on {ring.spec_string()}")
            return ring.eval_poly_vec(coeffs, np.arange(ring.order, dtype=np.int64))

        return ring.memo(("values", coeffs), build)

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def monomials(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs with nonzero coefficient."""
        return [(j, c) for j, c in enumerate(self.coeffs) if c != 0]

    def __str__(self) -> str:
        ring = self.ring

        def head(c: int) -> str:
            return "" if c == ring.one else f"({ring.element_str(c)})"

        return poly_str(self.coeffs, "x", head, const=ring.element_str)


def parse_poly_literal(ring: Ring, text: str) -> RingPoly:
    """Parse 'c0,c1,...,cd', each written as `parse_int` reads it. Plain
    integers map through the canonical image of Z in the ring; a '#' prefix
    gives a raw element index instead."""
    items = [t.strip() for t in text.split(",")]
    coeffs = []
    for item in items:
        if item.startswith("#"):
            idx = parse_int(item[1:], "raw element index")
            if not 0 <= idx < ring.order:
                raise ParseError(
                    f"raw index {idx} out of range for order {ring.order}"
                )
            coeffs.append(idx)
        else:
            coeffs.append(ring.from_int(parse_int(item, "polynomial coefficient")))
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
    """The exponential-sum bound |S|^(2^(k-1)) <= B (k - 1) / lpf chosen
    for one ring and polynomial, read by every report that prints it.

    `k`, `method`, `certified` describe the exponent; `b` is B and `lpf` the
    ring's least residue field size; `functional_k` is the derivational
    degree of P as a function on the ring (or its certified-or-not upper
    bound, per the DdegResult it came from), kept for reporting, and
    `fallback_reason` is that DdegResult's. `power` is the right side (0.0
    for k <= 1), `root` its 2^(k-1)-th root.
    """

    k: int
    method: str
    certified: bool
    b: int
    lpf: int
    functional_k: int
    fallback_reason: str | None = None

    @property
    def power(self) -> float:
        return self.b * (self.k - 1) / self.lpf if self.k > 1 else 0.0

    @property
    def root(self) -> float:
        return self.power ** (2.0 ** (1 - self.k))


def bound_parameters(ring: Ring, P: RingPoly, mode: str = "auto") -> BoundParams:
    """The exponential-sum bound for P, from its derivational degree in mode.

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
    dres = derivational_degree(ring, P, mode=mode)
    why, lpf = dres.fallback_reason, ring.lpf()
    if dres.k == 0 or is_prime(ring.characteristic):
        b = b_constant(P.degree, ring.characteristic) if dres.k else 1
        return BoundParams(dres.k, dres.method, dres.certified, b, lpf, dres.k, why)
    return BoundParams(P.degree, "degree", True, 1, lpf, dres.k, why)


def derivational_degree(
    ring: Ring,
    P: RingPoly,
    mode: str = "auto",
) -> DdegResult:
    """Derivational degree of P as a function on the ring.

    mode "exact" takes the first rule of the module docstring that applies
    (WorkGuardExceeded once the value table or the difference search would
    exceed the work guard), "bound" forces the cheap estimate, and
    "auto" tries exact first and falls back to the bound.
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
    """The first rule of the module docstring that applies."""
    terms = [(m, c) for m, c in P.monomials() if m >= 1]
    if ring.is_field:
        k = _field_degree(ring.characteristic, ring.order, terms, ring.add)
    elif isinstance(ring, ProductRing):
        parts = [ring.split(c) for c in P.coeffs]
        k = max(
            _exact_ddeg(f, RingPoly.make(f, [part[i] for part in parts])).k
            for i, f in enumerate(ring.factors)
        )
    elif isinstance(ring, ZModRing) and len(ring.prime_ideal_profile()) > 1:
        k = max(
            _field_degree(p, p, [(m, c % p) for m, c in terms]) if e == 1
            else _exact_ddeg(Z := make_ring(f"Z/{p**e}"), RingPoly.make(Z, P.coeffs)).k
            for p, e in ring.prime_ideal_profile()
        )
    else:
        k = _newton_degree(ring, P) if is_prime(ring.characteristic) else None
        if k is None:
            return _difference_search(ring, P)
    return DdegResult(k, "exact", True)


def _field_degree(p: int, q: int, terms: list[tuple[int, int]], add=None) -> int:
    """Rule 1: the largest base-p digit sum among the exponents m >= 1,
    each reduced to (m - 1) mod (q - 1) + 1, whose merged coefficient is
    nonzero; 0 if there is none. Coefficients merge with add, the field's
    addition, or with integer addition mod p when add is None (Z/p)."""
    merged: dict[int, int] = {}
    for m, c in terms:
        r = (m - 1) % (q - 1) + 1
        merged[r] = (merged.get(r, 0) + c) % p if add is None else add(merged.get(r, 0), c)
    return max((digit_sum(r, p) for r, c in merged.items() if c), default=0)


def _newton_degree(ring: Ring, P: RingPoly) -> int | None:
    """Rule 3, on a local ring of prime characteristic p: the largest
    digit sum of a nonzero position of the Newton transform of P's values
    on the N axes of the (p,)*N cube; axis i is digit i of the index, of
    place p^i. None when the transform would exceed the work guard, and
    the search takes over.

    Every c_J with |J| above s, the largest base-p digit sum of P's
    exponents, vanishes (the digit-sum bound), and c_J reads only the values
    at positions I <= J, so the transform runs D = min(p - 1, s) passes on
    the cube [0, D]^N, D (D + 1)^N / 2 subtractions an axis."""
    p = ring.characteristic
    N = len(ring.additive_orders())
    s = max((digit_sum(m, p) for m, _ in P.monomials() if m >= 1), default=0)
    D = min(p - 1, s)
    if N * D * (D + 1) ** N // 2 > work_guard():
        return None
    cube = P.values().reshape((p,) * N)[(slice(D + 1),) * N].copy()
    for axis in range(N):
        v = np.moveaxis(cube, axis, 0)
        for t in range(1, D + 1):
            v[t:] = ring.sub_vec(v[t:], v[t - 1:-1])
    # Position J carries sum_i j_i; zeros start below every such sum, so
    # after each digit is folded by its max only nonzero positions count.
    best = np.where(cube != 0, 0, -N * p)
    for _ in range(N):
        best = (best.reshape(-1, D + 1) + np.arange(D + 1)).max(axis=1)
    return max(int(best[0]), 0)


def _difference_search(ring: Ring, P: RingPoly) -> DdegResult:
    """Rule 4: differences along the cyclic generators of (R, +)."""
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
    char_factors = factorize(ring.characteristic)
    if d < char_factors[0][0]:
        # The d-fold difference in directions (1, ..., 1) equals d! times the
        # leading coefficient plus lower terms' contributions of degree 0;
        # d! is a unit, so the degree is attained exactly.
        return DdegResult(d, "degree", True)
    if all(e == 1 for _, e in char_factors):
        # Squarefree characteristic: the ring is a product of prime
        # characteristic rings (one when the characteristic is prime), and
        # the digit-sum bound applies factorwise.
        k = max(
            digit_sum(m, p)
            for p, _ in char_factors
            for m, _ in P.monomials()
            if m >= 1
        )
        return DdegResult(k, "digit-sum", False)
    return DdegResult(d, "degree", False)
