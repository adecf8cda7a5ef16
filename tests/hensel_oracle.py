"""The two scalar Hensel climbs that the single climb over O replaced,
kept as a test oracle: one over the integers, one over F_p[t] on tuple
polynomials, each with its own witness scan. `reference_verdict(family,
coeffs, bound)` returns their verdict as a dictionary, to compare
with `intersectivity_oracle(...).to_dict()`.
"""

import itertools
import math
from typing import Sequence

from ringlab.budget import work_guard
from ringlab.combinatorics import (
    STATUS_INTERSECTIVE,
    STATUS_WITNESS,
    IntersectivityVerdict,
)
from ringlab.errors import ParseError, WorkGuardExceeded
from ringlab.rings import ZModRing, _monic_polys, _pdivmod, _pmul, _ptrim, is_prime, poly_is_irreducible


def _int_poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_poly_derivative(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _valuation_int(value: int, p: int) -> float:
    if value == 0:
        return math.inf
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _verify_integer_witness(coeffs: Sequence[int], modulus: int) -> bool:
    """Independent scan of the whole quotient with modular powers."""
    for x in range(modulus):
        total = sum(c * pow(x, i, modulus) for i, c in enumerate(coeffs))
        if total % modulus == 0:
            return False
    return True


def _integer_prime_analysis(coeffs, deriv, p: int, level_cap: int):
    """Climb p, p^2, ... : returns ('resolved', j), ('witness', j), or
    ('capped', j) with j the last level that was fully examined."""
    roots = [r for r in range(p) if _int_poly_eval(coeffs, r) % p == 0]
    j = 1
    modulus = p
    while True:
        if not roots:
            return "witness", j
        for r in roots:
            if _int_poly_eval(coeffs, r) == 0:
                return "resolved", j
            v = _valuation_int(_int_poly_eval(deriv, r), p)
            if v != math.inf and j >= 2 * v + 1:
                return "resolved", j
        if modulus * p > level_cap:
            return "capped", j
        next_modulus = modulus * p
        lifted = []
        for r in roots:
            for t in range(p):
                cand = r + modulus * t
                if _int_poly_eval(coeffs, cand) % next_modulus == 0:
                    lifted.append(cand)
        roots = lifted
        modulus = next_modulus
        j += 1


def _intersectivity_integers(coeffs: list[int], bound: int) -> IntersectivityVerdict:
    deriv = _int_poly_derivative(coeffs)
    level_cap = bound * bound
    witnesses = []
    unresolved = []
    resolved = 0
    for p in range(2, bound + 1):
        if not is_prime(p):
            continue
        outcome, j = _integer_prime_analysis(coeffs, deriv, p, level_cap)
        if outcome == "witness":
            witnesses.append((p**j, p, j))
        elif outcome == "resolved":
            resolved += 1
        else:
            unresolved.append({"prime": p, "checked_through": p**j})
    if witnesses:
        modulus, p, j = min(witnesses)
        verified = _verify_integer_witness(coeffs, modulus)
        witness = {"prime": p, "exponent": j, "modulus": modulus}
        return IntersectivityVerdict(
            family="INTEGERS",
            poly=list(coeffs),
            bound_checked=bound,
            status=STATUS_WITNESS,
            witness=witness,
            witness_verified=verified,
            moduli_resolved=resolved,
            unresolved=unresolved,
        )
    return IntersectivityVerdict(
        family="INTEGERS",
        poly=list(coeffs),
        bound_checked=bound,
        status=STATUS_INTERSECTIVE,
        witness=None,
        witness_verified=None,
        moduli_resolved=resolved,
        unresolved=unresolved,
    )


def _fpt_encode(c, p: int) -> tuple[int, ...]:
    """Integer to F_p[t] by base-p digits; negative integers negate the
    encoded polynomial. Sequences are taken as coefficient lists mod p."""
    if isinstance(c, (list, tuple)):
        return _ptrim(tuple(int(x) % p for x in c))
    c = int(c)
    neg = c < 0
    c = abs(c)
    digits = []
    while c:
        digits.append(c % p)
        c //= p
    if neg:
        digits = [(-d) % p for d in digits]
    return _ptrim(tuple(digits))


def _fpt_add(a, b, F) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return _ptrim(tuple(out))


def _fpt_eval(poly_coeffs, x, F) -> tuple[int, ...]:
    acc: tuple[int, ...] = ()
    for c in reversed(poly_coeffs):
        acc = _fpt_add(_pmul(acc, x, F), c, F)
    return acc


def _fpt_valuation(value, g, F) -> float:
    if not value:
        return math.inf
    v = 0
    while True:
        q, rem = _pdivmod(value, g, F)
        if rem:
            return v
        value = q
        v += 1
        if not value:
            return math.inf


def _fpt_reduce(value, modulus, F):
    return _pdivmod(value, modulus, F)[1]


def _all_polys_below(degree: int, p: int):
    for tup in itertools.product(range(p), repeat=degree):
        yield _ptrim(tuple(tup))


def _fpt_prime_analysis(coeffs, deriv, g, p: int, degree_cap: int, F):
    e = len(g) - 1
    roots = [
        r for r in _all_polys_below(e, F.order)
        if not _fpt_reduce(_fpt_eval(coeffs, r, F), g, F)
    ]
    j = 1
    modulus = g
    while True:
        if not roots:
            return "witness", j
        for r in roots:
            if not _fpt_eval(coeffs, r, F):
                return "resolved", j
            v = _fpt_valuation(_fpt_eval(deriv, r, F), g, F)
            if v != math.inf and j >= 2 * v + 1:
                return "resolved", j
        if (j + 1) * e > degree_cap:
            return "capped", j
        next_modulus = _pmul(modulus, g, F)
        lifted = []
        for r in roots:
            for c in _all_polys_below(e, F.order):
                cand = _fpt_add(r, _pmul(modulus, c, F), F)
                if not _fpt_reduce(_fpt_eval(coeffs, cand, F), next_modulus, F):
                    lifted.append(cand)
        roots = lifted
        modulus = next_modulus
        j += 1


def _verify_fpt_witness(coeffs, g, j: int, p: int, F) -> bool:
    e = len(g) - 1
    total_degree = j * e
    if p**total_degree > work_guard():
        raise WorkGuardExceeded(
            f"witness verification needs {p}^{total_degree} evaluations"
        )
    modulus = g
    for _ in range(j - 1):
        modulus = _pmul(modulus, g, F)
    for r in _all_polys_below(total_degree, p):
        if not _fpt_reduce(_fpt_eval(coeffs, r, F), modulus, F):
            return False
    return True


def _intersectivity_fpt(raw_coeffs: list, bound: int, p: int) -> IntersectivityVerdict:
    if not is_prime(p):
        raise ParseError(f"FPT needs a prime p, got {p}")
    F = ZModRing(p)
    coeffs = [_fpt_encode(c, p) for c in raw_coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ParseError("intersectivity needs a nonconstant polynomial")
    deriv = []
    for i, c in enumerate(coeffs):
        if i == 0:
            continue
        scaled = tuple(F.mul(x, i % p) for x in c)
        deriv.append(_ptrim(scaled))
    degree_cap = 2 * bound
    witnesses = []
    unresolved = []
    resolved = 0
    for e in range(1, bound + 1):
        for g in _monic_polys(F, e):
            if not poly_is_irreducible(g, F):
                continue
            outcome, j = _fpt_prime_analysis(coeffs, deriv, g, p, degree_cap, F)
            if outcome == "witness":
                witnesses.append((j * e, list(g), j))
            elif outcome == "resolved":
                resolved += 1
            else:
                unresolved.append({"g": list(g), "checked_exponent": j})
    if witnesses:
        total_degree, g_list, j = min(witnesses)
        g = tuple(g_list)
        verified = _verify_fpt_witness(coeffs, g, j, p, F)
        witness = {
            "g": g_list,
            "exponent": j,
            "quotient_order": p**total_degree,
        }
        return IntersectivityVerdict(
            family="FPT",
            poly=[list(c) for c in coeffs],
            bound_checked=bound,
            status=STATUS_WITNESS,
            witness=witness,
            witness_verified=verified,
            moduli_resolved=resolved,
            unresolved=unresolved,
            p=p,
        )
    return IntersectivityVerdict(
        family="FPT",
        poly=[list(c) for c in coeffs],
        bound_checked=bound,
        status=STATUS_INTERSECTIVE,
        witness=None,
        witness_verified=None,
        moduli_resolved=resolved,
        unresolved=unresolved,
        p=p,
    )


def reference_verdict(family: str, coeffs: Sequence, bound: int) -> dict:
    """The oracle's verdict for "INTEGERS" or "FPT(p)", as a dictionary."""
    fam = family.strip().upper()
    if bound < 1:
        raise ParseError("bound must be a positive integer")
    if fam == "INTEGERS":
        ints = [int(c) for c in coeffs]
        while ints and ints[-1] == 0:
            ints.pop()
        if len(ints) < 2:
            raise ParseError("intersectivity needs a nonconstant polynomial")
        return _intersectivity_integers(ints, bound).to_dict()
    assert fam.startswith("FPT(") and fam.endswith(")")
    return _intersectivity_fpt(list(coeffs), bound, int(fam[4:-1])).to_dict()
