"""Difference-free sets, configuration counts, and intersectivity.

A set A is difference-free for P when no two distinct a, b in A satisfy
b - a = P(x) for some x. The forbidden differences form the connection set
D = ({P(x)} union {-P(x)}) minus {0} of a Cayley graph, and the extremal
difference-free set is exactly a maximum independent set of that graph.
Exact mode finds it by branch and bound on neighbour bitmasks with a greedy
clique-cover bound; since the graph is vertex-transitive, the search only
takes the branch that puts vertex 0 in the set. Greedy mode walks the graph
through translates v + D with no adjacency table, in O(|R| + |D|) memory.

The size of any difference-free set is controlled by

    |A| <= C |R| lpf(R)^(-1/2^(k-1)) + d |R| / lpf(R),

with C = (B(d, char) (k-1))^(1/2^(k-1)), valid when P has a root or its
constant term lies in the value subgroup.

The intersectivity oracle sweeps prime (or irreducible) power moduli up to
a bound, lifting roots Hensel-style: a root whose derivative valuation v
satisfies j >= 2v + 1 at level j lifts forever, other roots are extended
exhaustively one level at a time. A level with no roots is a witness of
non-intersectivity and is re-verified by a full scan of the quotient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import work_guard
from .characters import character_table
from .errors import HypothesisUnmet, ParseError, WorkGuardExceeded
from .harmonics import exp_sums_all
from .polynomials import RingPoly, bound_parameters, derivational_degree
from .rings import Ring, ZModRing, _monic_polys, _pdivmod, _pmul, _ptrim, is_prime, poly_is_irreducible
from .subgroups import constant_in_subgroup


def _element_set(ring: Ring, elements) -> np.ndarray:
    out = np.unique(np.asarray(list(elements), dtype=np.int64))
    if out.size and (out[0] < 0 or out[-1] >= ring.order):
        raise ParseError("set elements must be valid element indices")
    return out


@dataclass
class ConfigCountReport:
    ring_spec: str
    poly: str
    size_a: int
    size_b: int
    count: int
    expectation: int
    deviation: int
    normalized_deviation: float
    density_deviation: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def config_count(ring: Ring, P: RingPoly, A, B) -> ConfigCountReport:
    """Exact #{(x, y) : x in A, x + P(y) in B} with deviation statistics.

    The expectation for sets of these sizes is |A||B|; the normalized
    deviation divides by sqrt(|A||B|) |R| and the density deviation by
    |R|^2 (the scale on which the total ergodicity estimate controls it).
    """
    A = _element_set(ring, A)
    B = _element_set(ring, B)
    n = ring.order
    mult = np.bincount(P.values(), minlength=n)
    a01 = np.zeros(n, dtype=np.int64)
    a01[A] = 1
    b01 = np.zeros(n, dtype=np.int64)
    b01[B] = 1
    count = 0
    for v in np.flatnonzero(mult):
        count += int(mult[v]) * int(a01 @ b01[ring.translation(v)])
    expectation = len(A) * len(B)
    deviation = abs(count - expectation)
    if len(A) and len(B):
        normalized = deviation / (math.sqrt(len(A) * len(B)) * n)
    else:
        normalized = 0.0
    report = ConfigCountReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        size_a=len(A),
        size_b=len(B),
        count=count,
        expectation=expectation,
        deviation=deviation,
        normalized_deviation=normalized,
        density_deviation=deviation / n**2,
    )
    assert 0 <= count <= len(A) * n
    return report


def config_count_fourier(ring: Ring, P: RingPoly, A, B) -> complex:
    """The same count through characters:

        count = |R|^2 sum_chi conj(1A_hat(chi)) 1B_hat(chi) S(chi, P).

    Near-exact floats; the direct count matches within 0.5 for |R| <= 256.
    """
    A = _element_set(ring, A)
    B = _element_set(ring, B)
    n = ring.order
    a01 = np.zeros(n)
    a01[A] = 1.0
    b01 = np.zeros(n)
    b01[B] = 1.0
    table = character_table(ring)
    a_hat = (a01 @ np.conj(table)) / n
    b_hat = (b01 @ np.conj(table)) / n
    S = exp_sums_all(ring, P)
    return complex(n**2 * np.sum(np.conj(a_hat) * b_hat * S))


def forbidden_differences(ring: Ring, P: RingPoly) -> np.ndarray:
    """D = ({P(x)} union {-P(x)}) minus {0}, sorted."""
    vals = np.unique(P.values())
    D = np.union1d(vals, ring.neg_vec(vals))
    return D[D != 0]


def adjacency_masks(ring: Ring, D) -> list[int]:
    """Neighbour bitmasks of the Cayley graph with connection set D: bit y
    of entry x is set when y = x + d for some d in D."""
    adj = [0] * ring.order
    for d in D:
        for x, y in enumerate(ring.translation(d).tolist()):
            adj[x] |= 1 << y
    return adj


def _clique_cover_bound(cand: int, adj: list[int]) -> int:
    """Number of cliques in a greedy cover of the candidate set; an upper
    bound on how many independent vertices candidates can still supply."""
    count = 0
    rem = cand
    while rem:
        v = (rem & -rem).bit_length() - 1
        members = 1 << v
        common = adj[v] & rem
        while common:
            u = (common & -common).bit_length() - 1
            members |= 1 << u
            common &= adj[u]
        rem &= ~members
        count += 1
    return count


def _max_independent_set(adj: list[int]) -> tuple[int, int]:
    """Maximum independent set of a Cayley graph by branch and bound, as
    (size, bitmask). The graph must be vertex-transitive (see below)."""
    n = len(adj)
    best_size = 0
    best_mask = 0

    def expand(cand: int, size: int, mask: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if size > best_size:
                best_size, best_mask = size, mask
            return
        if size + _clique_cover_bound(cand, adj) <= best_size:
            return
        v = (cand & -cand).bit_length() - 1
        expand(cand & ~(adj[v] | (1 << v)), size + 1, mask | (1 << v))
        expand(cand & ~(1 << v), size, mask)

    # Root cut: the graph is vertex-transitive, so some maximum independent
    # set contains vertex 0, and the include-0 branch alone reaches alpha.
    # The exclude-0 branch could only tie it, and a tie never replaces the
    # best, so it is skipped.
    expand(((1 << n) - 1) & ~(adj[0] | 1), 1, 1)
    return best_size, best_mask


def _greedy_independent_set(ring: Ring, D: np.ndarray, seed: int) -> np.ndarray:
    """Max-degree-last greedy on the Cayley graph with connection set D:
    strip highest-degree vertices first (seeded tie-break over the ascending
    tie list), then add back in reverse order when still independent.
    Returns the witness as a boolean mask. Neighbours of v are the translates
    v + D; D is symmetric without 0, so every degree starts at |D|. A removed
    vertex is set to -1 and only falls from there, below every live one."""
    n = ring.order
    rng = np.random.default_rng(seed)
    degrees = np.full(n, D.size, dtype=np.int64)
    removal = np.empty(n, dtype=np.int64)
    for i in range(n):
        ties = np.flatnonzero(degrees == degrees.max())
        v = ties[rng.integers(len(ties))]
        removal[i] = v
        degrees[v] = -1
        degrees[ring.add_vec(v, D)] -= 1
    chosen = np.zeros(n, dtype=bool)
    for v in removal[::-1]:
        if not chosen[ring.add_vec(v, D)].any():
            chosen[v] = True
    return chosen


def verify_difference_free(ring: Ring, P: RingPoly, elements: Sequence[int]) -> bool:
    """Independent pairwise scan: no distinct a, b with b - a a value of P."""
    values = set(int(v) for v in P.values())
    elems = [int(e) for e in elements]
    for a in elems:
        for b in elems:
            if a != b and ring.sub(b, a) in values:
                return False
    return True


@dataclass
class DifferenceFreeReport:
    ring_spec: str
    poly: str
    mode: str
    size: int
    witness: list[int]
    verified: bool
    seed: int | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


_EXACT_INDEPENDENCE_CAP = 64


def difference_free_max(
    ring: Ring,
    P: RingPoly,
    mode: str = "exact",
    seed: int = 0,
    guard: int | None = None,
) -> DifferenceFreeReport:
    """Largest (exact mode) or greedily large (greedy mode) difference-free
    set for P. Exact mode is branch and bound on the forbidden-difference
    Cayley graph and requires |R| <= 64. Greedy mode is the seeded
    max-degree-last greedy on the same graph, O(|R| |D|) time."""
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    n = ring.order
    if mode == "exact":
        cap = _EXACT_INDEPENDENCE_CAP if guard is None else min(guard, _EXACT_INDEPENDENCE_CAP)
        if n > cap:
            raise WorkGuardExceeded(
                f"exact search is limited to order {cap}, ring has order {n}"
            )
    D = forbidden_differences(ring, P)
    if D.size == 0:
        witness = list(range(n))
        return DifferenceFreeReport(
            ring_spec=ring.spec_string(),
            poly=str(P),
            mode=mode,
            size=n,
            witness=witness,
            verified=verify_difference_free(ring, P, witness),
            seed=seed if mode == "greedy" else None,
        )
    if mode == "exact":
        _, mask = _max_independent_set(adjacency_masks(ring, D))
        witness = [v for v in range(n) if mask >> v & 1]
        used_seed = None
    else:
        witness = np.flatnonzero(_greedy_independent_set(ring, D, seed)).tolist()
        used_seed = seed
    verified = verify_difference_free(ring, P, witness)
    return DifferenceFreeReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        mode=mode,
        size=len(witness),
        witness=witness,
        verified=verified,
        seed=used_seed,
    )


@dataclass
class SarkozyReport:
    ring_spec: str
    poly: str
    measured_size: int
    bound: float
    satisfied: bool
    constant_c: float
    k: int
    k_certified: bool
    degree: int
    lpf: int
    hypothesis: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def sarkozy_bound_check(
    ring: Ring,
    P: RingPoly,
    measured_size: int,
    ddeg_mode: str = "auto",
    guard: int | None = None,
) -> SarkozyReport:
    """The difference-free size bound C |R| lpf^(-1/2^(k-1)) + d |R| / lpf.

    Asserted only when P has a root in R or P(0) lies in the value
    subgroup; otherwise HypothesisUnmet.
    """
    if P.degree < 1:
        raise HypothesisUnmet("the size bound needs a nonconstant polynomial")
    values = P.values()
    has_root = bool((values == 0).any())
    if has_root:
        hypothesis = "root"
    elif constant_in_subgroup(ring, P):
        hypothesis = "constant-in-subgroup"
    else:
        raise HypothesisUnmet(
            "P has no root and P(0) is outside the value subgroup; "
            "the size bound is not asserted in this case"
        )
    d = P.degree
    dres = derivational_degree(ring, P, mode=ddeg_mode, guard=guard)
    bp = bound_parameters(ring, d, dres)
    k = bp.k
    lpf = ring.lpf()
    if k >= 1:
        C = (bp.b * (k - 1)) ** (1.0 / 2 ** (k - 1))
        bound = C * ring.order * lpf ** (-1.0 / 2 ** (k - 1)) + d * ring.order / lpf
    else:
        C = 0.0
        bound = d * ring.order / lpf
    return SarkozyReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        measured_size=measured_size,
        bound=float(bound),
        satisfied=bool(measured_size <= bound + 1e-9),
        constant_c=float(C),
        k=k,
        k_certified=bp.certified,
        degree=d,
        lpf=lpf,
        hypothesis=hypothesis,
    )


STATUS_INTERSECTIVE = "INTERSECTIVE_UP_TO_BOUND"
STATUS_WITNESS = "WITNESS_FOUND"


@dataclass
class IntersectivityVerdict:
    family: str
    poly: list
    bound_checked: int
    status: str
    witness: dict | None
    witness_verified: bool | None
    moduli_resolved: int
    unresolved: list = field(default_factory=list)
    p: int | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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


def _verify_fpt_witness(coeffs, g, j: int, p: int, F, guard: int | None) -> bool:
    e = len(g) - 1
    total_degree = j * e
    if p**total_degree > work_guard(guard):
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


def _intersectivity_fpt(raw_coeffs: list, bound: int, p: int, guard: int | None) -> IntersectivityVerdict:
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
        verified = _verify_fpt_witness(coeffs, g, j, p, F, guard)
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


def intersectivity_oracle(
    family: str,
    coeffs: Sequence,
    bound: int,
    p: int | None = None,
    guard: int | None = None,
) -> IntersectivityVerdict:
    """Bounded intersectivity check over the integers or over F_p[t].

    family is "INTEGERS" or "FPT(p)" (or "FPT" with p given separately).
    Over the integers, coeffs are plain integers and the sweep covers
    primes up to bound, prime powers up to bound^2. Over F_p[t], integer
    coefficients are read as base-p encodings of polynomials in t, the
    sweep covers irreducibles of degree up to bound and powers g^j with
    j deg(g) <= 2 bound.
    """
    fam = family.strip().upper()
    if fam.startswith("FPT(") and fam.endswith(")"):
        p = int(fam[4:-1])
        fam = "FPT"
    if bound < 1:
        raise ParseError("bound must be a positive integer")
    coeffs = list(coeffs)
    if fam == "INTEGERS":
        ints = [int(c) for c in coeffs]
        while ints and ints[-1] == 0:
            ints.pop()
        if len(ints) < 2:
            raise ParseError("intersectivity needs a nonconstant polynomial")
        return _intersectivity_integers(ints, bound)
    if fam == "FPT":
        if p is None:
            raise ParseError("FPT family needs a prime, e.g. FPT(5)")
        return _intersectivity_fpt(coeffs, bound, p, guard)
    raise ParseError(f"unknown family {family!r}")
