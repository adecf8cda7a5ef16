"""Difference-free sets, configuration counts, and intersectivity.

A set A is difference-free for P when no two distinct a, b in A satisfy
b - a = P(x) for some x. The forbidden differences form the connection set
D = ({P(x)} union {-P(x)}) minus {0} of a Cayley graph, and the extremal
difference-free set is exactly a maximum independent set of that graph.
Exact mode finds it by branch and bound on neighbour bitmasks with a greedy
clique-cover bound; since the graph is vertex-transitive, the search only
takes the branch that puts vertex 0 in the set. Greedy mode walks the graph
through translates v + D with no adjacency table, in O(|R| + |D|) memory
and O(|R| |D|) work, which it charges against the work guard.

The size of any difference-free set is controlled by

    |A| <= C |R| lpf(R)^(-1/2^(k-1)) + d |R| / lpf(R),

with C = (B(d, char) (k-1))^(1/2^(k-1)), valid when P has a root or its
constant term lies in the value subgroup.

P is intersective over a ring of integers O (here Z or F_p[t]) iff it has
a root mod pi^j for every prime pi and every j. The Hensel climb of
`hensel` checks this for each pi with N(pi) <= B up to N(pi^j) <= B^2. A
level with no roots is a witness, re-checked here by scanning O/pi^j with
the ring kernels, which the climb's arrays do not use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import charge, work_guard
from .characters import character_table
from .errors import HypothesisUnmet, ParseError, WorkGuardExceeded
from .harmonics import exp_sums_all
from .hensel import _FpPoly, _FptLevels, _IntegerLevels, _irreducibles, _primes_upto, _sweep
from .polynomials import RingPoly, bound_parameters, derivational_degree
from .rings import PolyQuotientRing, Ring, ZModRing, distinct, is_prime
from .subgroups import constant_in_subgroup


def _element_set(ring: Ring, elements) -> np.ndarray:
    """The sorted distinct element indices; ParseError if one is out of
    range, however large."""
    try:
        out = distinct(np.asarray(list(elements), dtype=np.int64))
        in_range = not out.size or (out[0] >= 0 and out[-1] < ring.order)
    except OverflowError:
        in_range = False
    if not in_range:
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
    b01 = np.zeros(n, dtype=bool)
    b01[B] = True
    count = 0
    # Row v of a block counts the x in A with x + v in B.
    for vs, table in ring.translate_blocks(np.flatnonzero(mult)):
        count += int(mult[vs] @ b01[table[:, A]].sum(axis=1))
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
    table = character_table(ring)
    # Sums of the members' rows, not a BLAS product with the indicator:
    # threaded zgemv can wait milliseconds for an idle core.
    a_hat = np.conj(table[A].sum(axis=0)) / n
    b_hat = np.conj(table[B].sum(axis=0)) / n
    S = exp_sums_all(ring, P)
    return complex(n**2 * np.sum(np.conj(a_hat) * b_hat * S))


def forbidden_differences(ring: Ring, P: RingPoly) -> np.ndarray:
    """D = ({P(x)} union {-P(x)}) minus {0}, sorted."""
    vals = distinct(P.values())
    D = distinct(vals, ring.neg_vec(vals))
    return D[D != 0]


def adjacency_masks(ring: Ring, D) -> list[int]:
    """Neighbour bitmasks of the Cayley graph with connection set D: bit y
    of entry x is set when y = x + d for some d in D."""
    adj = [0] * ring.order
    for _, row in ring.translates(D):
        for x, y in enumerate(row.tolist()):
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
    vertex is set to -1 and only falls from there, below every live one.
    The tie list is filtered after each removal and rebuilt only when it
    empties: O(|R| |D|) time plus O(|R|) per level the top degree falls."""
    n = ring.order
    rng = np.random.default_rng(seed)
    degrees = np.full(n, D.size, dtype=np.int64)
    removal = np.empty(n, dtype=np.int64)
    top, ties = D.size, np.arange(n)
    for i in range(n):
        if not ties.size:
            top = degrees.max()
            ties = np.flatnonzero(degrees == top)
        v = ties[rng.integers(len(ties))]
        removal[i] = v
        degrees[v] = -1
        degrees[ring.add_vec(v, D)] -= 1
        ties = ties[degrees[ties] == top]
    chosen = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for v in removal[::-1].tolist():
        if not blocked[v]:
            chosen[v] = True
            blocked[ring.add_vec(v, D)] = True
    return chosen


def verify_difference_free(ring: Ring, P: RingPoly, elements: Sequence[int]) -> bool:
    """Independent pairwise scan: no distinct a, b with b - a a value of P.
    One `sub_vec` per element a against a mask of P's values; a difference
    of 0 comes only from b = a, so 0 is left out of the mask."""
    is_value = np.zeros(ring.order, dtype=bool)
    is_value[P.values()] = True
    is_value[0] = False
    elems = np.asarray(elements, dtype=np.int64)
    return not any(is_value[ring.sub_vec(elems, a)].any() for a in elems)


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
) -> DifferenceFreeReport:
    """Largest (exact mode) or greedily large (greedy mode) difference-free
    set for P. Exact mode is branch and bound on the forbidden-difference
    Cayley graph and requires |R| <= 64. Greedy mode is the seeded
    max-degree-last greedy on the same graph; its |R| |D| work is charged
    against the work guard before the search starts."""
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    n = ring.order
    if mode == "exact" and n > _EXACT_INDEPENDENCE_CAP:
        raise WorkGuardExceeded(
            f"exact search is limited to order {_EXACT_INDEPENDENCE_CAP}, ring has order {n}"
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
        charge(n * D.size, f"the greedy search over {n} vertices of degree {D.size}")
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
    dres = derivational_degree(ring, P, mode=ddeg_mode)
    bp = bound_parameters(ring, d, dres)
    k = bp.k
    lpf = ring.lpf()
    if k >= 1:
        C = (bp.b * (k - 1)) ** (2.0 ** (1 - k))
        bound = C * ring.order * lpf ** -(2.0 ** (1 - k)) + d * ring.order / lpf
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


def _witness_has_no_root(ring: Ring, coeffs: Sequence[int]) -> bool:
    """Independent check of a witness O/pi^j: evaluate P on every element
    with the ring kernels, which share no arithmetic with the climb."""
    values = ring.eval_poly_vec(coeffs, np.arange(ring.order, dtype=np.int64))
    return not (values == 0).any()


def intersectivity_oracle(family: str, coeffs: Sequence, bound: int) -> IntersectivityVerdict:
    """Bounded intersectivity check over Z ("INTEGERS") or F_p[t] ("FPT(p)").

    The climb runs at every prime pi with N(pi) <= B through the levels
    with N(pi^j) <= B^2, for B = bound over Z and B = p^bound over F_p[t]
    (irreducibles of degree up to bound). Over F_p[t], integer coefficients
    are base-p encodings of polynomials in t. The witness is the least
    (N(pi^j), pi, j) with no root. B^2 bounds the first level's
    sum_{N(pi) <= B} N(pi) evaluations and the witness re-check's N(pi^j),
    so it is charged against the work guard before any prime is enumerated,
    and the witness quotient skips the order guard.
    """
    fam = family.strip().upper()
    if bound < 1:
        raise ParseError("bound must be a positive integer")
    if fam == "INTEGERS":
        p, base, exponent = None, bound, 1
        P = [int(c) for c in coeffs]

        def levels():
            return _IntegerLevels(P, _primes_upto(bound), bound)

        def quotient(pi, j, N):
            return ZModRing(N, _guard_checked=True), [c % N for c in P]

        def witness_of(pi, j, N):
            return {"prime": pi, "exponent": j, "modulus": N}

        def capped_of(pi, j, N):
            return {"prime": pi, "checked_through": N}

    elif fam.startswith("FPT"):
        m = re.fullmatch(r"FPT\((\d+)\)", fam)
        if not m or not is_prime(int(m.group(1))):
            raise ParseError(f"FPT family needs a prime, e.g. FPT(5); got {family!r}")
        p = int(m.group(1))
        base, exponent = p, bound
        F = ZModRing(p)
        P = [_FpPoly.encode(c, F) for c in coeffs]

        def levels():
            return _FptLevels(P, F, _irreducibles(p, bound), p**bound)

        def quotient(g, j, N):
            gj = math.prod([g] * j)
            Q = PolyQuotientRing(F, gj.c, _guard_checked=True)
            return Q, [Q.from_coeffs((c % gj).c) for c in P]

        def witness_of(g, j, N):
            return {"g": list(g.c), "exponent": j, "quotient_order": N}

        def capped_of(g, j, N):
            return {"g": list(g.c), "checked_exponent": j}

    else:
        raise ParseError(f"unknown family {family!r}")
    while P and not P[-1]:
        P.pop()
    if len(P) < 2:
        raise ParseError("intersectivity needs a nonconstant polynomial")
    # B^2 >= 4^exponent, so an exponent past the guard's bit length is
    # refused without building the power.
    work = base ** (2 * exponent) if exponent <= work_guard().bit_length() else math.inf
    charge(work, f"the climb to B^2 = {base}^{2 * exponent}")
    least, resolved, capped = _sweep(P, levels(), base**exponent)
    witness = verified = None
    if least is not None:
        N, pi, j = least
        verified = _witness_has_no_root(*quotient(pi, j, N))
        witness = witness_of(pi, j, N)
    return IntersectivityVerdict(
        family="INTEGERS" if p is None else "FPT",
        poly=[c if p is None else list(c.c) for c in P],
        bound_checked=bound,
        status=STATUS_INTERSECTIVE if witness is None else STATUS_WITNESS,
        witness=witness,
        witness_verified=verified,
        moduli_resolved=resolved,
        unresolved=[capped_of(*entry) for entry in capped],
        p=p,
    )
