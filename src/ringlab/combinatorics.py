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

P is intersective over a ring of integers O (here Z or F_p[t]) iff it has
a root mod pi^j for every prime pi and every j. One Hensel climb, on Python
ints or on F_p[t] elements, checks this for each pi with N(pi) <= B up to
N(pi^j) <= B^2: a root whose derivative valuation v satisfies j >= 2v + 1
at level j lifts forever, other roots are extended one level at a time. A
level with no roots is a witness, re-checked by scanning O/pi^j with the
ring kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import work_guard
from .characters import character_table
from .errors import HypothesisUnmet, ParseError, WorkGuardExceeded
from .harmonics import exp_sums_all
from .polynomials import RingPoly, bound_parameters, derivational_degree
from .rings import (
    PolyQuotientRing,
    Ring,
    ZModRing,
    _monic_polys,
    _pdivmod,
    _pmul,
    _ptrim,
    is_prime,
    poly_is_irreducible,
)
from .subgroups import constant_in_subgroup


def _element_set(ring: Ring, elements) -> np.ndarray:
    """The sorted distinct element indices; ParseError if one is out of
    range, however large."""
    try:
        out = np.unique(np.asarray(list(elements), dtype=np.int64))
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
    a01 = np.zeros(n, dtype=np.int64)
    a01[A] = 1
    b01 = np.zeros(n, dtype=np.int64)
    b01[B] = 1
    count = 0
    for v, row in ring.translates(np.flatnonzero(mult)):
        count += int(mult[v]) * int(a01 @ b01[row])
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


@dataclass(order=True, slots=True)
class _FpPoly:
    """An element of F_p[t], with the + * % // truth value and order that
    the Hensel climb also uses on Python ints. c holds the ascending
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


def _hensel_climb(coeffs, deriv, pi, residues: Sequence, top: int) -> tuple[str, int]:
    """Climb pi, pi^2, ..., pi^top: ('resolved', j), ('witness', j) or
    ('capped', j), with j the last level examined in full. A root r mod
    pi^j settles every level when P(r) = 0 or j >= 2 v(P'(r)) + 1; the
    other roots lift to r + pi^j t, t over the residues mod pi."""
    roots = [r for r in residues if not _horner(coeffs, r) % pi]
    j, modulus = 1, pi
    while roots:
        for r in roots:
            if not _horner(coeffs, r) or j >= 2 * _valuation(_horner(deriv, r), pi) + 1:
                return "resolved", j
        if j == top:
            return "capped", j
        steps = [modulus * t for t in residues]
        j, modulus = j + 1, modulus * pi
        roots = [x for r in roots for x in (r + s for s in steps)
                 if not _horner(coeffs, x) % modulus]
    return "witness", j


def _sweep(coeffs, primes, residues, B: int):
    """The climb at every prime pi in primes, given as (pi, N(pi)) with
    N(pi) <= B, through every level with N(pi^j) <= B^2. Returns the least
    witness (N(pi^j), pi, j) or None, the number of resolved primes, and
    the capped ones as (pi, j, N(pi^j))."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    witnesses, capped, resolved = [], [], 0
    for pi, norm in primes:
        top = next(j for j in itertools.count(1) if norm ** (j + 1) > B * B)
        outcome, j = _hensel_climb(coeffs, deriv, pi, residues(pi), top)
        if outcome == "witness":
            witnesses.append((norm**j, pi, j))
        elif outcome == "resolved":
            resolved += 1
        else:
            capped.append((pi, j, norm**j))
    return min(witnesses, default=None), resolved, capped


def _witness_has_no_root(ring: Ring, coeffs: Sequence[int]) -> bool:
    """Independent check of a witness O/pi^j: evaluate P on every element
    with the ring kernels, which share no arithmetic with the scalar climb."""
    values = ring.eval_poly_vec(coeffs, np.arange(ring.order, dtype=np.int64))
    return not (values == 0).any()


def intersectivity_oracle(
    family: str,
    coeffs: Sequence,
    bound: int,
    guard: int | None = None,
) -> IntersectivityVerdict:
    """Bounded intersectivity check over Z ("INTEGERS") or F_p[t] ("FPT(p)").

    The climb runs at every prime pi with N(pi) <= B through the levels
    with N(pi^j) <= B^2, for B = bound over Z and B = p^bound over F_p[t]
    (irreducibles of degree up to bound). Over F_p[t], integer coefficients
    are base-p encodings of polynomials in t. The witness is the least
    (N(pi^j), pi, j) with no root. B^2 bounds the first level's
    sum_{N(pi) <= B} N(pi) evaluations and the witness re-check's N(pi^j),
    so it is charged against the work guard before any prime is enumerated.
    """
    fam = family.strip().upper()
    if bound < 1:
        raise ParseError("bound must be a positive integer")
    if fam == "INTEGERS":
        p, base, exponent = None, bound, 1
        P = [int(c) for c in coeffs]
        primes = ((q, q) for q in range(2, bound + 1) if is_prime(q))
        residues = range

        def quotient(pi, j, N):
            return ZModRing(N, guard=N), [c % N for c in P]

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
        primes = ((_FpPoly(g, F), p**e) for e in range(1, bound + 1)
                  for g in _monic_polys(F, e) if poly_is_irreducible(g, F))

        @functools.cache
        def below(e):
            return [_FpPoly(_ptrim(t), F) for t in itertools.product(range(p), repeat=e)]

        def residues(g):
            return below(len(g.c) - 1)

        def quotient(g, j, N):
            gj = math.prod([g] * j)
            Q = PolyQuotientRing(F, gj.c, guard=N)
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
    limit = work_guard(guard)
    # A huge exponent fails on its bit length alone, before the power is built.
    if exponent > limit.bit_length() or base ** (2 * exponent) > limit:
        raise WorkGuardExceeded(f"climb charges B^2 = {base}^{2 * exponent} > work guard {limit}")
    least, resolved, capped = _sweep(P, primes, residues, base**exponent)
    witness = verified = None
    if least is not None:
        N, pi, j = least
        # The work guard bounds the scan, so the quotient skips the order guard.
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
