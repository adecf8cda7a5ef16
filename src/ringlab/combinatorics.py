"""Difference-free sets, configuration counts, and intersectivity.

A set A is difference-free for P when no two distinct a, b in A satisfy
b - a = P(x) for some x. The forbidden differences form the connection set
D = ({P(x)} union {-P(x)}) minus {0} of a Cayley graph, and the extremal
difference-free set is exactly a maximum independent set of that graph.
Exact mode finds it by branch and bound on neighbour bitmasks with a greedy
clique-cover bound; since the graph is vertex-transitive, the search only
takes the branch that puts vertex 0 in the set. Greedy mode strips the
graph one degree level at a time through translates v + D, with no
adjacency table, in O(|R| + |D|) memory; the O(|R| |D|) work of its degree
updates is charged against the work guard.

The size of any difference-free set is controlled by

    |A| <= C |R| lpf(R)^(-1/2^(k-1)) + d |R| / lpf(R),

with C = (B(d, char) (k-1))^(1/2^(k-1)), valid when P has a root or its
constant term lies in the value subgroup.

P is intersective over a ring of integers O (here Z or F_p[t]) iff it has
a root mod pi^j for every prime pi and every j. The Hensel climb of
`hensel` checks this for each pi with N(pi) <= B up to N(pi^j) <= B^2. A
level with no roots is a witness, re-checked here by scanning O/pi^j with
the ring kernels, which the climb's arrays do not use; over F_p[t] its
g^j and P mod g^j come from the rings' arithmetic on trimmed tuples.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import blocks, charge, work_guard
from .characters import character_table
from .errors import HypothesisUnmet, ParseError, WorkGuardExceeded
from .harmonics import BOUND_TOL, exp_sums_all
from .hensel import _FptLevels, _IntegerLevels, _irreducibles, _primes_upto, _sweep
from .polynomials import RingPoly, bound_parameters
from .rings import (
    PolyQuotientRing, Ring, ZModRing, _pdivmod, _pmul, _ptrim, distinct, element_set, is_prime, join_index
)
from .subgroups import constant_in_subgroup


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


def config_count(ring: Ring, P: RingPoly, A, B) -> ConfigCountReport:
    """Exact #{(x, y) : x in A, x + P(y) in B} with deviation statistics.

    The expectation for sets of these sizes is |A||B|; the normalized
    deviation divides by sqrt(|A||B|) |R| and the density deviation by
    |R|^2 (the scale on which the total ergodicity estimate controls it).
    A and B pass `element_set`. One `Ring.translate_counts` at the values v
    of P, weighted by how often P takes them, shifts by the smaller set:
    #{a in A : v + a in B}, or #{b in B : -v + b in A}, the same number,
    from |P(R)| x min(|A|, |B|) translates.
    """
    A = element_set(ring, A)
    B = element_set(ring, B)
    n = ring.order
    mult = np.bincount(P.values(), minlength=n)
    vs = np.flatnonzero(mult)
    if len(A) <= len(B):
        target, shifts, rows = B, A, vs
    else:
        target, shifts, rows = A, B, ring.neg_vec(vs)
    mask = np.zeros(n, dtype=bool)
    mask[target] = True
    count = int(mult[vs] @ ring.translate_counts(mask, shifts, rows=rows))
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

    Near-exact floats: the CLI exits 4 when it is ROUTE_TOL or more off the direct count.
    """
    A = element_set(ring, A)
    B = element_set(ring, B)
    n = ring.order
    table = character_table(ring)
    # Sums of the members' rows, not a BLAS product with the indicator:
    # threaded zgemv can wait milliseconds for an idle core.
    a_hat = np.conj(table[A].sum(axis=0)) / n
    b_hat = np.conj(table[B].sum(axis=0)) / n
    S = exp_sums_all(ring, P)
    return complex(n**2 * np.sum(np.conj(a_hat) * b_hat * S))


def forbidden_differences(ring: Ring, values: np.ndarray) -> np.ndarray:
    """D = (V union -V) minus {0} for the values V of a polynomial, an
    element set: the connection set of the Cayley graph joining x and y
    when x - y or y - x lies in V."""
    vals = distinct(values)
    pm = distinct(vals, ring.neg_vec(vals))
    D = pm[pm != 0]
    D.flags.writeable = False
    return D


def adjacency_masks(ring: Ring, D) -> list[int]:
    """Neighbour bitmasks of the Cayley graph with connection set D: bit y
    of entry x is set when y = x + d for some d in D. Exact search caps the
    order at 64, so the whole |D| x order table is small."""
    adj = [0] * ring.order
    for row in ring.add_table(D).tolist():
        for x, y in enumerate(row):
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


#: tie count above which the greedy draws through live counts per block of
#: this many elements instead of indexing the tie list; with |D| = 1 it ran
#: as fast as 1024 and 10% faster than 4096 at orders 2^16 and 2^18, and it
#: stays above every tie list of an order up to 1024
_GREEDY_BLOCK = 2048
#: tie count up to which the greedy filters its tie list by scalar `sub`,
#: cheaper than one `sub_vec` call on rings added place by place
_GREEDY_SHORT = 16


def _strip_in_blocks(ring: Ring, D: np.ndarray, degrees: np.ndarray, top, rng, removal, done: int) -> int:
    """The picks of one level while more than _GREEDY_BLOCK ties are live.
    The ties are the elements of degree top, in ascending order; a draw k
    finds its block by a cumsum of the live counts and its element by one
    scan of that block. Each pick lowers its neighbours' degrees at once, as
    `_greedy_independent_set` does for more than 2 |D| ties. Records the
    picks in removal from index done on and returns the new done."""
    width = _GREEDY_BLOCK
    counts = np.bincount((degrees == top).nonzero()[0] // width, minlength=-(-degrees.size // width))
    live = int(counts.sum())
    while live > width:
        k = rng.integers(live)
        ends = counts.cumsum()
        b = int(ends.searchsorted(k, "right"))
        lo = b * width
        v = lo + (degrees[lo:lo + width] == top).nonzero()[0][k - ends[b] + counts[b]]
        removal[done] = v
        done += 1
        hit = ring.add_vec(v, D)
        gone = hit[degrees[hit] == top]
        degrees[v] = -1
        degrees[hit] -= 1
        counts[b] -= 1
        np.subtract.at(counts, gone // width, 1)
        live -= gone.size + 1
    return done


def _greedy_independent_set(ring: Ring, D: np.ndarray, seed: int) -> np.ndarray:
    """Max-degree-last greedy on the Cayley graph with connection set D:
    strip highest-degree vertices first (seeded tie-break over the ascending
    tie list), then add back in reverse order when still independent.
    Returns the witness as a boolean mask. Neighbours of v are the translates
    v + D; D is symmetric without 0, so every degree starts at |D|. A removed
    vertex is set to -1 and only falls from there, below every live one.

    The strip takes one level of the top degree at a time. The top falls at
    each level, so there are at most |D| + 1 levels, each with an O(|R|)
    set-up. A pick v drops itself and its neighbours from the level's tie
    list, which is kept by its length t:
    - t > _GREEDY_BLOCK: through live counts per block (`_strip_in_blocks`);
    - t > 2 |D|: v lowers its neighbours' degrees at once, and the list
      keeps the entries still at the top (v's |D| translates cost less
      than a ring operation over the list);
    - else v leaves its degree updates to the level's end, and the list
      keeps the ties u with u - v outside D and 0, read from one `apart`
      table over R: through `sub_vec`, or by scalar `sub` once at most
      _GREEDY_SHORT ties are left. At the level's end, one `ufunc.at` per
      block of those picks' translates lowers the degrees.
    Cost: the |R| |D| of the degree updates, plus per pick O(t) for its tie
    list up to _GREEDY_BLOCK entries, or O(|R| / _GREEDY_BLOCK +
    _GREEDY_BLOCK) past that."""
    n = ring.order
    rng = np.random.default_rng(seed)
    apart = np.ones(n, dtype=bool)
    apart[0] = False
    apart[D] = False
    degrees = np.full(n, D.size, dtype=np.int64)
    removal = np.empty(n, dtype=np.int64)
    done = 0
    while done < n:
        top = degrees.max()
        ties = np.flatnonzero(degrees == top)
        if ties.size > _GREEDY_BLOCK:
            done = _strip_in_blocks(ring, D, degrees, top, rng, removal, done)
            ties = np.flatnonzero(degrees == top)
        while ties.size > 2 * D.size:
            v = ties[rng.integers(len(ties))]
            removal[done] = v
            done += 1
            degrees[v] = -1
            degrees[ring.add_vec(v, D)] -= 1
            ties = ties[degrees[ties] == top]
        deferred = done
        while ties.size > _GREEDY_SHORT:
            v = ties[rng.integers(len(ties))]
            removal[done] = v
            done += 1
            ties = ties[apart[ring.sub_vec(ties, v)]]
        ties = ties.tolist()
        while ties:
            v = ties[rng.integers(len(ties))]
            removal[done] = v
            done += 1
            ties = [u for u in ties if apart[ring.sub(u, v)]]
        if done == n:
            break
        # Blocks of BLOCK_ENTRIES / 8 translates keep each temporary to
        # 256 KB; whole blocks raised the peak of Z/4096 x^2 by 2 MB.
        level = removal[deferred:done]
        for block in blocks(len(level), 8 * D.size):
            np.subtract.at(degrees, ring.add_vec(level[block, None], D), 1)
        degrees[level] = -1
    chosen = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for v in removal[::-1].tolist():
        if not blocked[v]:
            chosen[v] = True
            blocked[ring.add_vec(v, D)] = True
    return chosen


def verify_difference_free(ring: Ring, P: RingPoly, elements) -> bool:
    """Independent scan: no distinct a, b with b - a a value of P. A
    difference of 0 comes only from b = a, so 0 is left out of the values.
    One `Ring.translate_counts` shifts by the smaller side: the translates
    b + (-a) of every pair a, b of the elements that land on a value, or
    the translates a + v, v a value, that land back among the elements;
    |elements| x min(|elements|, |values|) work. The elements pass
    `element_set`."""
    is_value = np.zeros(ring.order, dtype=bool)
    is_value[P.values()] = True
    is_value[0] = False
    elems = element_set(ring, elements)
    if len(elems) <= np.count_nonzero(is_value):
        return not ring.translate_counts(is_value, ring.neg_vec(elems), rows=elems).any()
    member = np.zeros(ring.order, dtype=bool)
    member[elems] = True
    return not ring.translate_counts(member, np.flatnonzero(is_value), rows=elems).any()


@dataclass
class DifferenceFreeReport:
    ring_spec: str
    poly: str
    mode: str
    size: int
    witness: np.ndarray
    verified: bool
    seed: int | None = None


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
    D = forbidden_differences(ring, P.values())
    if D.size == 0:
        witness = np.arange(n)
    elif mode == "exact":
        _, mask = _max_independent_set(adjacency_masks(ring, D))
        witness = np.flatnonzero([mask >> v & 1 for v in range(n)])
    else:
        charge(n * D.size, f"the greedy search over {n} vertices of degree {D.size}")
        witness = np.flatnonzero(_greedy_independent_set(ring, D, seed))
    witness = element_set(ring, witness)
    return DifferenceFreeReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        mode=mode,
        size=len(witness),
        witness=witness,
        verified=verify_difference_free(ring, P, witness),
        seed=seed if mode == "greedy" else None,
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


def sarkozy_hypothesis(ring: Ring, P: RingPoly) -> str:
    """The hypothesis under which the size bound holds for P: "root" when P
    has a root in R, else "constant-in-subgroup" when P(0) lies in the value
    subgroup. A constant P, or one that meets neither, is HypothesisUnmet."""
    if P.degree < 1:
        raise HypothesisUnmet("the size bound needs a nonconstant polynomial")
    if (P.values() == 0).any():
        return "root"
    if constant_in_subgroup(ring, P):
        return "constant-in-subgroup"
    raise HypothesisUnmet(
        "P has no root and P(0) is outside the value subgroup; "
        "the size bound is not asserted in this case"
    )


def sarkozy_bound_check(
    ring: Ring,
    P: RingPoly,
    measured_size: int,
) -> SarkozyReport:
    """The difference-free size bound C |R| lpf^(-1/2^(k-1)) + d |R| / lpf.

    Asserted only under `sarkozy_hypothesis`; otherwise HypothesisUnmet.
    """
    hypothesis = sarkozy_hypothesis(ring, P)
    d = P.degree
    bp = bound_parameters(ring, P)
    k, lpf = bp.k, bp.lpf
    C = (bp.b * (k - 1)) ** (2.0 ** (1 - k)) if k >= 1 else 0.0
    bound = C * ring.order * lpf ** -(2.0 ** (1 - k)) + d * ring.order / lpf
    return SarkozyReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        measured_size=measured_size,
        bound=float(bound),
        satisfied=bool(measured_size <= bound + BOUND_TOL),
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


def _fpt_coeff(c, p: int) -> tuple[int, ...]:
    """A coefficient of P as a trimmed tuple over F_p: an integer by its
    base-p digits, a negative one negated; a sequence by its entries mod p."""
    if isinstance(c, (list, tuple)):
        return _ptrim([int(x) % p for x in c])
    n = int(c)
    digits, rest = [], abs(n)
    while rest:
        rest, d = divmod(rest, p)
        digits.append(d if n >= 0 else -d % p)
    return tuple(digits)


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
    so it is charged against the work guard before any prime is enumerated;
    the witness quotient is built from no spec, so no order guard applies.
    """
    fam = family.strip().upper()
    if bound < 1:
        raise ParseError("bound must be a positive integer")
    if fam == "INTEGERS":
        p, base, exponent = None, bound, 1
        P = [int(c) for c in coeffs]

        def batches():
            return [_IntegerLevels(P, _primes_upto(bound), bound)]

        def quotient(pi, j, N):
            return ZModRing(N), [c % N for c in P]

        def witness_of(pi, j, N):
            return {"prime": pi, "exponent": j, "modulus": N}

        def capped_of(pi, j, N):
            return {"prime": pi, "checked_through": N}

    elif fam.startswith("FPT"):
        m = re.fullmatch(r"FPT\(([0-9]+)\)", fam)
        if not m or not is_prime(int(m.group(1))):
            raise ParseError(f"FPT family needs a prime, e.g. FPT(5); got {family!r}")
        p = int(m.group(1))
        base, exponent = p, bound
        P = [_fpt_coeff(c, p) for c in coeffs]

        def batches():
            return (_FptLevels(P, p, gs, p**bound) for gs in _irreducibles(p, bound))

        def quotient(g, j, N):
            F = ZModRing(p)
            gj = functools.reduce(lambda a, b: _pmul(a, b, F), [g] * j)
            Q = PolyQuotientRing(F, gj)
            return Q, [join_index(_pdivmod(c, gj, F)[1], Q.additive_orders()) for c in P]

        def witness_of(g, j, N):
            return {"g": list(g), "exponent": j, "quotient_order": N}

        def capped_of(g, j, N):
            return {"g": list(g), "checked_exponent": j}

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
    least, resolved, capped = _sweep(batches(), base**exponent)
    witness = verified = None
    if least is not None:
        N, pi, j = least
        verified = _witness_has_no_root(*quotient(pi, j, N))
        witness = witness_of(pi, j, N)
    return IntersectivityVerdict(
        family="INTEGERS" if p is None else "FPT",
        poly=[c if p is None else list(c) for c in P],
        bound_checked=bound,
        status=STATUS_INTERSECTIVE if witness is None else STATUS_WITNESS,
        witness=witness,
        witness_verified=verified,
        moduli_resolved=resolved,
        unresolved=[capped_of(*entry) for entry in capped],
        p=p,
    )
