"""Paley-type Cayley graphs and their quasirandomness certificates.

P(R, d) joins x and y when x - y or y - x is a d-th power. The connection
set S = ({x^d} union {-x^d}) minus {0} is symmetric, so the graph is
r-regular with r = |S|, and every additive character chi is an eigenvector
of the adjacency operator with eigenvalue

    lambda(chi) = sum over s in S of chi(s).

Spectra are computed exclusively through these character sums (one DFT of
the indicator of S over the additive group, run axis by axis with exact
butterflies on length-2 axes), never with a numerical eigensolver; the
entrywise identity A chi = lambda(chi) chi that confirms them is a test
oracle. Around them: the epsilon-uniformity measure (exhaustive on tiny
rings, sampled or structured otherwise), the spectral floor lambda_2 / (8r),
the sufficient unit-density criterion, the residue-field necessary floor,
and the edge list streamed as text. S and the uniformity witnesses are
element sets, sorted read-only int64 arrays (`rings.element_set`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .budget import charge
from .characters import all_char_sums, character_group
from .combinatorics import forbidden_differences
from .errors import CharDividesDegree, ParseError, WorkGuardExceeded
from .polynomials import RingPoly, bound_parameters
from .rings import Ring, element_set, factorize

#: exhaustive uniformity sweeps iterate all 2^|R| subsets; 10 keeps the
#: sweep near a thousand set choices
EXHAUSTIVE_UNIFORMITY_CAP = 10


@dataclass
class PaleyGraph:
    ring: Ring
    d: int
    connection_set: np.ndarray
    r: int
    kernel_size: int
    pm_halving_factor: float
    minus_one_is_power: bool
    char_divides_degree: bool


def build_paley(ring: Ring, d: int) -> PaleyGraph:
    """Construct P(R, d). Allowed even when a prime factor p of char(R)
    divides d, but then the graph may be disconnected and verdicts are
    refused; the report carries the flag, `char_divides_degree`. The Weil
    bound behind the verdict holds for a polynomial of degree d over a
    field of characteristic p only when p does not divide d (Lidl &
    Niederreiter, *Finite Fields*, Thm 5.38), and every residue field of R
    has such a p as its characteristic."""
    if d < 2:
        raise ParseError("Paley construction needs d >= 2")
    all_powers = ring.pow_vec(np.arange(ring.order, dtype=np.int64), d)
    S = forbidden_differences(ring, all_powers)
    kernel = int((all_powers == ring.one).sum())
    minus_one = bool((all_powers == ring.neg(ring.one)).any())
    return PaleyGraph(
        ring=ring,
        d=d,
        connection_set=S,
        r=int(S.size),
        kernel_size=kernel,
        pm_halving_factor=0.5 if minus_one else 1.0,
        minus_one_is_power=minus_one,
        char_divides_degree=any(d % p == 0 for p, _ in factorize(ring.characteristic)),
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Kept in the ring's memo and shared by every caller on that ring, so
    frozen with read-only eigenvalues."""

    ring_spec: str
    d: int
    r: int
    eigenvalues: np.ndarray
    lambda2: float
    lambda2_witness: tuple[int, ...]
    epsilon_star: float
    imag_residue_max: float
    trace: float
    trace_squared: float


def spectrum(graph: PaleyGraph) -> SpectrumReport:
    """One eigenvalue per character: the character sums of the connection
    set's indicator, one DFT over (R, +) run axis by axis (`all_char_sums`).
    lambda2 takes the first maximizer in character enumeration order.
    Computed once per ring and d, and kept in the ring's memo."""
    return graph.ring.memo(("spectrum", graph.d), lambda: _spectrum(graph))


def _spectrum(graph: PaleyGraph) -> SpectrumReport:
    ring = graph.ring
    indicator = np.bincount(graph.connection_set, minlength=ring.order)
    evals_complex = all_char_sums(ring, indicator)
    imag_max = float(np.abs(evals_complex.imag).max())
    evals = evals_complex.real.copy()
    evals.flags.writeable = False
    moduli = np.abs(evals)
    idx = 1 + int(np.argmax(moduli[1:]))
    witness = tuple(character_group(ring).coeffs(idx).tolist())
    lambda2 = float(moduli[idx])
    return SpectrumReport(
        ring_spec=ring.spec_string(),
        d=graph.d,
        r=graph.r,
        eigenvalues=evals,
        lambda2=lambda2,
        lambda2_witness=witness,
        epsilon_star=lambda2 / (8 * graph.r) if graph.r else math.inf,
        imag_residue_max=imag_max,
        trace=float(evals.sum()),
        trace_squared=float((evals**2).sum()),
    )


def edge_lines(graph: PaleyGraph) -> Iterator[str]:
    """Every unordered edge once as a "u v" line with u < v, in
    lexicographic order, one vertex at a time: the neighbours of u are
    u + S, one `add_vec` per vertex, and the lines of a vertex are one
    str.join."""
    S = graph.connection_set
    for u in range(graph.ring.order):
        nbrs = np.sort(graph.ring.add_vec(u, S))
        vs = nbrs[nbrs > u].tolist()
        if vs:
            yield f"{u} " + f"\n{u} ".join(map(str, vs)) + "\n"


@dataclass
class UniformityReport:
    ring_spec: str
    d: int
    mode: str
    pairs_examined: int
    max_normalized_deviation: float
    epsilon_lower_bound: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    mixing_checked_pairs: int
    mixing_all_satisfied: bool
    mixing_worst_slack: float
    seed: int | None = None


def _pair_deviation(
    graph: PaleyGraph, deg_a: np.ndarray, a: np.ndarray, b: np.ndarray, lam2: float
) -> tuple[float, float]:
    """|N(A,B) - (r/|V|) |A||B|| for one pair, given deg_A, and its slack
    against the expander mixing certificate lambda2 sqrt(|A||B|) + 0.5."""
    n = graph.ring.order
    N = float(deg_a[b].sum())
    raw_dev = abs(N - graph.r * len(a) * len(b) / n)
    cert = lam2 * math.sqrt(len(a) * len(b)) + 0.5
    return raw_dev, raw_dev - cert


def uniformity_measure(
    graph: PaleyGraph,
    mode: str = "exhaustive",
    count: int = 200,
    seed: int = 0,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
) -> UniformityReport:
    """Lower bound for the best epsilon-uniformity parameter.

    The statistic per pair is |N(A,B) - (r/|V|) |A||B|| / (r |V|) with
    N(A,B) counting ordered adjacent pairs in A x B. Exhaustive mode
    (|R| <= 10) maximizes exactly: for each A the optimal B is a sign
    class of the centered degree vector, so only 2^|R| set choices are
    scanned. Sampled, structured and explicit modes report the maximum over
    the examined pairs only; each examined pair is also checked against the
    expander mixing certificate lambda2 sqrt(|A||B|) + 0.5. Explicit sets
    pass `element_set`: duplicates merge, and an entry that is not an
    integer element index is a ParseError.
    Sampled mode charges count x order against the work guard before it
    draws. Each deg_A(x) = #{s in S : x + s in A} is one exact
    `Ring.translate_counts` over S, reused across a structured A's pairs.
    """
    ring = graph.ring
    n = ring.order
    r = graph.r
    if r == 0:
        raise ParseError("uniformity is undefined for an empty connection set")
    best = -1.0
    best_a = best_b = []
    lam2 = spectrum(graph).lambda2
    used_seed: int | None = None

    if mode == "exhaustive":
        if n > EXHAUSTIVE_UNIFORMITY_CAP:
            raise WorkGuardExceeded(
                f"exhaustive uniformity is limited to order "
                f"{EXHAUSTIVE_UNIFORMITY_CAP}, ring has order {n}"
            )
        # All 2^n sets A at once, one row of bits each. The sums run over x
        # in order, as the scalar loop added them, and the first argmax is
        # the set that its strict > update kept.
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        # deg_A is linear in A; row y of the point masks' counts is deg_{y}.
        degrees = bits @ ring.translate_counts(np.eye(n, dtype=bool), graph.connection_set)
        centered = degrees - (r * bits.sum(axis=1) / n)[:, None]
        pos, neg = np.zeros(1 << n), np.zeros(1 << n)
        for c in centered.T:
            pos += np.where(c > 0, c, 0.0)
            neg -= np.where(c < 0, c, 0.0)
        devs = np.where(neg > pos, neg, pos)
        i = int(np.argmax(devs))
        pairs_examined, best = 1 << n, float(devs[i]) / (r * n)
        best_a = np.flatnonzero(bits[i])
        best_b = np.flatnonzero((1 if pos[i] >= neg[i] else -1) * centered[i] > 0)
        _, mixing_worst = _pair_deviation(graph, degrees[i], best_a, best_b, lam2)
    else:
        if mode == "sampled":
            charge(count * n, f"sampling {count} pairs of order {n}")
            rng = np.random.default_rng(seed)
            used_seed = seed
            pair_list = []
            for _ in range(count):
                a = np.flatnonzero(rng.integers(0, 2, n))
                b = np.flatnonzero(rng.integers(0, 2, n))
                pair_list.append((a, b))
        elif mode == "structured":
            families = [
                np.arange(0),
                np.arange(1),
                np.append(0, graph.connection_set),
                np.arange(n // 2),
                np.arange(n),
            ]
            pair_list = [(a, b) for a in families for b in families]
        elif mode == "explicit":
            if pairs is None:
                raise ParseError("explicit mode needs set pairs")
            pair_list = [(element_set(ring, a), element_set(ring, b)) for a, b in pairs]
        else:
            raise ParseError(f"unknown uniformity mode {mode!r}")
        pairs_examined, mixing_worst = len(pair_list), -math.inf
        last_a = None
        for a, b in pair_list:
            if a is not last_a:  # structured pairs come grouped by A
                a01 = np.bincount(a, minlength=n)
                last_a, deg_a = a, ring.translate_counts(a01, graph.connection_set)
            raw_dev, slack = _pair_deviation(graph, deg_a, a, b, lam2)
            dev = raw_dev / (r * n)
            if dev > best:
                best, best_a, best_b = dev, a, b
            mixing_worst = max(mixing_worst, slack)

    return UniformityReport(
        ring_spec=ring.spec_string(),
        d=graph.d,
        mode=mode,
        pairs_examined=pairs_examined,
        max_normalized_deviation=float(best),
        epsilon_lower_bound=float(best),
        witness_a=element_set(ring, best_a),
        witness_b=element_set(ring, best_b),
        mixing_checked_pairs=1 if mode == "exhaustive" else pairs_examined,
        mixing_all_satisfied=mixing_worst <= 0,
        mixing_worst_slack=float(mixing_worst),
        seed=used_seed,
    )


@dataclass
class QuasirandomnessVerdict:
    ring_spec: str
    d: int
    k: int
    k_certified: bool
    fallback_reason: str | None
    b_const: int
    unit_density: float
    sufficient_epsilon: float | None
    bad_prime_sizes: list[int]
    necessary_epsilon_floor: float | None
    spectral_epsilon_floor: float
    lambda2: float
    r: int
    notes: list[str] = field(default_factory=list)


def quasirandomness_verdict(graph: PaleyGraph) -> QuasirandomnessVerdict:
    """Three epsilon thresholds for P(R, d), refused with CharDividesDegree
    when a prime factor of char(R) divides d, where the Weil bound behind
    them does not hold (`build_paley`).

    sufficient_epsilon: unit density u = |R^x|/|R| forces epsilon-uniformity
    for every epsilon > 3 d B(d, char) (k-1) (1-u)^(1/2^(k-1)), with k the
    derivational degree of x^d. None when k < 2 (the criterion needs k - 1
    positive).

    necessary_epsilon_floor: any residue field F_q where the plus-minus
    d-th powers miss an element, which gcd(d, (q-1) / gcd(2, q-1)) > 1
    decides, forces epsilon >= sqrt((d-1) / (64 d^2 q)).

    spectral_epsilon_floor: lambda2 / (8r); epsilon-uniformity for smaller
    epsilon would contradict the eigenvalue bound.

    The d + 1 coefficients of x^d are charged against the work guard
    before they are built.
    """
    if graph.char_divides_degree:
        raise CharDividesDegree(
            f"a prime factor of the characteristic {graph.ring.characteristic} divides d = {graph.d}; "
            "the graph may be disconnected and no verdict is asserted"
        )
    ring = graph.ring
    d = graph.d
    charge(d + 1, f"building the {d + 1} coefficients of x^{d}")
    monomial = RingPoly.make(ring, (0,) * d + (ring.one,))
    bp = bound_parameters(ring, monomial)
    k = bp.k
    u = ring.units_count() / ring.order
    notes = []
    if k >= 2:
        sufficient = 3 * d * bp.b * (k - 1) * (1 - u) ** (2.0 ** (1 - k))
    else:
        sufficient = None
        notes.append(
            "x^d has derivational degree below 2; the unit-density "
            "criterion does not apply"
        )
    if not bp.certified:
        notes.append("derivational degree is an uncertified upper bound")

    bad_sizes = []
    for size, _ in ring.prime_ideal_profile():
        # F_q^* is cyclic (Lidl & Niederreiter, Thm 2.8): its d-th powers
        # are the subgroup of index gcd(d, q - 1), and with -1 that of index
        # gcd(d, (q - 1) / 2) when q is odd; F_q is covered when it is 1.
        if math.gcd(d, (size - 1) // math.gcd(2, size - 1)) == 1:
            continue
        if size == ring.order:
            # the zero ideal of a field: its residue field is the ring
            # itself, where Weil-bound behavior takes over and no fiber
            # structure persists, so it is left out of the census
            notes.append(
                "plus-minus d-th powers do not cover the field itself; "
                "zero-ideal residue field excluded from the bad-prime census"
            )
        else:
            bad_sizes.append(size)
    if bad_sizes:
        necessary = max(
            math.sqrt((d - 1) / (64 * d * d * q)) for q in bad_sizes
        )
    else:
        necessary = None
    spec_report = spectrum(graph)
    return QuasirandomnessVerdict(
        ring_spec=ring.spec_string(),
        d=d,
        k=k,
        k_certified=bp.certified,
        fallback_reason=bp.fallback_reason,
        b_const=bp.b,
        unit_density=u,
        sufficient_epsilon=None if sufficient is None else float(sufficient),
        bad_prime_sizes=sorted(bad_sizes),
        necessary_epsilon_floor=None if necessary is None else float(necessary),
        spectral_epsilon_floor=spec_report.epsilon_star,
        lambda2=spec_report.lambda2,
        r=graph.r,
        notes=notes,
    )
