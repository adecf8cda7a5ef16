"""Paley-type Cayley graphs and their quasirandomness certificates.

P(R, d) joins x and y when x - y or y - x is a d-th power. The connection
set S = ({x^d} union {-x^d}) minus {0} is symmetric, so the graph is
r-regular with r = |S|, and every additive character chi is an eigenvector
of the adjacency operator with eigenvalue

    lambda(chi) = sum over s in S of chi(s).

Spectra are computed exclusively through these character sums (one DFT of
the indicator of S over the additive group), never with a numerical
eigensolver. Around them: the epsilon-uniformity measure (exhaustive on
tiny rings, sampled or structured otherwise), the spectral floor
lambda_2 / (8r), the sufficient unit-density criterion, and the
residue-field necessary floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .budget import charge
from .characters import all_char_sums, character_group
from .combinatorics import _element_set
from .errors import CharDividesDegree, ParseError, WorkGuardExceeded
from .polynomials import RingPoly, bound_parameters, derivational_degree
from .rings import Ring, distinct

#: exhaustive uniformity sweeps iterate all 2^|R| subsets; 10 keeps the
#: sweep near a thousand set choices
EXHAUSTIVE_UNIFORMITY_CAP = 10
_EIGENVECTOR_CHECK_CAP = 64


@dataclass
class PaleyGraph:
    ring: Ring
    d: int
    connection_set: tuple[int, ...]
    r: int
    kernel_size: int
    pm_halving_factor: float
    minus_one_is_power: bool
    char_divides_degree: bool

    def spec_dict(self) -> dict:
        return {
            "ring_spec": self.ring.spec_string(),
            "d": self.d,
            "connection_set": list(self.connection_set),
            "r": self.r,
            "kernel_size": self.kernel_size,
            "pm_halving_factor": self.pm_halving_factor,
            "minus_one_is_power": self.minus_one_is_power,
            "char_divides_degree": self.char_divides_degree,
        }


def build_paley(ring: Ring, d: int) -> PaleyGraph:
    """Construct P(R, d). Allowed even when char(R) divides d, but then the
    graph may be disconnected and verdicts are refused; the report carries
    the flag."""
    if d < 2:
        raise ParseError("Paley construction needs d >= 2")
    all_powers, powers, pm = _power_sets(ring, d)
    S = pm[pm != 0]
    kernel = int((all_powers == ring.one).sum())
    minus_one = bool((powers == ring.neg(ring.one)).any())
    return PaleyGraph(
        ring=ring,
        d=d,
        connection_set=tuple(int(s) for s in S),
        r=int(S.size),
        kernel_size=kernel,
        pm_halving_factor=0.5 if minus_one else 1.0,
        minus_one_is_power=minus_one,
        char_divides_degree=ring.characteristic % d == 0,
    )


def _power_sets(ring: Ring, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^d for every x in index order, the sorted distinct d-th powers, and
    the sorted plus-minus d-th powers {x^d} union {-x^d}."""
    all_powers = ring.pow_vec(np.arange(ring.order, dtype=np.int64), d)
    powers = distinct(all_powers)
    return all_powers, powers, distinct(powers, ring.neg_vec(powers))


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

    def to_dict(self) -> dict:
        return {
            "ring_spec": self.ring_spec,
            "d": self.d,
            "r": self.r,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "lambda2": self.lambda2,
            "lambda2_witness": list(self.lambda2_witness),
            "epsilon_star": self.epsilon_star,
            "imag_residue_max": self.imag_residue_max,
            "trace": self.trace,
            "trace_squared": self.trace_squared,
        }


def spectrum(graph: PaleyGraph) -> SpectrumReport:
    """One eigenvalue per character: the character sums of the connection
    set's indicator, one DFT over (R, +). lambda2 takes the first maximizer
    in character enumeration order. Computed once per ring and d, and kept
    in the ring's memo."""
    return graph.ring.memo(("spectrum", graph.d), lambda: _spectrum(graph))


def _spectrum(graph: PaleyGraph) -> SpectrumReport:
    ring = graph.ring
    indicator = np.bincount(graph.connection_set, minlength=ring.order)
    evals_complex = all_char_sums(ring, indicator)
    imag_max = float(np.abs(evals_complex.imag).max())
    evals = evals_complex.real
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


def adjacency_matrix(graph: PaleyGraph) -> np.ndarray:
    """Dense 0/1 adjacency, for the eigenvector identity on small rings."""
    ring = graph.ring
    n = ring.order
    if n > _EIGENVECTOR_CHECK_CAP:
        raise WorkGuardExceeded(
            f"dense adjacency is limited to order {_EIGENVECTOR_CHECK_CAP}"
        )
    A = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for _, row in ring.translates(graph.connection_set):
        A[idx, row] = 1
    return A


def eigenvector_identity_error(graph: PaleyGraph) -> float:
    """max over characters chi and points x of |(A chi)(x) - lambda(chi)
    chi(x)|; exact spectral confirmation with no eigensolver."""
    from .characters import character_table

    A = adjacency_matrix(graph)
    table = character_table(graph.ring)
    evals = spectrum(graph).eigenvalues
    return float(np.abs(A @ table - table * evals[None, :]).max())


def _upper_neighbours(graph: PaleyGraph) -> Iterator[tuple[int, list[int]]]:
    """(u, sorted neighbours v > u) for every vertex u in order: the
    neighbours of u are u + S, one `add_vec` per vertex."""
    ring = graph.ring
    S = np.asarray(graph.connection_set, dtype=np.int64)
    for u in range(ring.order):
        nbrs = np.sort(ring.add_vec(u, S))
        yield u, nbrs[nbrs > u].tolist()


def edges(graph: PaleyGraph) -> Iterator[tuple[int, int]]:
    """Every unordered edge once as (u, v) with u < v, in lexicographic
    order, one vertex at a time."""
    for u, vs in _upper_neighbours(graph):
        for v in vs:
            yield u, v


def edge_lines(graph: PaleyGraph) -> Iterator[str]:
    """The edges of `edges` as text, one "u v" line each: one string per
    vertex, its neighbours formatted by a single str.join."""
    for u, vs in _upper_neighbours(graph):
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
    witness_a: list[int]
    witness_b: list[int]
    mixing_checked_pairs: int
    mixing_all_satisfied: bool
    mixing_worst_slack: float
    seed: int | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _degrees_into(graph: PaleyGraph, a: list[int]) -> np.ndarray:
    """deg_A(x) = #{a in A : x ~ a} for every x, one gather per block of
    translates; sums of 0/1 values, exact in any order."""
    ring = graph.ring
    a01 = np.zeros(ring.order)
    a01[np.asarray(a, dtype=np.int64)] = 1.0
    out = np.zeros(ring.order)
    for _, table in ring.translate_blocks(graph.connection_set):
        out += a01[table].sum(axis=0)
    return out


def _pair_deviation(
    graph: PaleyGraph, deg_a: np.ndarray, a: list[int], b: list[int], lam2: float
) -> tuple[float, float]:
    """|N(A,B) - (r/|V|) |A||B|| for one pair, given deg_A, and its slack
    against the expander mixing certificate lambda2 sqrt(|A||B|) + 0.5."""
    n = graph.ring.order
    N = float(deg_a[np.asarray(b, dtype=np.int64)].sum()) if b else 0.0
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
    follow the element-set rule: duplicates merge, a bad index is a ParseError.
    Sampled mode charges count x order against the work guard before it
    draws.
    """
    ring = graph.ring
    n = ring.order
    r = graph.r
    if r == 0:
        raise ParseError("uniformity is undefined for an empty connection set")
    best = -1.0
    best_a: list[int] = []
    best_b: list[int] = []
    lam2 = spectrum(graph).lambda2
    used_seed: int | None = None

    if mode == "exhaustive":
        if n > EXHAUSTIVE_UNIFORMITY_CAP:
            raise WorkGuardExceeded(
                f"exhaustive uniformity is limited to order "
                f"{EXHAUSTIVE_UNIFORMITY_CAP}, ring has order {n}"
            )
        # All 2^n sets A at once: row A of bits @ adjacency is deg_A. The sums
        # run over x in order, as the scalar loop added them, and the first
        # argmax is the set that its strict > update kept.
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        centered = bits @ adjacency_matrix(graph) - (r * bits.sum(axis=1) / n)[:, None]
        pos, neg = np.zeros(1 << n), np.zeros(1 << n)
        for c in centered.T:
            pos += np.where(c > 0, c, 0.0)
            neg -= np.where(c < 0, c, 0.0)
        devs = np.where(neg > pos, neg, pos)
        i = int(np.argmax(devs))
        pairs_examined, best = 1 << n, float(devs[i]) / (r * n)
        best_a = np.flatnonzero(bits[i]).tolist()
        best_b = np.flatnonzero((1 if pos[i] >= neg[i] else -1) * centered[i] > 0).tolist()
        deg_a = _degrees_into(graph, best_a)
        _, mixing_worst = _pair_deviation(graph, deg_a, best_a, best_b, lam2)
        mixing_checked = 1
        mixing_ok = mixing_worst <= 0
    else:
        if mode == "sampled":
            charge(count * n, f"sampling {count} pairs of order {n}")
            rng = np.random.default_rng(seed)
            used_seed = seed
            pair_list = []
            for _ in range(count):
                a = np.flatnonzero(rng.integers(0, 2, n)).tolist()
                b = np.flatnonzero(rng.integers(0, 2, n)).tolist()
                pair_list.append((a, b))
        elif mode == "structured":
            families = [
                [],
                [0],
                sorted({0, *graph.connection_set}),
                list(range(n // 2)),
                list(range(n)),
            ]
            pair_list = [(a, b) for a in families for b in families]
        elif mode == "explicit":
            if pairs is None:
                raise ParseError("explicit mode needs set pairs")
            pair_list = [[_element_set(ring, s).tolist() for s in pair] for pair in pairs]
        else:
            raise ParseError(f"unknown uniformity mode {mode!r}")
        pairs_examined = len(pair_list)
        mixing_checked, mixing_ok, mixing_worst = 0, True, -math.inf
        last_a = None
        for a, b in pair_list:
            if a != last_a:  # structured pairs come grouped by A
                last_a, deg_a = a, _degrees_into(graph, a)
            raw_dev, slack = _pair_deviation(graph, deg_a, a, b, lam2)
            dev = raw_dev / (r * n)
            if dev > best:
                best = dev
                best_a, best_b = sorted(a), sorted(b)
            mixing_checked += 1
            mixing_worst = max(mixing_worst, slack)
            if slack > 0:
                mixing_ok = False

    return UniformityReport(
        ring_spec=ring.spec_string(),
        d=graph.d,
        mode=mode,
        pairs_examined=pairs_examined,
        max_normalized_deviation=float(best),
        epsilon_lower_bound=float(best),
        witness_a=best_a,
        witness_b=best_b,
        mixing_checked_pairs=mixing_checked,
        mixing_all_satisfied=mixing_ok,
        mixing_worst_slack=float(mixing_worst),
        seed=used_seed,
    )


@dataclass
class QuasirandomnessVerdict:
    ring_spec: str
    d: int
    k: int
    k_certified: bool
    b_const: int
    unit_density: float
    sufficient_epsilon: float | None
    bad_prime_sizes: list[int]
    necessary_epsilon_floor: float | None
    spectral_epsilon_floor: float
    lambda2: float
    r: int
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def quasirandomness_verdict(graph: PaleyGraph) -> QuasirandomnessVerdict:
    """Three epsilon thresholds for P(R, d).

    sufficient_epsilon: unit density u = |R^x|/|R| forces epsilon-uniformity
    for every epsilon > 3 d B(d, char) (k-1) (1-u)^(1/2^(k-1)), with k the
    derivational degree of x^d. None when k < 2 (the criterion needs k - 1
    positive).

    necessary_epsilon_floor: any residue field where the plus-minus d-th
    powers miss an element forces epsilon >= sqrt((d-1) / (64 d^2 q)).

    spectral_epsilon_floor: lambda2 / (8r); epsilon-uniformity for smaller
    epsilon would contradict the eigenvalue bound.

    The d + 1 coefficients of x^d are charged against the work guard
    before they are built.
    """
    if graph.char_divides_degree:
        raise CharDividesDegree(
            f"characteristic {graph.ring.characteristic} divides d = {graph.d}; "
            "the graph may be disconnected and no verdict is asserted"
        )
    ring = graph.ring
    d = graph.d
    charge(d + 1, f"building the {d + 1} coefficients of x^{d}")
    monomial = RingPoly.make(ring, (0,) * d + (ring.one,))
    dres = derivational_degree(ring, monomial)
    bp = bound_parameters(ring, d, dres)
    k = bp.k
    B = bp.b
    u = ring.units_count() / ring.order
    notes = []
    if k >= 2:
        sufficient = 3 * d * B * (k - 1) * (1 - u) ** (2.0 ** (1 - k))
    else:
        sufficient = None
        notes.append(
            "x^d has derivational degree below 2; the unit-density "
            "criterion does not apply"
        )
    if not bp.certified:
        notes.append("derivational degree is an uncertified upper bound")

    bad_sizes = []
    for size, fld in ring.residue_fields():
        if _power_sets(fld, d)[2].size == fld.order:
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
        b_const=B,
        unit_density=u,
        sufficient_epsilon=None if sufficient is None else float(sufficient),
        bad_prime_sizes=sorted(bad_sizes),
        necessary_epsilon_floor=None if necessary is None else float(necessary),
        spectral_epsilon_floor=spec_report.epsilon_star,
        lambda2=spec_report.lambda2,
        r=graph.r,
        notes=notes,
    )
