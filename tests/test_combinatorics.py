"""Configuration counts, difference-free sets, the size bound, and the
intersectivity oracle. The maximum-set sizes asserted here were frozen
after brute-force sweeps over every subset (see the oracle tests below,
which repeat that enumeration for rings small enough to afford it).

The greedy search walks the Cayley graph through translates and the exact
search skips the root's exclude branch; both are checked against the
bitmask versions they replaced, kept here as oracles. The intersectivity
oracle runs one level-batched Hensel climb for Z and F_p[t]; it is checked
against the two scalar climbs it replaced, kept in hensel_oracle.py, and its
prime sieve against trial division.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hensel_oracle import _integer_prime_analysis, reference_verdict
from test_polynomials import ORACLE_RINGS

from ringlab import hensel
from ringlab.errors import HypothesisUnmet, ParseError, WorkGuardExceeded
from ringlab.combinatorics import (
    _clique_cover_bound,
    _greedy_independent_set,
    _witness_has_no_root,
    _max_independent_set,
    adjacency_masks,
    config_count,
    config_count_fourier,
    difference_free_max,
    forbidden_differences,
    intersectivity_oracle,
    sarkozy_bound_check,
    verify_difference_free,
)
from ringlab.hensel import _IntegerLevels, _irreducibles, _sweep
from ringlab.polynomials import RingPoly
from ringlab.rings import PolyQuotientRing, ZModRing, _monic_polys, make_ring, poly_is_irreducible


def test_config_count_full_sets():
    ring = make_ring("Z/12")
    P = RingPoly.make(ring, (0, 0, 1))
    every = list(range(ring.order))
    rep = config_count(ring, P, every, every)
    assert rep.count == ring.order**2
    assert rep.expectation == pytest.approx(ring.order**2)
    assert rep.deviation == pytest.approx(0.0, abs=1e-9)


def test_config_count_empty_set():
    ring = make_ring("Z/12")
    P = RingPoly.make(ring, (0, 0, 1))
    rep = config_count(ring, P, [], [0, 1, 2])
    assert rep.count == 0


def test_config_count_manual():
    """Hand count on Z/5, P = x^2: pairs (x, y) with x in A and
    x + y^2 in B."""
    ring = make_ring("Z/5")
    P = RingPoly.make(ring, (0, 0, 1))
    A, B = [0, 1], [1, 2]
    want = sum(
        1 for x in A for y in range(5) if ring.add(x, P.evaluate(y)) in set(B)
    )
    rep = config_count(ring, P, A, B)
    assert rep.count == want
    assert rep.size_a == 2 and rep.size_b == 2


def test_config_count_fourier_route():
    """The exact count and the character-sum reconstruction agree to well
    under the integer spacing."""
    rng = np.random.default_rng(31)
    for spec in ("Z/12", "GF(16)", "GR(3,2,2)", "prod(Z/4;GF(4))"):
        ring = make_ring(spec)
        P = RingPoly.make(ring, (1, 2, 1))
        n = ring.order
        for _ in range(5):
            A = [int(x) for x in np.flatnonzero(rng.integers(0, 2, n))]
            B = [int(x) for x in np.flatnonzero(rng.integers(0, 2, n))]
            rep = config_count(ring, P, A, B)
            approx = config_count_fourier(ring, P, A, B)
            assert abs(rep.count - approx) < 0.5, spec


def test_forbidden_differences_excludes_zero():
    ring = make_ring("Z/13")
    P = RingPoly.make(ring, (0, 0, 1))
    D = forbidden_differences(ring, P)
    assert 0 not in D
    values = {int(v) for v in P.values()}
    for d in D:
        assert d in values or ring.neg(d) in values


@pytest.mark.parametrize(
    "spec,size",
    [("Z/5", 2), ("Z/13", 3), ("PQ(q=2;g=0,0,1)", 2)],
)
def test_difference_free_frozen_sizes(spec, size):
    ring = make_ring(spec)
    P = RingPoly.make(ring, (0, 0, 1))
    rep = difference_free_max(ring, P, mode="exact")
    assert rep.size == size
    assert rep.verified
    assert len(rep.witness) == size


def brute_force_max_free(ring, P):
    """Every subset, pairwise-checked. Only for tiny rings."""
    n = ring.order
    D = set(forbidden_differences(ring, P))
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        ok = all(
            ring.sub(a, b) not in D for a in members for b in members if a != b
        )
        if ok:
            best = mask.bit_count()
    return best


@pytest.mark.parametrize("spec", ["Z/5", "Z/8", "Z/13", "PQ(q=2;g=0,0,1)", "GF(9)"])
def test_exact_search_matches_brute_force(spec):
    ring = make_ring(spec)
    P = RingPoly.make(ring, (0, 0, 1))
    rep = difference_free_max(ring, P, mode="exact")
    assert rep.size == brute_force_max_free(ring, P)


def test_witnesses_pass_independent_scan():
    for spec in ("Z/13", "Z/16", "GF(25)", "GR(2,2,2)"):
        ring = make_ring(spec)
        P = RingPoly.make(ring, (0, 0, 1))
        rep = difference_free_max(ring, P, mode="exact")
        assert verify_difference_free(ring, P, rep.witness)
        assert rep.verified


@pytest.mark.parametrize(
    "spec", ["Z/13", "GF(9)", "GR(2,2,2)", "PQ(q=2;g=0,0,1)", "prod(Z/4;GF(4))"]
)
def test_verify_difference_free_refuses_a_value_difference(spec):
    """The scan agrees with the scalar pair loop: a witness with b - a a
    nonzero value of P added, in either order, fails it, and repeating an
    element is no difference."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, (0, 0, ring.one))
    values = set(P.values().tolist())

    def pair_scan(elems):
        return not any(a != b and ring.sub(b, a) in values for a in elems for b in elems)

    witness = difference_free_max(ring, P, mode="exact").witness
    v = max(values)
    bad = witness + [ring.add(witness[0], v)]
    assert v != 0 and not pair_scan(bad) and pair_scan(witness)
    assert verify_difference_free(ring, P, witness)
    assert not verify_difference_free(ring, P, bad)
    assert not verify_difference_free(ring, P, bad[::-1])
    assert verify_difference_free(ring, P, [witness[0]] * 3)
    assert verify_difference_free(ring, P, [])
    rng = np.random.default_rng(4)
    for size in range(2, min(6, ring.order + 1)):
        elems = rng.choice(ring.order, size=size, replace=False).tolist()
        assert verify_difference_free(ring, P, elems) == pair_scan(elems)


def greedy_oracle(adj, seed):
    """The bitmask greedy: strip highest-degree vertices first (seeded
    tie-break over the ascending tie list), then add back in reverse order
    when still independent. Returns (size, mask)."""
    n = len(adj)
    rng = np.random.default_rng(seed)
    degrees = [adj[v].bit_count() for v in range(n)]
    alive = [True] * n
    removal = []
    live_adj = list(adj)
    for _ in range(n):
        max_deg = max(d for v, d in enumerate(degrees) if alive[v])
        ties = [v for v in range(n) if alive[v] and degrees[v] == max_deg]
        v = int(ties[rng.integers(len(ties))])
        removal.append(v)
        alive[v] = False
        rest = live_adj[v]
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if alive[u]:
                degrees[u] -= 1
                live_adj[u] &= ~(1 << v)
    mask = 0
    for v in reversed(removal):
        if not (adj[v] & mask):
            mask |= 1 << v
    return mask.bit_count(), mask


def uncut_search_oracle(adj):
    """Branch and bound over both branches of every vertex, the root's
    included. Returns (size, mask)."""
    best_size = 0
    best_mask = 0

    def expand(cand, size, mask):
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

    expand((1 << len(adj)) - 1, 0, 0)
    return best_size, best_mask


def _assert_greedy_matches_oracle(ring, P, seed):
    D = forbidden_differences(ring, P)
    rep = difference_free_max(ring, P, mode="greedy", seed=seed)
    if D.size == 0:
        assert rep.witness == list(range(ring.order))
        return
    size, mask = greedy_oracle(adjacency_masks(ring, D), seed)
    assert rep.size == size
    assert rep.witness == [v for v in range(ring.order) if mask >> v & 1]
    assert rep.verified


@pytest.mark.parametrize("family", sorted(ORACLE_RINGS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_greedy_and_root_cut_match_bitmask_oracles(family, data):
    ring = make_ring(data.draw(st.sampled_from(ORACLE_RINGS[family]), label="ring"))
    coeffs = data.draw(
        st.lists(st.integers(0, ring.order - 1), min_size=2, max_size=5),
        label="coeffs",
    )
    seed = data.draw(st.integers(0, 2**32), label="seed")
    P = RingPoly.make(ring, coeffs)
    _assert_greedy_matches_oracle(ring, P, seed)
    D = forbidden_differences(ring, P)
    if D.size:
        adj = adjacency_masks(ring, D)
        assert _max_independent_set(adj) == uncut_search_oracle(adj)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "spec, coeffs",
    [
        ("Z/512", (0, 0, 1)),
        ("Z/1024", (0, 0, 1)),
        ("GF(1024)", (0, 0, 0, 1)),
        ("GR(2,2,5)", (0, 0, 1)),
    ],
)
def test_greedy_matches_oracle_at_order_1024(spec, coeffs, seed):
    ring = make_ring(spec)
    _assert_greedy_matches_oracle(ring, RingPoly.make(ring, coeffs), seed)


@pytest.mark.parametrize(
    "spec, coeffs",
    [("Z/97", (0, 0, 1)), ("GF(27)", (0, 1, 1)), ("PQ(q=4;g=0,0,1)", (0, 0, 1)),
     ("prod(Z/4;GF(4))", (0, 0, 1)), ("GR(2,2,3)", (0, 0, 0, 1))],
)
def test_greedy_witness_is_maximal(spec, coeffs):
    """Every vertex outside the witness has a neighbour inside it, so no
    element can be added without creating a forbidden difference."""
    ring = make_ring(spec)
    P = RingPoly.make(ring, coeffs)
    D = forbidden_differences(ring, P)
    chosen = _greedy_independent_set(ring, D, seed=5)
    for v in np.flatnonzero(~chosen):
        assert chosen[ring.add_vec(v, D)].any(), v
    assert not any(chosen[ring.add_vec(v, D)].any() for v in np.flatnonzero(chosen))


def test_greedy_never_beats_exact():
    for seed in range(5):
        ring = make_ring("Z/13")
        P = RingPoly.make(ring, (0, 0, 1))
        exact = difference_free_max(ring, P, mode="exact")
        greedy = difference_free_max(ring, P, mode="greedy", seed=seed)
        assert greedy.size <= exact.size
        assert verify_difference_free(ring, P, greedy.witness)


def test_greedy_seed_recorded():
    ring = make_ring("Z/29")
    P = RingPoly.make(ring, (0, 0, 1))
    rep = difference_free_max(ring, P, mode="greedy", seed=7)
    assert rep.seed == 7
    assert rep.mode == "greedy"


def test_exact_mode_capped():
    ring = make_ring("Z/100")
    P = RingPoly.make(ring, (0, 0, 1))
    with pytest.raises(WorkGuardExceeded):
        difference_free_max(ring, P, mode="exact")


def test_zero_polynomial_frees_everything():
    """P identically zero forbids nothing, so the whole ring qualifies."""
    ring = make_ring("Z/6")
    P = RingPoly.make(ring, (0,))
    rep = difference_free_max(ring, P, mode="exact")
    assert rep.size == 6


def test_product_size_monotonicity():
    """A difference-free set survives the embedding into a product with a
    second factor, so the maximum cannot drop."""
    P5 = RingPoly.make(make_ring("Z/5"), (0, 0, 1))
    base = difference_free_max(make_ring("Z/5"), P5, mode="exact")
    prod_ring = make_ring("prod(Z/5;Z/4)")
    Pp = RingPoly.make(prod_ring, (0, 0, prod_ring.one))
    lifted = difference_free_max(prod_ring, Pp, mode="exact")
    assert lifted.size >= base.size


def test_sarkozy_bound_frozen_z5():
    ring = make_ring("Z/5")
    P = RingPoly.make(ring, (0, 0, 1))
    rep = sarkozy_bound_check(ring, P, 2)
    assert rep.hypothesis == "root"
    assert rep.constant_c == pytest.approx(1.0)
    assert rep.bound == pytest.approx(5**0.5 + 2, abs=1e-9)
    assert rep.satisfied


def test_sarkozy_bound_frozen_z13():
    ring = make_ring("Z/13")
    P = RingPoly.make(ring, (0, 0, 1))
    rep = sarkozy_bound_check(ring, P, 3)
    assert rep.bound == pytest.approx(13**0.5 + 2, abs=1e-9)
    assert rep.satisfied


def test_sarkozy_constant_in_subgroup_route():
    """x^2 + 1 over Z/8 has no root, but 1 lies in the value subgroup, so
    the bound still applies via the recentred polynomial."""
    ring = make_ring("Z/8")
    P = RingPoly.make(ring, (1, 0, 1))
    rep = sarkozy_bound_check(ring, P, 2)
    assert rep.hypothesis == "constant-in-subgroup"
    assert rep.bound == pytest.approx(8 / 2**0.5 + 8, abs=1e-9)


def test_sarkozy_hypothesis_unmet():
    """x^2 + t over the dual numbers: no root and the constant escapes the
    value subgroup, so the theorem does not speak."""
    ring = make_ring("PQ(q=2;g=0,0,1)")
    t = ring.from_digits((0, 1))
    P = RingPoly.make(ring, (t, 0, 1))
    with pytest.raises(HypothesisUnmet):
        sarkozy_bound_check(ring, P, 1)


def test_sarkozy_rejects_constant_polynomial():
    ring = make_ring("Z/8")
    with pytest.raises(HypothesisUnmet):
        sarkozy_bound_check(ring, RingPoly.make(ring, (3,)), 1)


def test_intersective_x2_minus_1():
    v = intersectivity_oracle("INTEGERS", [-1, 0, 1], 30)
    assert v.status == "INTERSECTIVE_UP_TO_BOUND"
    assert v.unresolved == []
    assert v.moduli_resolved > 0


def test_intersective_x2_minus_2_witness():
    """No root mod 3; the minimum over all witnesses is 3 even though the
    prime 2 also fails (at modulus 4)."""
    v = intersectivity_oracle("INTEGERS", [-2, 0, 1], 30)
    assert v.status == "WITNESS_FOUND"
    assert v.witness == {"prime": 3, "exponent": 1, "modulus": 3}
    assert v.witness_verified


def test_intersective_x2_minus_3_witness_at_prime_power():
    """x^2 - 3 has roots mod 2, 3, 5 but none mod 4: a witness only
    visible above level one, through the singular root at 2."""
    v = intersectivity_oracle("INTEGERS", [-3, 0, 1], 30)
    assert v.status == "WITNESS_FOUND"
    assert v.witness == {"prime": 2, "exponent": 2, "modulus": 4}
    assert v.witness_verified


def test_intersective_witness_reverified_independently():
    v = intersectivity_oracle("INTEGERS", [-2, 0, 1], 50)
    assert v.witness_verified
    m = v.witness["modulus"]
    assert all(pow(x, 2, m) != 2 % m for x in range(m))


def test_intersective_linear_always_passes():
    v = intersectivity_oracle("INTEGERS", [4, 1], 40)
    assert v.status == "INTERSECTIVE_UP_TO_BOUND"
    assert v.unresolved == []


def test_intersective_fpt_linear():
    """x + 1 over F_3[t]: the constant root -1 settles every modulus."""
    v = intersectivity_oracle("FPT(3)", [1, 1], 4)
    assert v.status == "INTERSECTIVE_UP_TO_BOUND"
    assert v.p == 3
    assert v.unresolved == []


def test_intersective_fpt_witness():
    """y^2 + y + 1 has no root in F_2, so the degree-one modulus t is
    already a witness."""
    v = intersectivity_oracle("FPT(2)", [1, 1, 1], 4)
    assert v.status == "WITNESS_FOUND"
    assert v.witness["g"] == [0, 1]
    assert v.witness["exponent"] == 1
    assert v.witness_verified


def test_intersective_fpt_integer_encoding():
    """Integer coefficients embed by base-p digits: 2 becomes t in F_2[t].
    y^2 + t has no root mod t^2 (squares there are 0 and 1), so the level-2
    modulus is a witness."""
    v = intersectivity_oracle("FPT(2)", [2, 0, 1], 3)
    assert v.family == "FPT"
    assert v.p == 2
    assert v.poly[0] == [0, 1]
    assert v.status == "WITNESS_FOUND"
    assert v.witness == {"g": [0, 1], "exponent": 2, "quotient_order": 4}
    assert v.witness_verified


def test_intersective_rejects_constant():
    with pytest.raises(Exception):
        intersectivity_oracle("INTEGERS", [5], 10)


def test_intersective_rejects_unknown_family():
    with pytest.raises(Exception):
        intersectivity_oracle("RATIONALS", [0, 1], 10)


@pytest.mark.parametrize("family", ["FPT", "FPT()", "FPT(x)", "FPT(4)", "FPT(5"])
def test_intersective_fpt_needs_a_prime(family):
    with pytest.raises(ParseError):
        intersectivity_oracle(family, [1, 1], 2)


@pytest.mark.parametrize(
    "family, coeffs, bound",
    [
        ("INTEGERS", [-4352, 0, 1], 40),
        ("FPT(3)", [-162, 0, 1], 2),
        ("INTEGERS", [-162, 0, 1], 5),
    ],
)
def test_intersective_capped_cases_match_oracle(family, coeffs, bound):
    """Each leaves a prime unresolved at the B^2 cap and still finds a
    witness elsewhere. x^2 - 162 with bound 5 stops at 9 = 3^2, since
    27 > 5^2: its roots 0, 3, 6 mod 9 are all singular."""
    v = intersectivity_oracle(family, coeffs, bound)
    assert v.unresolved and v.status == "WITNESS_FOUND"
    assert v.to_dict() == reference_verdict(family, coeffs, bound)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.integers(-5000, 5000), min_size=2, max_size=4),
    bound=st.integers(1, 40),
)
@example(coeffs=[-1, 0, 1], bound=40)
@example(coeffs=[0, 0, 1], bound=40)
@example(coeffs=[-2, 0, 1], bound=40)
@example(coeffs=[1, 1, 1], bound=40)
@example(coeffs=[-4, 0, 0, 1], bound=40)
def test_intersective_integers_match_oracle(coeffs, bound):
    try:
        want = reference_verdict("INTEGERS", coeffs, bound)
    except ParseError:
        with pytest.raises(ParseError):
            intersectivity_oracle("INTEGERS", coeffs, bound)
        return
    assert intersectivity_oracle("INTEGERS", coeffs, bound).to_dict() == want


@st.composite
def fpt_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]), label="p")
    bound = draw(st.integers(1, {2: 4, 3: 3, 5: 2}[p]), label="bound")
    coeffs = draw(st.lists(st.integers(-300, 300), min_size=2, max_size=4), label="coeffs")
    return p, coeffs, bound


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=fpt_cases())
@example(case=(5, [0, 1, 1], 3))
@example(case=(3, [1, 0, 1], 4))
@example(case=(2, [0, 0, 1], 6))
def test_intersective_fpt_match_oracle(case):
    p, coeffs, bound = case
    family = f"FPT({p})"
    try:
        want = reference_verdict(family, coeffs, bound)
    except ParseError:
        with pytest.raises(ParseError):
            intersectivity_oracle(family, coeffs, bound)
        return
    assert intersectivity_oracle(family, coeffs, bound).to_dict() == want


CLIMB_CASES = [
    ("INTEGERS", [-1, 0, 1], 40),
    ("INTEGERS", [-3, 0, 1], 30),
    ("INTEGERS", [-162, 0, 1], 5),
    ("INTEGERS", [-4352, 0, 1], 40),
    ("FPT(2)", [1, 1, 1], 4),
    ("FPT(2)", [0, 0, 1], 5),
    ("FPT(3)", [-162, 0, 1], 2),
    ("FPT(3)", [1, 0, 1], 3),
    ("FPT(5)", [0, 1, 1], 2),
    ("FPT(5)", [2, 0, 1], 2),
]


def test_intersective_verdicts_do_not_depend_on_blocks(monkeypatch):
    """A block of a few entries splits every level into many blocks, often
    of one candidate; the verdicts stay those of the default block."""
    want = [intersectivity_oracle(*case).to_dict() for case in CLIMB_CASES]
    monkeypatch.setattr(hensel, "_CLIMB_BLOCK", 7)
    assert [intersectivity_oracle(*case).to_dict() for case in CLIMB_CASES] == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_sieve_matches_trial_division(p):
    F = ZModRing(p)
    top = {2: 6, 3: 6, 5: 5}[p]
    sieved = [[tuple(g) + (1,) for g in rows.tolist()] for rows in _irreducibles(p, top)]
    trial = [[g for g in _monic_polys(F, e) if poly_is_irreducible(g, F)] for e in range(1, top + 1)]
    assert sieved == trial


def test_integer_climb_switches_to_object_integers():
    """At the prime q = 65537 the level-2 modulus q^2 squared overflows
    int64. P = (x - x0)(x - x0 - q) with x0 = q^2 - 1 has the double root
    q - 1 mod q, which does not settle at level 1, and the exact root x0
    among its lifts mod q^2. Horner on x0 mod q^2 multiplies two residues
    near q^2, so int64 would lose x0 and leave q capped."""
    q = 65537
    x0 = q * q - 1
    P = [x0 * (x0 + q), -(2 * x0 + q), 1]
    levels = _IntegerLevels(P, [q], q)
    assert levels.dtype is object
    assert _sweep(P, levels, q) == (None, 1, [])
    assert _integer_prime_analysis(P, P[1:2] + [2], q, q * q) == ("resolved", 2)


@pytest.mark.parametrize(
    "family, coeffs, bound, cap",
    [("INTEGERS", [-2, 0, 1], 30, 30**2), ("FPT(2)", [2, 0, 1], 3, (2**3) ** 2)],
)
def test_intersective_charges_the_norm_cap_squared(family, coeffs, bound, cap, monkeypatch):
    """Before any prime is enumerated the climb charges B^2 against the work
    guard in both families; B^2 also covers the witness re-check, which
    scans N(pi^j) <= B^2 elements."""
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(cap))
    assert intersectivity_oracle(family, coeffs, bound).witness_verified
    monkeypatch.setenv("RINGLAB_WORK_GUARD", str(cap - 1))
    with pytest.raises(WorkGuardExceeded):
        intersectivity_oracle(family, coeffs, bound)


def test_witness_recheck_sees_a_root():
    """x^2 + 1 has no root mod 4 but x^2 + 3 does (x = 1); over F_2[t] mod
    t^2, y^2 + t has none and y^2 + 1 has y = 1 (t is index 2 there)."""
    z4 = ZModRing(4)
    assert _witness_has_no_root(z4, [1, 0, 1])
    assert not _witness_has_no_root(z4, [3, 0, 1])
    q = PolyQuotientRing(ZModRing(2), (0, 0, 1))
    assert _witness_has_no_root(q, [2, 0, 1])
    assert not _witness_has_no_root(q, [1, 0, 1])
