"""The scalar routes that `paley.uniformity_measure` and
`combinatorics.config_count` replaced with whole-array passes, kept as a
test oracle:

* `uniformity_report` is the old measure for the exhaustive, structured and
  explicit modes: the exhaustive sweep is a Python loop over the 2^n
  subsets A as bitmasks with n popcounts each, and deg_A is gathered one
  translate row at a time, once per examined pair;
* `config_count` counts #{(x, y) : x in A, x + P(y) in B} one translate
  row at a time.

Intended for orders up to 10 (exhaustive) and about 2^10 (the others).
"""

import math

import numpy as np

from ringlab.combinatorics import adjacency_masks
from ringlab.errors import ParseError
from ringlab.paley import UniformityReport, spectrum
from ringlab.rings import element_set


def degrees_into(graph, a01):
    """deg_A(x) = #{a in A : x ~ a} for every x, one row at a time."""
    xs = np.arange(graph.ring.order)
    out = np.zeros(graph.ring.order)
    for s in graph.connection_set:
        out += a01[graph.ring.add_vec(xs, s)]
    return out


def pair_deviation(graph, a, b, lam2):
    n = graph.ring.order
    a01 = np.zeros(n)
    if a:
        a01[np.asarray(a, dtype=np.int64)] = 1.0
    deg_a = degrees_into(graph, a01)
    N = float(deg_a[np.asarray(b, dtype=np.int64)].sum()) if b else 0.0
    raw_dev = abs(N - graph.r * len(a) * len(b) / n)
    cert = lam2 * math.sqrt(len(a) * len(b)) + 0.5
    return raw_dev, raw_dev - cert


def uniformity_report(graph, mode, pairs=None):
    ring = graph.ring
    n = ring.order
    r = graph.r
    if r == 0:
        raise ParseError("uniformity is undefined for an empty connection set")
    best = -1.0
    best_a, best_b = [], []
    lam2 = spectrum(graph).lambda2
    if mode == "exhaustive":
        nbr = adjacency_masks(ring, graph.connection_set)
        pairs_examined = 0
        for amask in range(1 << n):
            size_a = amask.bit_count()
            centered = [(nbr[x] & amask).bit_count() - r * size_a / n for x in range(n)]
            pos = sum(c for c in centered if c > 0)
            neg = -sum(c for c in centered if c < 0)
            dev = max(pos, neg)
            pairs_examined += 1
            if dev > best:
                best = dev
                best_a = [v for v in range(n) if amask >> v & 1]
                sign = 1 if pos >= neg else -1
                best_b = [x for x in range(n) if sign * centered[x] > 0]
        best /= r * n
        _, mixing_worst = pair_deviation(graph, best_a, best_b, lam2)
        mixing_checked = 1
        mixing_ok = mixing_worst <= 0
    else:
        if mode == "structured":
            families = [[], [0], sorted({0, *graph.connection_set}), list(range(n // 2)),
                        list(range(n))]
            pair_list = [(a, b) for a in families for b in families]
        else:
            pair_list = [[element_set(ring, s).tolist() for s in pair] for pair in pairs]
        pairs_examined = len(pair_list)
        mixing_checked, mixing_ok, mixing_worst = 0, True, -math.inf
        for a, b in pair_list:
            raw_dev, slack = pair_deviation(graph, a, b, lam2)
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
        seed=None,
    )


def config_count(ring, P, A, B):
    n = ring.order
    mult = np.bincount(P.values(), minlength=n)
    a01 = np.zeros(n, dtype=np.int64)
    a01[element_set(ring, A)] = 1
    b01 = np.zeros(n, dtype=np.int64)
    b01[element_set(ring, B)] = 1
    count = 0
    for v in np.flatnonzero(mult):
        count += int(mult[v]) * int(a01 @ b01[ring.add_vec(np.arange(n), v)])
    return count
