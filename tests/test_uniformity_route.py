"""The whole-array uniformity sweeps and configuration count against the
scalar routes they replaced (`uniformity_oracle`): exact report equality on
every ring of order at most 10 that the five constructors build (up to the
choice of defining polynomial), and exact counts up to order 1024.
"""

import numpy as np
import pytest

import uniformity_oracle
from poly_oracle import from_int_coeffs

from ringlab.combinatorics import config_count
from ringlab.errors import ParseError
from ringlab.paley import build_paley, uniformity_measure
from ringlab.rings import make_ring

SMALL_RINGS = (
    [f"Z/{n}" for n in range(2, 11)]
    + [f"GF({q})" for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["GR(2,2,1)", "GR(2,3,1)", "GR(3,2,1)"]
    + ["PQ(q=2;g=0,0,1)", "PQ(q=2;g=0,1,1)", "PQ(q=2;g=0,0,0,1)", "PQ(q=2;g=0,1,0,1)",
       "PQ(q=2;g=0,1,1,1)", "PQ(q=3;g=0,0,1)", "PQ(q=3;g=2,0,1)"]
    + ["prod(Z/2;Z/2)", "prod(Z/2;Z/3)", "prod(Z/2;Z/4)", "prod(Z/2;Z/5)", "prod(Z/3;Z/3)",
       "prod(Z/2;GF(4))", "prod(Z/2;Z/2;Z/2)"]
)


def _explicit_pairs(n, rng):
    """The empty set, a set with repeats, and two seeded random pairs."""

    def draw():
        return rng.integers(0, n, rng.integers(1, n + 1)).tolist()

    return [([], [0]), ([0, 0, n - 1], list(range(n))), ([n - 1], []),
            (draw(), draw()), (draw(), draw())]


@pytest.mark.parametrize("spec", SMALL_RINGS)
def test_uniformity_reports_equal_the_scalar_sweeps(spec):
    ring = make_ring(spec)
    rng = np.random.default_rng(ring.order)
    for d in range(2, 7):
        graph = build_paley(ring, d)
        pairs = _explicit_pairs(ring.order, rng)
        for mode in ("exhaustive", "structured", "explicit"):
            if graph.r == 0:
                with pytest.raises(ParseError):
                    uniformity_measure(graph, mode=mode, pairs=pairs)
                continue
            got = uniformity_measure(graph, mode=mode, pairs=pairs)
            want = uniformity_oracle.uniformity_report(graph, mode, pairs)
            witnesses = {"witness_a": got.witness_a.tolist(), "witness_b": got.witness_b.tolist()}
            assert {**vars(got), **witnesses} == vars(want), (spec, d, mode)


@pytest.mark.parametrize(
    "spec, coeffs",
    [("Z/7", (0, 0, 1)), ("GF(9)", (1, 0, 1)), ("prod(Z/2;Z/5)", (0, 1, 1)),
     ("PQ(q=4;g=0,0,1,1)", (0, 0, 0, 1)), ("Z/1024", (0, 0, 1))],
)
def test_config_count_equals_the_row_loop(spec, coeffs):
    ring = make_ring(spec)
    n = ring.order
    P = from_int_coeffs(ring, coeffs)
    rng = np.random.default_rng(n)
    sets = [[], [0], list(range(n)), rng.integers(0, n, n // 3).tolist(), [n - 1] * 3]
    for A in sets:
        for B in sets:
            got = config_count(ring, P, A, B).count
            assert got == uniformity_oracle.config_count(ring, P, A, B), (A, B)
