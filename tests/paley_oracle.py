"""Paley graph routines that no subcommand reaches, kept as oracles for
`ringlab.paley`.

`edges` yields the edge pairs that `edge_lines` prints as text,
`adjacency_matrix` is the dense 0/1 adjacency of a small graph, and
`eigenvector_identity_error` confirms the spectrum entrywise: every
character is an eigenvector of that matrix, with the eigenvalue that
`spectrum` reports for it. `residue_census` decides by
brute force what the verdict decides by a gcd rule: which residue fields
the plus-minus d-th powers fail to cover.
"""

import numpy as np

from ringlab.characters import character_table
from ringlab.paley import spectrum
from ringlab.rings import make_ring


def edges(graph):
    """Every unordered edge once as (u, v) with u < v, in lexicographic
    order, one vertex at a time: the neighbours of u are u + S."""
    ring = graph.ring
    S = np.asarray(graph.connection_set, dtype=np.int64)
    for u in range(ring.order):
        for v in sorted(ring.add_vec(u, S).tolist()):
            if v > u:
                yield u, v


def adjacency_matrix(graph) -> np.ndarray:
    """Dense 0/1 adjacency: x ~ x + s for s in S, one add_vec per s."""
    ring = graph.ring
    xs = np.arange(ring.order)
    A = np.zeros((ring.order, ring.order), dtype=np.int64)
    for s in graph.connection_set:
        A[xs, ring.add_vec(xs, s)] = 1
    return A


def eigenvector_identity_error(graph) -> float:
    """max over characters chi and points x of |(A chi)(x) - lambda(chi)
    chi(x)|; exact spectral confirmation with no eigensolver."""
    A = adjacency_matrix(graph)
    table = character_table(graph.ring)
    evals = spectrum(graph).eigenvalues
    return float(np.abs(A @ table - table * evals[None, :]).max())


def residue_census(ring, d):
    """(q, covered) per entry of the ring's prime ideal profile: whether
    {x^d} union {-x^d} is all of GF(q), raised and negated element by
    element. GF(q) stands for the residue field, since every field of
    order q is isomorphic to it."""
    out = []
    for q, _ in ring.prime_ideal_profile():
        field = make_ring(f"GF({q})")
        hit = set()
        for x in range(q):
            power = int(field.pow_vec(x, d))
            hit.update((power, field.neg(power)))
        out.append((q, len(hit) == q))
    return out
