"""Paley graph routines that no subcommand reaches, kept as oracles for
`ringlab.paley`.

`edges` yields the edge pairs that `edge_lines` prints as text, and
`eigenvector_identity_error` confirms the spectrum entrywise: every
character is an eigenvector of the dense adjacency matrix, with the
eigenvalue that `spectrum` reports for it.
"""

import numpy as np

from ringlab.characters import character_table
from ringlab.paley import adjacency_matrix, spectrum


def edges(graph):
    """Every unordered edge once as (u, v) with u < v, in lexicographic
    order, one vertex at a time: the neighbours of u are u + S."""
    ring = graph.ring
    S = np.asarray(graph.connection_set, dtype=np.int64)
    for u in range(ring.order):
        for v in sorted(ring.add_vec(u, S).tolist()):
            if v > u:
                yield u, v


def eigenvector_identity_error(graph) -> float:
    """max over characters chi and points x of |(A chi)(x) - lambda(chi)
    chi(x)|; exact spectral confirmation with no eigensolver."""
    A = adjacency_matrix(graph)
    table = character_table(graph.ring)
    evals = spectrum(graph).eigenvalues
    return float(np.abs(A @ table - table * evals[None, :]).max())
