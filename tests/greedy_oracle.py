"""The translate greedy that the level-by-level search in
`combinatorics._greedy_independent_set` replaced, kept as a test oracle.

Each pick lowers the degrees of its translates v + D at once and the tie
list is filtered against the top degree after every pick, so a level with
t ties costs O(t) per pick: quadratic in |R| when D is small. It makes the
same seeded draws in the same order, so `translate_greedy(ring, D, seed)`
returns the same boolean mask, at orders past the bitmask oracle's reach.
"""

import numpy as np


def translate_greedy(ring, D, seed):
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
