"""The direct route to the right side of the van der Corput inequality that
the coset sums in `vdc_check` replaced, kept as a test oracle.

`direct_rhs` walks all |H|^k translates: each level averages
g(u + v) conj g(u) over v in H, one translate row at a time, and the last
level averages over u. It takes a batch of functions, shape (count, order),
and returns the complex right side per function, whose imaginary part is
rounding only. Intended for |H|^k x order up to about 2^16.
"""

import numpy as np


def direct_rhs(ring, H, fs, k):
    fs = np.atleast_2d(np.asarray(fs, dtype=np.complex128))
    perms = ring.add_table(H.elements)

    def level(g, depth):
        if depth == 0:
            return g.mean(axis=-1)
        acc = np.zeros(g.shape[0], dtype=np.complex128)
        for perm in perms:
            acc += level(g[:, perm] * np.conj(g), depth - 1)
        return acc / len(perms)

    return level(fs, k)
