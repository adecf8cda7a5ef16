"""The two n^2 routes to the left side of the total ergodicity estimate that
the transform routes in `te_estimate` replaced, kept as a test oracle:

* `direct_lhs` averages the translates f(x + v) with the value weights of P
  and over the coset H + P(0), one shift at a time, with no transform;
* `parseval_lhs` sums |f_hat(chi)|^2 |S(chi, P)|^2 over the characters that
  do not annihilate H, f_hat and S taken against the full character table.

Both take a batch of functions, shape (count, order), and return one left
side per function. Intended for orders up to about 2^10.
"""

import numpy as np

from ringlab.characters import annihilator_mask, character_table
from ringlab.subgroups import value_subgroup


def _poly_data(ring, P):
    values = P.values()
    shift = int(values[0])
    H = value_subgroup(ring, P, subtract_constant=True)
    return values, shift, H


def direct_lhs(ring, P, fs):
    n = ring.order
    fs = np.atleast_2d(np.asarray(fs, dtype=np.complex128))
    values, shift, H = _poly_data(ring, P)
    w = np.bincount(values, minlength=n) / n
    poly_avg = np.zeros(fs.shape, dtype=np.complex128)
    for v, row in ring.translates(np.flatnonzero(w)):
        poly_avg += w[v] * fs[:, row]
    coset = H.coset(shift)
    coset_avg = np.zeros(fs.shape, dtype=np.complex128)
    for _, row in ring.translates(coset):
        coset_avg += fs[:, row]
    coset_avg /= len(coset)
    return np.sqrt(np.mean(np.abs(poly_avg - coset_avg) ** 2, axis=1))


def parseval_lhs(ring, P, fs):
    n = ring.order
    fs = np.atleast_2d(np.asarray(fs, dtype=np.complex128))
    values, shift, H = _poly_data(ring, P)
    recentred = ring.sub_vec(values, shift)
    table = character_table(ring)
    S = np.bincount(recentred, minlength=n) @ table / n
    f_hats = fs @ np.conj(table) / n
    weight = (np.abs(S) ** 2) * ~annihilator_mask(ring, H.generators)
    return np.sqrt((np.abs(f_hats) ** 2) @ weight)
