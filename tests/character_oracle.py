"""The naive character route, kept as an oracle for `ringlab.characters`.

chi_s(x) = exp(2 pi i sum_i d_i(x) s_i / m_i), with the digits d_i(x) from
`Ring.digits` and the coefficient tuples s in lexicographic order, first
coefficient most significant. The angle is summed exactly in fractions and
turned into a complex number once; nothing here reads the library's unit
table or its common modulus L.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def coeff_tuples(ring) -> list[tuple[int, ...]]:
    """Every coefficient tuple, in character enumeration order."""
    return list(itertools.product(*(range(m) for m in ring.additive_orders())))


def chi(ring, s, x: int) -> complex:
    radices = ring.additive_orders()
    theta = sum(Fraction(d * c, m) for d, c, m in zip(ring.digits(x), s, radices)) % 1
    return cmath.exp(2j * math.pi * float(theta))


def table(ring, chars=None) -> np.ndarray:
    """chi_j(x), rows x over every element, columns j over the positions."""
    tuples = coeff_tuples(ring)
    chars = range(ring.order) if chars is None else chars
    return np.array(
        [[chi(ring, tuples[j], x) for j in chars] for x in range(ring.order)],
        dtype=complex,
    ).reshape(ring.order, len(chars))
