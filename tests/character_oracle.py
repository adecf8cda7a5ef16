"""The naive character route, kept as an oracle for `ringlab.characters`.

chi_s(x) = exp(2 pi i sum_i d_i(x) s_i / m_i), with the digits d_i(x) from
`Ring.digits` and the coefficient tuples s in lexicographic order, first
coefficient most significant. The angle is summed exactly in fractions and
turned into a complex number once; nothing here but `char_sum` reads the
library's unit table or its common modulus L.

`angles` is the digit route that the library's outer sums replaced: every
element decoded into its digits and multiplied, as one matrix product, with
every character's coefficients. It shares no arithmetic with `_angle_cube`,
the rule behind `character_table` and `annihilator_mask`.

`char_sum` is the angle-histogram route that the transform replaced: the
exact angles of one character over a multiset, from `angles`, counted in an
integer histogram, with one complex evaluation per angle class. It shares
no arithmetic with the DFT of `all_char_sums`.

`fftn_char_sums` and `fftn_convolve` are the numpy route that the library's
axis-by-axis transform replaced: one `np.fft.fftn`/`ifftn` call over the
library's element cube. The transform must equal them bit for bit.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from ringlab.characters import _element_cube, character_group
from ringlab.rings import digits_of


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


def angles(ring, elements, chars=None) -> np.ndarray:
    """Exact angles mod L of chi_j(x), rows x over the elements, columns j
    over the character positions (every character by default); one position
    gives a vector over the elements."""
    group = character_group(ring)
    if chars is None:
        chars = np.arange(ring.order)
    D = digits_of(elements, group.radices)
    return (D * group.coord_weights) @ group.coeffs(chars).T % group.L


def char_sum(ring, position: int, values) -> complex:
    """Sum of the character at this position over a multiset of ring
    elements, through an exact angle histogram."""
    group = character_group(ring)
    values = np.asarray(list(values), dtype=np.int64)
    if values.size == 0:
        return 0j
    hist = np.bincount(angles(ring, values, position), minlength=group.L)
    return complex(hist @ group.unit_table)


def fftn_char_sums(ring, w) -> np.ndarray:
    """all_char_sums through numpy's ifftn, in enumeration order."""
    cube, axes = _element_cube(ring, w)
    sums = np.fft.ifftn(cube, axes=axes) * ring.order
    perm = tuple(range(axes[0])) + axes[::-1]
    return sums.transpose(perm).reshape(cube.shape[:axes[0]] + (ring.order,))


def fftn_convolve(ring, fs, mu) -> np.ndarray:
    """convolve through numpy's fftn and ifftn."""
    cube, axes = _element_cube(ring, fs)
    mu_hat = np.fft.ifftn(np.asarray(mu).reshape(cube.shape[axes[0]:])) * ring.order
    g = np.fft.ifftn(np.fft.fftn(cube, axes=axes) * mu_hat, axes=axes)
    return g.reshape(np.shape(fs))
