"""Additive characters of a finite ring's underlying abelian group.

The additive group is a direct sum of cyclic groups Z/m_1 + ... + Z/m_k, so
every character is determined by a coefficient tuple (s_1, ..., s_k) with
s_i mod m_i, acting by

    chi(x) = e( sum_i s_i c_i(x) / m_i ),   e(theta) = exp(2 pi i theta),

where c_i(x) are the mixed-radix coordinates of x. A character is named by
its position in the enumeration: positions run over the coefficient tuples
in lexicographic order, first coefficient most significant, so the trivial
character is position 0. `CharacterGroup.coeffs` decodes a position and
`CharacterGroup.position` encodes a tuple.

All angle arithmetic is exact: angles live in Z/L with L = lcm(m_i), and
`CharacterGroup.angles` is the one route to them; a complex exponential is
evaluated only once per angle class. `char_sum` goes through an integer
histogram of angles, `character_table` is the independent route, whole for
modest orders or a few columns for sampled checks, and `annihilator_mask`
compares angles with 0. The sums over every character (`all_char_sums`) are
one multidimensional DFT over (R, +), and so is every convolution with a
measure on (R, +) (`convolve`).

A CharacterGroup is a light view on its ring; its unit table is built once,
kept read-only in the ring's memo (`Ring.memo`) and freed with the ring.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .rings import Ring


class CharacterGroup:
    """The full dual of (R, +): characters by position, and their exact
    angles."""

    def __init__(self, ring: Ring):
        self.ring = ring
        radices = ring.additive_orders()
        self.radices = radices
        self.L = math.lcm(*radices)
        self.coord_weights = tuple(self.L // m for m in radices)
        L = self.L
        self.unit_table = ring.memo("unit_table", lambda: np.exp(2j * np.pi * np.arange(L) / L))
        self.count = ring.order

    def coeffs(self, positions) -> np.ndarray:
        """Coefficient tuples of the characters at these positions, shape
        positions.shape + (k,), first coefficient most significant."""
        rest = np.asarray(positions, dtype=np.int64)
        out = np.empty(rest.shape + (len(self.radices),), dtype=np.int64)
        for i in reversed(range(len(self.radices))):
            rest, out[..., i] = np.divmod(rest, self.radices[i])
        return out

    def position(self, coeffs: Sequence[int]) -> int:
        """Position of the character with these coefficients, each reduced
        mod its radix; ValueError unless there is exactly one per radix."""
        if len(coeffs) != len(self.radices):
            raise ValueError(
                f"expected {len(self.radices)} coefficients, got {len(coeffs)}"
            )
        position = 0
        for s, m in zip(coeffs, self.radices):
            position = position * m + int(s) % m
        return position

    def angles(self, elements, chars=None) -> np.ndarray:
        """Exact angles mod L of chi_j(x), rows x over the elements, columns
        j over the character positions (every character by default); one
        position gives a vector over the elements."""
        if chars is None:
            chars = np.arange(self.count)
        D = self.ring._digits_of(np.asarray(elements, dtype=np.int64))
        return (D * self.coord_weights) @ self.coeffs(chars).T % self.L


def character_group(ring: Ring) -> CharacterGroup:
    """The dual of (R, +). A new view on each call, so that the ring's memo
    holds no reference back to the ring; its arrays come from the memo."""
    return CharacterGroup(ring)


def char_sum(ring: Ring, position: int, values: Iterable[int]) -> complex:
    """Sum of the character at this position over a multiset of ring
    elements, via an exact angle histogram followed by one complex
    evaluation per angle class."""
    group = character_group(ring)
    values_arr = np.asarray(list(values), dtype=np.int64)
    if values_arr.size == 0:
        return 0j
    hist = np.bincount(group.angles(values_arr, position), minlength=group.L)
    return complex(hist @ group.unit_table)


def _element_cube(ring: Ring, w: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """w of shape (..., order) as the element cube (..., m_k, ..., m_1) and
    the cube's axes: the first digit is least significant in the element
    index, so in C order the axes come out last digit first."""
    w = np.asarray(w)
    radices = ring.additive_orders()
    axes = tuple(range(w.ndim - 1, w.ndim - 1 + len(radices)))
    return w.reshape(w.shape[:-1] + radices[::-1]), axes


def all_char_sums(ring: Ring, w: np.ndarray) -> np.ndarray:
    """sum_x w[..., x] chi(x) for every character, in enumeration order: one
    DFT over (R, +) of each row of the (real or complex) weights, shape
    (..., order). The transform runs on the element cube, whose axes are
    then reversed into enumeration order."""
    cube, axes = _element_cube(ring, w)
    sums = np.fft.ifftn(cube, axes=axes) * ring.order
    perm = tuple(range(axes[0])) + axes[::-1]
    return sums.transpose(perm).reshape(cube.shape[:axes[0]] + (ring.order,))


def convolve(ring: Ring, fs: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """g(x) = sum_v mu(v) f(x + v) for every x and every row f of fs, shape
    (..., order). The DFT of g is the DFT of f times sum_v mu(v) e(k.v),
    which carries the opposite sign to the DFT: a correlation, not a
    convolution in the strict sense. No character order is involved."""
    cube, axes = _element_cube(ring, fs)
    mu_hat = np.fft.ifftn(np.asarray(mu).reshape(cube.shape[axes[0]:])) * ring.order
    g = np.fft.ifftn(np.fft.fftn(cube, axes=axes) * mu_hat, axes=axes)
    return g.reshape(np.shape(fs))


def character_table(ring: Ring, chars: np.ndarray | None = None) -> np.ndarray:
    """Complex matrix of chi_j(x), rows x over every element, columns j over
    the given character positions (every character by default) in
    enumeration order. The full table is n x n, for rings of modest order."""
    group = character_group(ring)
    return group.unit_table[group.angles(np.arange(ring.order), chars)]


def annihilator_mask(ring: Ring, generators: Sequence[int]) -> np.ndarray:
    """Boolean mask over the character enumeration: True where the character
    kills every generator. Exact: a character kills x iff its angle is 0."""
    angles = character_group(ring).angles(np.asarray(list(generators), dtype=np.int64))
    return (angles == 0).all(axis=0)
