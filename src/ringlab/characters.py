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

All angle arithmetic is exact: angles live in Z/L with L = lcm(m_i), and a
complex exponential is evaluated only once per angle class. An angle
separates by axis, so over a cube of digits it is an outer sum
(`_angle_cube`), built by runs of consecutive axes whose radices multiply
to at most RUN_SIZE: each run's angles summed on a small block, then one
broadcast per run over the cube. `character_table` reads the unit table at
the cube, and `annihilator_mask` compares it with 0.
`SubgroupSet.annihilator` takes that mask for every subgroup H but R
itself, whose annihilator is the trivial character by duality; the tests
hold both answers against the mask on H's generators. The sums over every
character (`all_char_sums`) are one DFT over (R, +), and so is every
convolution with a measure on (R, +) (`convolve`): numpy's fftn, run axis by
axis by `_dft`, with an exact butterfly on each length-2 axis: three
numpy passes over a (rows, 2, rest) view, four on the inverse. The tests
keep the angle-histogram sum of one character, the transform's independent
check.

A CharacterGroup is a light view on its ring; its unit table is built once,
kept read-only in the ring's memo (`Ring.memo`) and freed with the ring.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .budget import blocks
from .rings import Ring, digits_of, join_index


class CharacterGroup:
    """The full dual of (R, +): characters by position, and the unit table
    of their exact angles."""

    def __init__(self, ring: Ring):
        self.ring = ring
        radices = ring.additive_orders()
        self.radices = radices
        self.L = math.lcm(*radices)
        self.coord_weights = tuple(self.L // m for m in radices)
        L = self.L
        self.unit_table = ring.memo("unit_table", lambda: np.exp(2j * np.pi * np.arange(L) / L))

    def coeffs(self, positions) -> np.ndarray:
        """Coefficient tuples of the characters at these positions, shape
        positions.shape + (k,), first coefficient most significant."""
        return digits_of(positions, self.radices[::-1])[..., ::-1]

    def position(self, coeffs: Sequence[int]) -> int:
        """Position of the character with these coefficients, each reduced
        mod its radix; ValueError unless there is exactly one per radix."""
        if len(coeffs) != len(self.radices):
            raise ValueError(
                f"expected {len(self.radices)} coefficients, got {len(coeffs)}"
            )
        return join_index(coeffs[::-1], self.radices[::-1])


#: largest product of radices in one run of axes of `_angle_cube`: 32 to
#: 128 time alike; one run per axis is 30-50% slower at order 2^20
RUN_SIZE = 64


def _runs(radices: Sequence[int]) -> list[slice]:
    """radices cut into runs of consecutive axes, the last run first: each
    run as long as its product stays within RUN_SIZE, an axis above it a run
    by itself."""
    runs, stop = [], len(radices)
    while stop > 0:
        start, size = stop - 1, radices[stop - 1]
        while start > 0 and size * radices[start - 1] <= RUN_SIZE:
            start -= 1
            size *= radices[start]
        runs.append(slice(start, stop))
        stop = start
    return runs


def _outer_sum(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """a[:, i] + b[:, j] at column i len(b[0]) + j, in one broadcast whose
    inner loop runs along b; a itself when there is no b yet."""
    if b is None:
        return a
    return (a[:, :, None] + b[:, None, :]).reshape(len(a), a.shape[1] * b.shape[1])


def _angle_cube(steps: np.ndarray, radices: Sequence[int], L: int) -> np.ndarray:
    """sum_i steps[:, i] j_i mod L over every j < radices, first radix slowest,
    shape (len(steps), prod(radices)), reduced once: each term is below L m_i.
    Each run of axes (`_runs`) is summed axis by axis on its own (rows x run)
    block, and each block joins the cube in one outer sum, so the passes over
    the whole cube grow with the runs, not the axes. Axes and blocks go in
    front, last first, so each broadcast runs along the longer operand."""
    cube = None
    for run in _runs(radices):
        block = None
        for i in reversed(range(run.start, run.stop)):
            block = _outer_sum(steps[:, i, None] * np.arange(radices[i]), block)
        cube = _outer_sum(block, cube)
    if L & (L - 1) == 0:  # the low bits, as % reads these sums, without a division
        return np.bitwise_and(cube, L - 1, out=cube)
    return np.remainder(cube, L, out=cube)


def character_group(ring: Ring) -> CharacterGroup:
    """The dual of (R, +). A new view on each call, so that the ring's memo
    holds no reference back to the ring; its arrays come from the memo."""
    return CharacterGroup(ring)


def _element_cube(ring: Ring, w: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """w of shape (..., order) as the element cube (..., m_k, ..., m_1) and
    the cube's axes: the first digit is least significant in the element
    index, so in C order the axes come out last digit first."""
    w = np.asarray(w)
    radices = ring.additive_orders()
    axes = tuple(range(w.ndim - 1, w.ndim - 1 + len(radices)))
    return w.reshape(w.shape[:-1] + radices[::-1]), axes


def _dft(cube: np.ndarray, axes: tuple[int, ...], inverse: bool = False) -> np.ndarray:
    """np.fft.fftn(cube, axes=axes), or ifftn, bit for bit on int, float64 and
    complex128 data: axis by axis in fftn's order (last first), a length-2
    axis an in-place butterfly (a + b, a - b) on a (rows, 2, rest) view of a
    C-ordered copy, halved on the inverse, real while the data are; any
    other one 1-D pocketfft call. Never writes cube."""
    fft, given = (np.fft.ifft if inverse else np.fft.fft), cube
    for axis in reversed(axes):
        if cube.shape[axis] != 2:
            cube = fft(cube, axis=axis)
            continue
        if cube is given or not cube.flags.c_contiguous:
            cube = cube.astype(np.result_type(cube, float), order="C")
        halves = cube.reshape(math.prod(cube.shape[:axis]), 2, math.prod(cube.shape[axis + 1:]))
        a, b = halves[:, 0], halves[:, 1]
        d = a - b
        a += b
        b[...] = d
        if inverse:
            # part by part on the float64 view, as pocketfft: a complex
            # product gives (-0.0 - 1j) * (0.5 + 0j) = 0.0 - 0.5j
            parts = cube.view(np.float64)
            parts *= 0.5
    return cube.astype(complex, copy=False)


def all_char_sums(ring: Ring, w: np.ndarray) -> np.ndarray:
    """sum_x w[..., x] chi(x) for every character, in enumeration order: one
    DFT over (R, +) of each row of the (integer, real or complex) weights,
    shape (..., order). The transform (`_dft`) runs on the element cube,
    whose axes are then reversed into enumeration order."""
    cube, axes = _element_cube(ring, w)
    sums = _dft(cube, axes, inverse=True) * ring.order
    perm = tuple(range(axes[0])) + axes[::-1]
    return sums.transpose(perm).reshape(cube.shape[:axes[0]] + (ring.order,))


def convolve(ring: Ring, fs: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """g(x) = sum_v mu(v) f(x + v) for every x and every row f of fs, shape
    (..., order). The DFT of g is the DFT of f times sum_v mu(v) e(k.v),
    which carries the opposite sign to the DFT: a correlation, not a
    convolution in the strict sense. No character order is involved."""
    cube, axes = _element_cube(ring, fs)
    mu_hat = _dft(*_element_cube(ring, mu), inverse=True) * ring.order
    g = _dft(_dft(cube, axes) * mu_hat, axes, inverse=True)
    return g.reshape(np.shape(fs))


def character_table(ring: Ring, chars: np.ndarray | None = None) -> np.ndarray:
    """Complex matrix of chi_j(x), rows x over every element, columns j over
    the given character positions (every character by default) in
    enumeration order. The full table is n x n, for rings of modest order.
    Elements run last digit slowest, so the cube's axes go in reversed."""
    group = character_group(ring)
    chars = np.arange(ring.order) if chars is None else chars
    steps = group.coeffs(chars)[:, ::-1] * group.coord_weights[::-1]
    return group.unit_table[_angle_cube(steps, group.radices[::-1], group.L).T]


def annihilator_mask(ring: Ring, generators: np.ndarray) -> np.ndarray:
    """Boolean mask over the character enumeration: True where the character
    kills every generator. Exact: a character kills x iff its angle is 0."""
    group = character_group(ring)
    steps = digits_of(generators, group.radices) * group.coord_weights
    mask = np.ones(ring.order, dtype=bool)
    for block in blocks(len(steps), ring.order):
        mask &= (_angle_cube(steps[block], group.radices, group.L) == 0).all(axis=0)
    return mask
