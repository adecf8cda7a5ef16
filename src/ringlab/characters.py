"""Additive characters of a finite ring's underlying abelian group.

The additive group is a direct sum of cyclic groups Z/m_1 + ... + Z/m_k, so
every character is determined by a coefficient tuple (s_1, ..., s_k) with
s_i mod m_i, acting by

    chi(x) = e( sum_i s_i c_i(x) / m_i ),   e(theta) = exp(2 pi i theta),

where c_i(x) are the mixed-radix coordinates of x. All angle arithmetic is
exact: angles live in Z/L with L = lcm(m_i), and a complex exponential is
evaluated only once per angle class: `char_sum` goes through an integer
histogram of angles. The sums over every character (`all_char_sums`) are
one multidimensional DFT over (R, +), and so is every convolution with a
measure on (R, +) (`convolve`); `character_table` is the independent route,
whole for modest orders or a few columns for sampled checks.

Characters are enumerated in lexicographic coefficient order, so the trivial
character always comes first. The coefficient tuples range over the same
coordinate system as the elements, which realises the self-duality of the
additive group: annihilators of subgroups can be read off exactly by integer
comparisons.

A CharacterGroup is a light view on its ring; its unit table and coefficient
matrix are built once, kept read-only in the ring's memo (`Ring.memo`) and
freed with the ring.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import WorkGuardExceeded
from .rings import Ring

_ANNIHILATOR_MAX_ORDER = 1 << 12


class Character:
    """A single additive character, identified by its coefficient tuple."""

    __slots__ = ("group", "coeffs", "index")

    def __init__(self, group: "CharacterGroup", coeffs: tuple[int, ...], index: int):
        self.group = group
        self.coeffs = coeffs
        self.index = index

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def angle(self, x: int) -> int:
        """Exact angle of chi(x) as an integer mod L."""
        g = self.group
        total = 0
        for d, s, w in zip(g.ring.digits(x), self.coeffs, g.coord_weights):
            total += d * s * w
        return total % g.L

    def value(self, x: int) -> complex:
        return complex(self.group.unit_table[self.angle(x)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Character)
            and self.group.ring == other.group.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.group.ring.spec_string(), self.coeffs))

    def __repr__(self) -> str:
        return f"<Character {self.coeffs} on {self.group.ring.spec_string()}>"


class CharacterGroup:
    """The full dual of (R, +), with vectorised angle computations."""

    def __init__(self, ring: Ring):
        self.ring = ring
        radices = ring.additive_orders()
        self.radices = radices
        self.L = math.lcm(*radices)
        self.coord_weights = tuple(self.L // m for m in radices)
        L = self.L
        self.unit_table = ring.memo("unit_table", lambda: np.exp(2j * np.pi * np.arange(L) / L))
        self.count = ring.order

    # -- enumeration ---------------------------------------------------------

    def coeff_matrix(self) -> np.ndarray:
        """Read-only (count x k) matrix of coefficient tuples in lexicographic
        order, kept in the ring's memo."""
        return self.ring.memo("coeff_matrix", self._build_coeff_matrix)

    def _build_coeff_matrix(self) -> np.ndarray:
        grids = np.meshgrid(
            *[np.arange(m, dtype=np.int64) for m in self.radices], indexing="ij"
        )
        return np.stack(grids, axis=-1).reshape(-1, len(self.radices))

    def char_at(self, position: int) -> Character:
        coeffs = tuple(int(c) for c in self.coeff_matrix()[position])
        return Character(self, coeffs, position)

    def char_from_coeffs(self, coeffs: Sequence[int]) -> Character:
        """The character with these coefficients, each reduced mod its
        radix; ValueError unless there is exactly one per radix."""
        if len(coeffs) != len(self.radices):
            raise ValueError(
                f"expected {len(self.radices)} coefficients, got {len(coeffs)}"
            )
        coeffs = tuple(int(s) % m for s, m in zip(coeffs, self.radices))
        position = 0
        for s, m in zip(coeffs, self.radices):
            position = position * m + s
        return Character(self, coeffs, position)

    def __iter__(self) -> Iterator[Character]:
        for position in range(self.count):
            yield self.char_at(position)

    # -- vectorised angles -----------------------------------------------------

    def angles_for_elements(
        self, elements: np.ndarray, chars: np.ndarray | None = None
    ) -> np.ndarray:
        """(len(elements) x len(chars)) exact angle matrix mod L, over every
        character by default."""
        D = self.ring._digits_of(np.asarray(elements, dtype=np.int64))
        coeffs = self.coeff_matrix()
        if chars is not None:
            coeffs = coeffs[np.asarray(chars, dtype=np.int64)]
        return (D * self.coord_weights) @ coeffs.T % self.L

    def angles_single(self, coeffs: Sequence[int], elements: np.ndarray) -> np.ndarray:
        w = np.asarray(
            [s * wt for s, wt in zip(coeffs, self.coord_weights)], dtype=np.int64
        )
        D = self.ring._digits_of(np.asarray(elements, dtype=np.int64))
        return (D @ w) % self.L


def character_group(ring: Ring) -> CharacterGroup:
    """The dual of (R, +). A new view on each call, so that the ring's memo
    holds no reference back to the ring; its arrays come from the memo."""
    return CharacterGroup(ring)


def characters(ring: Ring) -> Iterator[Character]:
    """All additive characters, trivial first, lexicographic coefficients."""
    return iter(character_group(ring))


def char_sum(ring: Ring, char: Character, values: Iterable[int]) -> complex:
    """Sum of chi over a multiset of ring elements, via an exact angle
    histogram followed by one complex evaluation per angle class."""
    group = char.group
    values_arr = np.asarray(list(values), dtype=np.int64)
    if values_arr.size == 0:
        return 0j
    angles = group.angles_single(char.coeffs, values_arr)
    hist = np.bincount(angles, minlength=group.L)
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


def character_table(
    ring: Ring, elements: np.ndarray | None = None, chars: np.ndarray | None = None
) -> np.ndarray:
    """Complex matrix of chi_j(x), rows x over the given elements (every
    element by default), columns j over the given character positions
    (every character by default) in enumeration order. The full table is
    n x n, for rings of modest order."""
    group = character_group(ring)
    rows = np.arange(ring.order) if elements is None else elements
    return group.unit_table[group.angles_for_elements(rows, chars)]


def annihilator_mask(ring: Ring, generators: Sequence[int]) -> np.ndarray:
    """Boolean mask over the character enumeration: True where the character
    kills every generator. Exact: a character kills x iff its angle is 0."""
    group = character_group(ring)
    angles = group.angles_for_elements(np.asarray(list(generators), dtype=np.int64))
    return (angles == 0).all(axis=0)


def annihilator(ring: Ring, subgroup) -> list[Character]:
    """All characters annihilating the given subgroup (a SubgroupSet or any
    iterable of elements). Limited to rings of order at most 2^12."""
    if ring.order > _ANNIHILATOR_MAX_ORDER:
        raise WorkGuardExceeded(
            f"annihilator enumeration refused for order {ring.order} > {_ANNIHILATOR_MAX_ORDER}"
        )
    gens = getattr(subgroup, "generators", None)
    if gens is None:
        gens = list(subgroup)
    mask = annihilator_mask(ring, list(gens))
    group = character_group(ring)
    return [group.char_at(int(j)) for j in np.flatnonzero(mask)]
