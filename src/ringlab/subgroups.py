"""Subgroups of the additive group generated by polynomial value sets.

A SubgroupSet is a verified additive subgroup whose elements and
generators are element sets, sorted read-only int64 arrays
(`rings.element_set`), with membership by `searchsorted`. The closure
picks a basis of at most log2 |R| generators and grows the group by
doubling steps along each, and stops once the group is all of R; the
value subgroup keeps that basis as its generators. Sets supplied as
already-closed are re-verified unless they came from the closure itself.
A subgroup's annihilator in the character group is decided from its size
first (`SubgroupSet.annihilator`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .characters import annihilator_mask
from .errors import NotASubgroup
from .polynomials import RingPoly
from .rings import Ring, distinct, element_set


class SubgroupSet:
    """An additive subgroup with fast membership."""

    __slots__ = ("ring", "elements", "generators")

    def __init__(self, ring: Ring, elements: np.ndarray, generators: np.ndarray):
        self.ring = ring
        self.elements = elements
        self.generators = generators

    def __contains__(self, x: int) -> bool:
        i = np.searchsorted(self.elements, x)
        return bool(i < len(self.elements) and self.elements[i] == x)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.ring.order // len(self.elements)

    @property
    def is_full(self) -> bool:
        return len(self.elements) == self.ring.order

    def annihilator(self) -> np.ndarray:
        """Mask over the character enumeration of the characters that kill
        H, decided from |H| first: by duality there are |R| / |H| of them,
        so H = R has the trivial character alone and builds no angle cube.
        Any other H takes the exact angle route, `annihilator_mask` over its
        generators."""
        if not self.is_full:
            return annihilator_mask(self.ring, self.generators)
        mask = np.zeros(self.ring.order, dtype=bool)
        mask[0] = True
        return mask

    def coset(self, shift: int) -> np.ndarray:
        """The element set H + shift."""
        if shift == 0:
            return self.elements
        return element_set(self.ring, self.ring.add_vec(self.elements, shift))

    def info_dict(self, extra: dict | None = None) -> dict:
        out = {
            "size": self.size,
            "index": self.index,
            "is_full": self.is_full,
            "generators_sample": self.generators[:8],
        }
        if extra:
            out.update(extra)
        return out

    def __repr__(self) -> str:
        return (
            f"<SubgroupSet size={self.size} of {self.ring.spec_string()}>"
        )


def _closure(ring: Ring, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Close an int64 array of generators under addition (0 is always
    included); return the sorted elements and a basis, as int64 arrays.
    Each basis element g is the first generator outside the group S so far,
    so it at least doubles S, which grows by S <- S + {0, step},
    step <- 2 step from step = g until nothing is new (S + 2^j g inside S
    forces S + g inside S). Both loops stop once S is all of R."""
    known = np.zeros(ring.order, dtype=bool)
    known[0] = True
    members, basis = np.zeros(1, dtype=np.int64), []
    while members.size < ring.order and (pending := gens[~known[gens]]).size:
        step = int(pending[0])
        basis.append(step)
        while members.size < ring.order:
            shifted = ring.add_vec(members, step)
            fresh = shifted[~known[shifted]]
            if fresh.size == 0:
                break
            known[fresh] = True
            members = np.concatenate([members, fresh])
            step = ring.add(step, step)
    return np.flatnonzero(known), np.array(basis, dtype=np.int64)


def from_generators(ring: Ring, generators: Iterable[int]) -> SubgroupSet:
    """The subgroup generated by an element set; ParseError for an entry
    that `element_set` refuses."""
    gens = element_set(ring, generators)
    elements, _ = _closure(ring, gens)
    elements.flags.writeable = False
    return SubgroupSet(ring, elements, gens)


def from_elements(ring: Ring, elements: Iterable[int]) -> SubgroupSet:
    """Wrap an explicit element set, checking it really is a subgroup;
    ParseError for an entry that `element_set` refuses."""
    elems = element_set(ring, elements)
    if not elems.size or elems[0] != 0:
        raise NotASubgroup("a subgroup must contain 0")
    closed, _ = _closure(ring, elems)
    if closed.size != elems.size:
        raise NotASubgroup(f"set of size {elems.size} closes to size {closed.size}")
    return SubgroupSet(ring, elems, elems)


def trivial_subgroup(ring: Ring) -> SubgroupSet:
    return SubgroupSet(ring, element_set(ring, [0]), element_set(ring, []))


def full_subgroup(ring: Ring) -> SubgroupSet:
    """All of R, generated by the cyclic generators of (R, +)."""
    return SubgroupSet(
        ring, element_set(ring, np.arange(ring.order)), element_set(ring, ring._places)
    )


def value_subgroup(ring: Ring, P: RingPoly, subtract_constant: bool = True) -> SubgroupSet:
    """The subgroup generated by the values of P, optionally recentred by
    subtracting P(0) from every value first. The closure runs once per
    ring, P and recentring; the ring's memo keeps its elements and basis,
    read-only, and each call wraps them in a new SubgroupSet, which refers
    to the ring."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        values = P.values()
        if subtract_constant:
            c = int(values[0])
            if c != 0:
                values = ring.sub_vec(values, c)
        return _closure(ring, distinct(values))

    return SubgroupSet(ring, *ring.memo(("value_subgroup", P.coeffs, subtract_constant), build))


def constant_in_subgroup(ring: Ring, P: RingPoly) -> bool:
    """Whether P(0) lies in the subgroup generated by {P(x) - P(0)}."""
    H = value_subgroup(ring, P, subtract_constant=True)
    return P.constant_term() in H

