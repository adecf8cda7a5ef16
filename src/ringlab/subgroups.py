"""Subgroups of the additive group generated by polynomial value sets.

A SubgroupSet is a verified additive subgroup stored as a sorted element
tuple, with membership by binary search. The closure picks a basis of at
most log2 |R| generators and grows the group by doubling steps along each;
the value subgroup keeps that basis as its generators. Sets supplied as
already-closed are re-verified unless they came from the closure itself.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotASubgroup
from .polynomials import RingPoly
from .rings import Ring


class SubgroupSet:
    """An additive subgroup with fast membership and stable identity."""

    __slots__ = ("ring", "elements", "generators")

    def __init__(self, ring: Ring, elements: tuple[int, ...], generators: tuple[int, ...]):
        self.ring = ring
        self.elements = elements
        self.generators = generators

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupSet)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.ring.spec_string(), self.elements))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.ring.order // len(self.elements)

    @property
    def is_full(self) -> bool:
        return len(self.elements) == self.ring.order

    def coset(self, shift: int) -> np.ndarray:
        """Element indices of the coset H + shift."""
        base = np.asarray(self.elements, dtype=np.int64)
        if shift == 0:
            return base
        return np.sort(self.ring.add_vec(base, shift))

    def sample_generators(self, limit: int = 8) -> list[int]:
        return list(self.generators[:limit])

    def info_dict(self, extra: dict | None = None) -> dict:
        out = {
            "size": self.size,
            "index": self.index,
            "is_full": self.is_full,
            "generators_sample": self.sample_generators(),
        }
        if extra:
            out.update(extra)
        return out

    def __repr__(self) -> str:
        return (
            f"<SubgroupSet size={self.size} of {self.ring.spec_string()}>"
        )


def _closure(ring: Ring, generators: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Close a generating set under addition (0 is always included); return
    the sorted elements and a basis. Each basis element g is the first
    generator outside the group S so far, so it at least doubles S, which
    grows by S <- S + {0, step}, step <- 2 step from step = g until nothing
    is new (S + 2^j g inside S forces S + g inside S)."""
    gens = np.asarray(generators, dtype=np.int64)
    known = np.zeros(ring.order, dtype=bool)
    known[0] = True
    members, basis = np.zeros(1, dtype=np.int64), []
    while (pending := gens[~known[gens]]).size:
        step = int(pending[0])
        basis.append(step)
        while True:
            shifted = ring.add_vec(members, step)
            fresh = shifted[~known[shifted]]
            if fresh.size == 0:
                break
            known[fresh] = True
            members = np.concatenate([members, fresh])
            step = ring.add(step, step)
    return tuple(np.flatnonzero(known).tolist()), tuple(basis)


def from_generators(ring: Ring, generators: Iterable[int]) -> SubgroupSet:
    gens = tuple(int(g) for g in generators)
    return SubgroupSet(ring, _closure(ring, gens)[0], gens)


def from_elements(ring: Ring, elements: Iterable[int], verify: bool = True) -> SubgroupSet:
    """Wrap an explicit element set, checking it really is a subgroup."""
    elems = tuple(sorted({int(e) for e in elements}))
    if verify:
        if not elems or elems[0] != 0:
            raise NotASubgroup("a subgroup must contain 0")
        closed, _ = _closure(ring, elems)
        if closed != elems:
            raise NotASubgroup(
                f"set of size {len(elems)} closes to size {len(closed)}"
            )
    return SubgroupSet(ring, elems, elems)


def trivial_subgroup(ring: Ring) -> SubgroupSet:
    return SubgroupSet(ring, (0,), ())


def full_subgroup(ring: Ring) -> SubgroupSet:
    """All of R, generated by the cyclic generators of (R, +)."""
    gens = tuple(int(p) for p in ring._places)
    return SubgroupSet(ring, tuple(range(ring.order)), gens)


def value_subgroup(ring: Ring, P: RingPoly, subtract_constant: bool = True) -> SubgroupSet:
    """The subgroup generated by the values of P, optionally recentred by
    subtracting P(0) from every value first. The closure runs once per
    ring, P and recentring; the ring's memo keeps its elements and basis,
    and each call wraps them in a new SubgroupSet, which refers to the ring."""

    def build() -> tuple[tuple[int, ...], tuple[int, ...]]:
        values = P.values()
        if subtract_constant:
            c = int(values[0])
            if c != 0:
                values = ring.sub_vec(values, c)
        return _closure(ring, np.unique(values))

    return SubgroupSet(ring, *ring.memo(("value_subgroup", P.coeffs, subtract_constant), build))


def constant_in_subgroup(ring: Ring, P: RingPoly) -> bool:
    """Whether P(0) lies in the subgroup generated by {P(x) - P(0)}."""
    H = value_subgroup(ring, P, subtract_constant=True)
    return P.constant_term() in H


def coset_average(
    ring: Ring,
    H: SubgroupSet,
    f: Callable[[int], complex] | np.ndarray,
    shift: int = 0,
) -> complex:
    """Average of f over the coset H + shift."""
    coset = H.coset(shift)
    if isinstance(f, np.ndarray):
        return complex(f[coset].mean())
    return complex(sum(f(int(x)) for x in coset) / len(coset))
