"""Polynomial helpers that no subcommand reaches, kept for the tests of
`ringlab.polynomials`: building a RingPoly from integer coefficients, and
evaluating it at one point by scalar Horner, the oracle of
`RingPoly.values`."""

from ringlab.polynomials import RingPoly


def from_int_coeffs(ring, ints) -> RingPoly:
    """The polynomial whose coefficients are the images of these integers
    in the ring, constant first."""
    return RingPoly.make(ring, [ring.from_int(c) for c in ints])


def evaluate(P: RingPoly, x: int) -> int:
    """P(x) by scalar Horner with the ring's `add` and `mul`."""
    acc = 0
    for c in reversed(P.coeffs):
        acc = P.ring.add(P.ring.mul(acc, x), c)
    return acc
