"""Exception types shared across the package.

Each error maps to a CLI exit code: parse and validation problems exit 2,
resource guards exit 3, and a failed bound check exits 4 (see cli.py).
"""

from __future__ import annotations


class RingLabError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RingLabError):
    """A ring spec, polynomial literal, or set expression failed to parse."""


class NotMonic(ParseError):
    """A defining or quotient polynomial is required to be monic and is not."""


class NotIrreducible(ParseError):
    """A defining polynomial is required to be irreducible and is not."""


class ZeroPolynomial(ParseError):
    """An operation that needs a nonzero polynomial received the zero one."""


class OrderTooLarge(RingLabError):
    """The requested ring order exceeds the explicit enumeration guard."""


class WorkGuardExceeded(RingLabError):
    """An exhaustive computation would exceed its work budget."""


class NotASubgroup(RingLabError):
    """An element set claimed to be a subgroup fails the closure check."""


class HypothesisUnmet(RingLabError):
    """A bound's precondition does not hold for the given inputs."""


class CharDividesDegree(RingLabError):
    """Power-residue graph verdicts are undefined when a prime factor of
    char(R) divides d: the Weil bound behind them needs p not to divide d
    (Lidl & Niederreiter, *Finite Fields*, Thm 5.38)."""
