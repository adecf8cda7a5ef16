"""Resource guards for explicit enumeration.

Two budgets protect against accidentally huge computations: an order guard on
ring construction and a work guard on exhaustive sweeps (difference spaces,
root counting, subgroup duals). Both can be overridden per call or through
the environment variables RINGLAB_ORDER_GUARD and RINGLAB_WORK_GUARD, which
must hold positive integers when set.
"""

from __future__ import annotations

import os

from .errors import ParseError

DEFAULT_ORDER_GUARD = 1 << 20
DEFAULT_WORK_GUARD = 1 << 24


def _from_env(name: str, fallback: int) -> int:
    """The positive integer in environment variable name, or fallback when
    it is unset. Any other value raises ParseError."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{name}={raw!r} is not an integer") from None
    if value <= 0:
        raise ParseError(f"{name}={raw!r} must be positive")
    return value


def order_guard(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _from_env("RINGLAB_ORDER_GUARD", DEFAULT_ORDER_GUARD)


def work_guard(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _from_env("RINGLAB_WORK_GUARD", DEFAULT_WORK_GUARD)
