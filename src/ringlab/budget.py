"""Resource guards for explicit enumeration.

Two budgets protect against accidentally huge computations: an order guard on
ring construction and a work guard on exhaustive sweeps (difference spaces,
root counting, subgroup duals). They are set only through the environment
variables RINGLAB_ORDER_GUARD and RINGLAB_WORK_GUARD, which must hold
positive integers when set; this module is the one place that reads them.
"""

from __future__ import annotations

import os

from .errors import ParseError, WorkGuardExceeded

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


def order_guard() -> int:
    return _from_env("RINGLAB_ORDER_GUARD", DEFAULT_ORDER_GUARD)


def work_guard() -> int:
    return _from_env("RINGLAB_WORK_GUARD", DEFAULT_WORK_GUARD)


def charge(work, what: str) -> None:
    """Refuse `what` with WorkGuardExceeded when its work exceeds the work
    guard; call it before the work is allocated."""
    limit = work_guard()
    if work > limit:
        raise WorkGuardExceeded(f"{what} needs {work} work, budget {limit}")
