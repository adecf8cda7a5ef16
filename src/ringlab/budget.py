"""Resource guards for explicit enumeration.

Two budgets protect against accidentally huge computations: an order guard on
ring construction and a work guard on exhaustive sweeps (difference spaces,
root counting, subgroup duals). They are set only through the environment
variables RINGLAB_ORDER_GUARD and RINGLAB_WORK_GUARD, which must hold
positive integers when set; this module is the one place that reads them.
It also holds `parse_int`, the one rule of every integer ringlab reads,
the guards' values included, here because `rings` imports this module.
Arrays whose size grows with a caller's input are built in blocks of at
most BLOCK_ENTRIES entries, sliced by `blocks`.
"""

from __future__ import annotations

import os
import re

from .errors import ParseError, WorkGuardExceeded

DEFAULT_ORDER_GUARD = 1 << 20
DEFAULT_WORK_GUARD = 1 << 24
#: entries per block of an array built in blocks: Ring.translate_counts, the
#: sampled check of te_estimate, the annihilator mask, the Hensel climb, its
#: sieve and the antilog build
BLOCK_ENTRIES = 1 << 18
#: bytes of memoised arrays over all the rings that `rings.make_ring` keeps
CACHE_BYTES = 1 << 28


_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str, what: str) -> int:
    """The integer that text writes as -?[0-9]+, whitespace around it
    aside: the one rule of every integer in a spec, a literal, a set, a
    CLI flag or a guard variable. int() alone would also read '+3', '1_0'
    and digits of other scripts, such as '٣'."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"{what} {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # past Python's limit on the digits of an int
        raise ParseError(f"{what}: an integer has too many digits") from None


def _from_env(name: str, fallback: int) -> int:
    """The positive integer in environment variable name, read by
    `parse_int`, or fallback when it is unset. Any other value raises
    ParseError."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    value = parse_int(raw, name)
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


def blocks(count: int, width: int):
    """Consecutive slices of range(count), each covering at least one row
    and at most BLOCK_ENTRIES entries at width entries a row."""
    step = max(1, BLOCK_ENTRIES // width)
    return (slice(s, min(s + step, count)) for s in range(0, count, step))
