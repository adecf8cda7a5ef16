"""The digit route for (R, +), kept for the tests as the named oracle of
every additive kernel that `rings._additive_kernels` picks: split each
index into its mixed-radix digits, add or subtract digit i mod radix i,
and join. Scalars go through `rings.split_index` and `rings.join_index`,
arrays through `rings.digits_of`, the codec's array form."""

import numpy as np

from ringlab.rings import digits_of, join_index, split_index


def scalar_route(ring, a: int, b: int, sign: int = 1) -> int:
    """a + sign * b digit by digit."""
    radices = ring.additive_orders()
    pairs = zip(split_index(a, radices), split_index(b, radices))
    return join_index([x + sign * y for x, y in pairs], radices)


def _places(radices):
    return np.array([join_index((0,) * i + (1,), radices) for i in range(len(radices))])


def digit_route(ring, a, b, sign: int = 1) -> np.ndarray:
    """a + sign * b digit by digit, entry by entry, broadcasting."""
    radices = ring.additive_orders()
    digits = (digits_of(a, radices) + sign * digits_of(b, radices)) % np.array(radices)
    return digits @ _places(radices)


def table_by_places(ring) -> np.ndarray:
    """The full addition table one digit place at a time: the oracle for
    Ring.add_table, which builds rows with add_vec instead."""
    n, radices = ring.order, ring.additive_orders()
    digits = digits_of(np.arange(n), radices)
    table = np.zeros((n, n), dtype=np.int64)
    for d, m, place in zip(digits.T, radices, _places(radices)):
        table += ((d[:, None] + d[None, :]) % m) * int(place)
    return table
