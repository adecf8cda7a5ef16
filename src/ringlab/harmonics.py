"""Exponential sum estimates over finite principal ideal rings.

The normalised polynomial exponential sum of P against an additive character
chi is

    S(chi, P) = (1/|R|) sum_x chi(P(x)).

`exp_sums_all` gives S for every character at once, as one transform of
the value counts of P; one character's sum is its entry there. For
characters that do not annihilate the subgroup H generated by the
(recentred) values of P, |S| obeys

    |S(chi, P)|^(2^(k-1)) <= B(d, char R) (k-1) / lpf(R),

where d = deg P and k is the derivational degree (deg P outside prime
characteristic), chosen once by `polynomials.bound_parameters`: the
estimates here read the bound from its record alone. The same constant
controls how far the polynomial average E_y f(x + P(y)) sits
from the average of f over the coset H + P(0) in L^2, which is the
quantitative total ergodicity estimate. The difference of the two averages
is one convolution of f with a measure on (R, +), so te_estimate evaluates
its norm in O(n log n) twice: by the transform route, which forms the
convolution and takes its norm, and by the Parseval route, which sums
|f_hat|^2 |S|^2 over the characters that do not annihilate H. Both
estimates read H's annihilator from `SubgroupSet.annihilator`: by duality
it holds |R| / |H| characters, so when the values of P generate R it is the
trivial character alone, and only a proper H takes the exact angle route. A
sampled exact check recomputes the convolution at a few seeded points from
translates, and f_hat and S at a few seeded characters from columns of the
character table.

Also here: the van der Corput inequality along a subgroup, and the root
count bound (a nonzero polynomial in l variables with per-variable degrees
d_i has at most (sum d_i) |R|^l / lpf(R) roots). vdc_check takes its
innermost average in closed form from coset sums, checked by a sampled
exact re-sum over x + H. te_estimate and vdc_check take test functions as
a (count, order) batch, the shape `random_functions` draws, and report
arrays with one entry per function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import blocks, charge
from .characters import (
    all_char_sums,
    character_group,
    character_table,
    convolve,
)
from .errors import ZeroPolynomial
from .polynomials import RingPoly, bound_parameters
from .rings import Ring
from .subgroups import SubgroupSet, value_subgroup

BOUND_TOL = 1e-9
# The CLI exits 4 when two routes to one number (route_gap, sample_gap,
# annihilator_max_error) differ by this much.
ROUTE_TOL = 1e-8
# Points and characters of the sampled exact check in te_estimate, and the
# constant mixed with the report's seed to draw them, which keeps the
# sample apart from the seed's own stream of test functions.
SAMPLE_ROWS = 16
_SAMPLE_SEED = 0x7E57
# |f| <= sqrt(2) makes k-fold differences up to 2^(2^(k-1)): inf at k = 11.
VDC_MAX_K = 10


def random_functions(ring: Ring, count: int, seed: int) -> np.ndarray:
    """Seeded complex test functions, shape (count, order). Real and
    imaginary parts are independent uniforms on [-1, 1], drawn in that
    order by one call: bit for bit x + 1j * y, as uniform never draws -0.0.
    count x order is charged to the work guard first."""
    charge(count * ring.order, f"drawing {count} test functions of order {ring.order}")
    parts = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, count, ring.order))
    out = np.empty((count, ring.order), dtype=np.complex128)
    out.real, out.imag = parts
    return out


def exp_sums_all(ring: Ring, P: RingPoly) -> np.ndarray:
    """S(chi, P) for every character in enumeration order: one transform of
    how often each element occurs among the values of P."""
    return all_char_sums(ring, np.bincount(P.values(), minlength=ring.order)) / ring.order


def _test_functions(f, n: int) -> np.ndarray:
    """f as a complex (count, n) batch of test functions; ValueError for
    any other shape."""
    fs = np.asarray(f, dtype=np.complex128)
    if fs.ndim != 2 or fs.shape[1] != n:
        raise ValueError(f"f must have shape (count, {n}), not {fs.shape}")
    return fs


@dataclass
class CharacterBoundReport:
    ring_spec: str
    poly: str
    coeffs: tuple[int, ...]
    degree: int
    k: int
    k_method: str
    k_certified: bool
    functional_ddeg: int
    b_const: int
    lpf: int
    characteristic: int
    subgroup_size: int
    annihilator_size: int
    checked_characters: int
    power_bound: float
    max_checked_modulus: float
    max_checked_coeffs: tuple[int, ...] | None
    max_nontrivial_modulus: float
    bound_satisfied: bool
    margin: float
    annihilator_max_error: float
    flags: list[str] = field(default_factory=list)
    fallback_reason: str | None = None


def character_bound_check(
    ring: Ring,
    P: RingPoly,
    ddeg_mode: str = "auto",
) -> CharacterBoundReport:
    """Check the exponential sum bound against every character at once.

    Characters annihilating the value subgroup are exempt (their sum has
    modulus exactly 1 after recentring); all others must satisfy the power
    bound. P(0) is subtracted before summing, which leaves every modulus
    unchanged but makes the annihilator consistency check exact.
    """
    n = ring.order
    values = P.values()
    recentred = ring.sub_vec(values, int(values[0])) if values[0] != 0 else values
    H = value_subgroup(ring, P, subtract_constant=True)
    bp = bound_parameters(ring, P, ddeg_mode)
    S = all_char_sums(ring, np.bincount(recentred, minlength=n)) / n
    ann = H.annihilator()
    annihilator_size = int(ann.sum())
    moduli = np.abs(S)
    max_nontrivial = float(moduli[1:].max())
    # The trivial character kills every H, so ann is never empty.
    ann_err = float(np.abs(S[ann] - 1.0).max())
    flags = []
    if not bp.certified:
        flags.append("CONSERVATIVE")
    if bp.k == 0:
        flags.append("DEGENERATE")

    if annihilator_size < n:
        # Exempt characters, masked to -1, never win. Some checked one
        # means H != {0}, so k >= 1.
        moduli[ann] = -1.0
        worst = int(np.argmax(moduli))
        max_checked = float(moduli[worst])
        max_coeffs = tuple(character_group(ring).coeffs(worst).tolist())
        # x ** 2^j in floats is 0, 1 or inf for x below, at or above 1 once
        # j >= 1023, as for j = 1023, and 2^1024 itself overflows a float.
        # The one-entry slice takes numpy's array power, whose last bit
        # can differ from the scalar pow's.
        lhs = (moduli[worst:worst + 1] ** (2.0 ** min(bp.k - 1, 1023)))[0]
        satisfied = bool(lhs <= bp.power + BOUND_TOL)
        margin = float(bp.power - lhs)
    else:
        max_checked, max_coeffs, satisfied, margin = 0.0, None, True, bp.power

    return CharacterBoundReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        coeffs=P.coeffs,
        degree=P.degree,
        k=bp.k,
        k_method=bp.method,
        k_certified=bp.certified,
        functional_ddeg=bp.functional_k,
        b_const=bp.b,
        lpf=bp.lpf,
        characteristic=ring.characteristic,
        subgroup_size=H.size,
        annihilator_size=annihilator_size,
        checked_characters=n - annihilator_size,
        power_bound=bp.power,
        max_checked_modulus=max_checked,
        max_checked_coeffs=max_coeffs,
        max_nontrivial_modulus=max_nontrivial,
        bound_satisfied=satisfied,
        margin=margin,
        annihilator_max_error=ann_err,
        flags=flags,
        fallback_reason=bp.fallback_reason,
    )


@dataclass
class TEReport:
    """Total ergodicity report. The per-function fields (lhs, rhs, ratio,
    fourier_lhs, route_gap, sample_gap, f_norm, satisfied) are arrays with
    one entry per test function."""

    ring_spec: str
    poly: str
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    fourier_lhs: np.ndarray
    route_gap: np.ndarray
    sample_gap: np.ndarray
    sample_rows: int
    k: int
    k_method: str
    k_certified: bool
    functional_ddeg: int
    b_const: int
    lpf: int
    subgroup_size: int
    shift: int
    f_norm: np.ndarray
    satisfied: np.ndarray
    seed: int | None = None


def te_estimate(
    ring: Ring,
    P: RingPoly,
    f: np.ndarray,
    ddeg_mode: str = "auto",
    seed: int | None = None,
) -> TEReport:
    """Distance of the polynomial average from the coset average, in L^2.

    lhs = || E_y f(x + P(y)) - E_{z in H} f(x + z + P(0)) ||_{L^2_x}, with
    both norms normalised by |R|. The right side is the total ergodicity
    constant times ||f||. f is a batch of test functions, shape
    (count, order), and ValueError for any other shape; the polynomial
    data, the degree and every transform are computed once for the batch.

    The difference of the averages is g(x) = sum_v mu(v) f(x + v), with mu
    the value weights of P minus the uniform measure on H + P(0). lhs is
    the norm of g formed by `convolve`; fourier_lhs is its Parseval form,
    the sum of |f_hat(chi)|^2 |S(chi, P)|^2 over the characters that do not
    annihilate H, f_hat and S from one batched `all_char_sums`. Both cost
    O(n log n). The sampled exact check uses no transform: g at SAMPLE_ROWS
    seeded points, from the translates x + P(y) and x + H + P(0), and f_hat
    and S at as many seeded characters, from those columns of
    `character_table` (Freivalds' check of a product on random vectors).
    sample_gap is the largest difference it finds. The sample is drawn from
    a constant mixed with seed, so equal calls give equal reports.
    """
    n = ring.order
    fs = _test_functions(f, n)
    values = P.values()
    shift = int(values[0])
    recentred = ring.sub_vec(values, shift) if shift != 0 else values
    H = value_subgroup(ring, P, subtract_constant=True)
    bp = bound_parameters(ring, P, ddeg_mode)

    coset = H.coset(shift)
    mu = np.bincount(values, minlength=n) / n
    mu[coset] -= 1 / len(coset)
    g = convolve(ring, fs, mu)
    lhs = np.sqrt(np.mean(np.abs(g) ** 2, axis=1))

    # Row 0 gives S(chi, P - P(0)), the other rows the conjugates of f_hat.
    batch = np.vstack([np.bincount(recentred, minlength=n), np.conj(fs)])
    sums = all_char_sums(ring, batch) / n
    weight = (np.abs(sums[0]) ** 2) * ~H.annihilator()
    fourier = np.sqrt((np.abs(sums[1:]) ** 2) @ weight)

    rng = np.random.default_rng((_SAMPLE_SEED, seed or 0))
    m = min(SAMPLE_ROWS, n)
    xs, chars = (rng.choice(n, size=m, replace=False) for _ in range(2))
    exact_g = np.empty((len(fs), m), dtype=np.complex128)
    exact_sums = np.empty((len(batch), m), dtype=np.complex128)
    # Rows and character columns of order length, in blocks: at order 2^20
    # the 16 rows at once took 512 MB.
    for block in blocks(m, n):
        by_values, by_coset = (ring.add_vec(xs[block, None], v) for v in (values, coset))
        exact_g[:, block] = [row[by_values].mean(axis=1) - row[by_coset].mean(axis=1) for row in fs]
        # einsum, not a BLAS product: threaded zgemm on thin matrices can
        # wait milliseconds for an idle core.
        exact_sums[:, block] = np.einsum("cx,xj->cj", batch, character_table(ring, chars=chars[block])) / n
    char_gap = np.abs(exact_sums - sums[:, chars]).max(axis=1)
    row_gap = np.abs(exact_g - g[:, xs]).max(axis=1)
    sample_gap = np.maximum(np.maximum(row_gap, char_gap[1:]), char_gap[0])

    f_norm = np.sqrt(np.mean(np.abs(fs) ** 2, axis=1))
    rhs = bp.root * f_norm
    fallback = np.where(lhs <= BOUND_TOL, 0.0, np.inf)
    ratio = np.divide(lhs, rhs, out=fallback, where=rhs > 0)
    return TEReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        fourier_lhs=fourier,
        route_gap=np.abs(lhs - fourier),
        sample_gap=sample_gap,
        sample_rows=m,
        k=bp.k,
        k_method=bp.method,
        k_certified=bp.certified,
        functional_ddeg=bp.functional_k,
        b_const=bp.b,
        lpf=bp.lpf,
        subgroup_size=H.size,
        shift=shift,
        f_norm=f_norm,
        satisfied=lhs <= rhs + BOUND_TOL,
        seed=seed,
    )


def te_sweep(
    ring: Ring,
    polys: Sequence[RingPoly],
    fs: np.ndarray,
    ddeg_mode: str = "auto",
) -> dict:
    """Total ergodicity check of every polynomial against every test function
    on one ring: one batched te_estimate per polynomial. Returns
    (polynomial x function) lhs/fourier/rhs arrays."""
    reps = [te_estimate(ring, P, fs, ddeg_mode) for P in polys]
    return {
        "lhs": np.array([r.lhs for r in reps]),
        "fourier": np.array([r.fourier_lhs for r in reps]),
        "rhs": np.array([r.rhs for r in reps]),
        "k": [r.k for r in reps],
        "certified": [r.k_certified for r in reps],
    }


@dataclass
class VdcReport:
    ring_spec: str
    subgroup_size: int
    k: int
    lhs: np.ndarray
    rhs: np.ndarray
    rhs_imag_max: float
    satisfied: bool
    sample_points: int
    sample_gap: float


def _coset_reps(ring: Ring, H: SubgroupSet) -> np.ndarray:
    """Sorted least elements of the cosets x + H: a running minimum over
    blocks of the rows x -> x + v, v in H."""
    least = np.arange(ring.order, dtype=np.int64)
    for block in blocks(len(H), ring.order):
        np.minimum(least, ring.add_table(H.elements[block]).min(axis=0), out=least)
    return np.flatnonzero(least == np.arange(ring.order))


def vdc_check(
    ring: Ring,
    H: SubgroupSet,
    f: np.ndarray,
    k: int,
) -> VdcReport:
    """Van der Corput along a subgroup:

        |E_x f(x)|^(2^k) <= E_{v_1..v_k in H} E_u prod-difference of f.

    f is a batch of test functions, shape (count, order), held slab-major
    as the (|H|, n/|H|, count) coset matrix G, G[i, c] = f(r_c + e_i)
    for the least element r_c of coset c and the elements e_i of H. The
    outer k - 1 levels replace g by g(u + v) conj g(u) for each v = e_i in
    H: with T[i, j] the position of e_i + e_j in H, that is the slabs
    G[T[i]] against G. The innermost is closed form, E_{v in H} E_u
    g(u + v) conj g(u) = (1/(n |H|)) sum over cosets C of H of
    |sum_{u in C} g(u)|^2, the sum of G over its slabs. So the right side
    is real (and rhs_imag_max 0.0) and costs |H|^(k-1) passes, not |H|^k.
    The sampled exact check sums f over x + H by add_vec at
    min(SAMPLE_ROWS, n) points x from a fixed seed; sample_gap is its
    largest difference from the coset sums, over |H|. k must lie in
    1..VDC_MAX_K, beyond which |f| <= sqrt(2) no longer keeps the products
    in float range; ValueError for other k, for f of another shape and for
    a side that is not finite.
    """
    if not 1 <= k <= VDC_MAX_K:
        raise ValueError(f"k must be between 1 and {VDC_MAX_K}")
    n, h = ring.order, len(H)
    fs = _test_functions(f, n)
    charge(
        len(fs) * h ** (k - 1) * n + h * n,
        f"vdc over {len(fs)} x {h}^{k - 1} x {n} + {h} x {n} entries",
    )
    E = H.elements
    reps = _coset_reps(ring, H)
    # Functions innermost, gathered in one step from the rows of fs.T, so
    # each sum below adds whole rows in sequence, not pairwise.
    G = fs.T[ring.add_vec(reps, E[:, None])]
    T = np.searchsorted(E, ring.add_vec(E[:, None], E)) if k >= 2 else None

    def level(G: np.ndarray, depth: int) -> np.ndarray:
        if depth == 1:
            return (np.abs(G.sum(axis=0)) ** 2).sum(axis=0) / (n * h)
        acc = 0.0
        for slabs in T:
            # conj(g(u + v)) g(u), the conjugate of the difference, which
            # has the same real level, built in place in the one gather.
            diff = G[slabs]
            np.conj(diff, out=diff)
            diff *= G
            acc += level(diff, depth - 1)
        return acc / h

    rhs = level(G, k)
    lhs = np.abs(fs.sum(axis=-1) / n) ** (2**k)
    if not np.isfinite(lhs + rhs).all():
        raise ValueError(f"|E f|^(2^{k}) or its bound is not a finite float")

    m = min(SAMPLE_ROWS, n)
    xs = ring.memo("vdc_sample_points",
                   lambda: np.random.default_rng(_SAMPLE_SEED).choice(n, size=m, replace=False))
    near = ring.add_vec(xs[:, None], E)
    direct = fs[:, near].sum(axis=-1)
    by_coset = G.sum(axis=0)[np.searchsorted(reps, near.min(axis=1))].T
    return VdcReport(
        ring_spec=ring.spec_string(),
        subgroup_size=h,
        k=k,
        lhs=lhs,
        rhs=rhs,
        rhs_imag_max=0.0,
        satisfied=bool((lhs <= rhs + BOUND_TOL).all()),
        sample_points=m,
        sample_gap=float(np.abs(direct - by_coset).max()) / h,
    )


@dataclass
class RootCountReport:
    ring_spec: str
    variables: int
    degrees: tuple[int, ...]
    count: int
    bound: float
    satisfied: bool


def root_count_bound_check(ring: Ring, coeffs) -> RootCountReport:
    """Count the roots of a nonzero polynomial in at most 3 variables by
    exhaustive evaluation and compare with (sum of degrees) |R|^l / lpf.

    coeffs is a nested list: level i indexes the exponent of variable i,
    innermost entries are element indices. The polynomial is evaluated by
    nested Horner, variable i along axis i of the grid, after its trailing
    zero coefficients are sliced off.
    """
    try:
        arr = np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        raise ValueError("coefficients must be element indices") from None
    except ValueError:
        raise ValueError("every row of a level must have the same length") from None
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim > 3:
        raise ValueError("at most 3 variables are supported")
    if not np.all((arr >= 0) & (arr < ring.order)):
        raise ValueError("coefficients must be element indices")
    if not arr.any():
        raise ZeroPolynomial("the zero polynomial has every point as a root")
    l = arr.ndim
    n = ring.order
    charge(n**l, f"root counting over {n}^{l} points")
    degrees = tuple(int(i.max()) for i in np.nonzero(arr))
    arr = arr[tuple(slice(d + 1) for d in degrees)]
    # Variable i runs along axis i: its values lie along the first axis of
    # the grid of variables i..l-1, which the inner levels' values fill.
    xs = [np.arange(n, dtype=np.int64).reshape((n,) + (1,) * (l - 1 - i)) for i in range(l)]

    def horner(sub: np.ndarray, i: int):
        """The polynomial with coefficient tensor sub in the variables i..l-1,
        on their grid."""
        if i == l:
            return sub
        acc = horner(sub[-1], i + 1)
        for c in sub[-2::-1]:
            acc = ring.add_vec(ring.mul_vec(acc, xs[i]), horner(c, i + 1))
        return acc

    total = np.broadcast_to(horner(arr, 0), (n,) * l)
    count = int((total == 0).sum())
    bound = sum(degrees) * n**l / ring.lpf()
    return RootCountReport(
        ring_spec=ring.spec_string(),
        variables=l,
        degrees=degrees,
        count=count,
        bound=float(bound),
        satisfied=bool(count <= bound + BOUND_TOL),
    )
