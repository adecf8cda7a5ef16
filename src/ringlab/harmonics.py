"""Exponential sum estimates over finite principal ideal rings.

The normalised polynomial exponential sum of P against an additive character
chi is

    S(chi, P) = (1/|R|) sum_x chi(P(x)).

For characters that do not annihilate the subgroup H generated by the
(recentred) values of P, |S| obeys

    |S(chi, P)|^(2^(k-1)) <= B(d, char R) (k-1) / lpf(R),

where d = deg P and k is the derivational degree. The same constant controls
how far the polynomial average E_y f(x + P(y)) sits from the average of f
over the coset H + P(0) in L^2, which is the quantitative total ergodicity
estimate; the two are tied together by Parseval, and te_estimate reports both
the direct enumeration and the Fourier-side evaluation of the left side as an
independent check pair.

Also here: the van der Corput inequality along a subgroup, and the root
count bound (a nonzero polynomial in l variables with per-variable degrees
d_i has at most (sum d_i) |R|^l / lpf(R) roots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import work_guard
from .characters import (
    all_char_sums,
    annihilator_mask,
    char_sum,
    character_group,
    character_table,
)
from .errors import WorkGuardExceeded, ZeroPolynomial
from .polynomials import RingPoly, bound_parameters, derivational_degree
from .rings import Ring
from .subgroups import SubgroupSet, value_subgroup

BOUND_TOL = 1e-9
ROUTE_TOL = 1e-8
# Entries of one row block of the character table in the Parseval route.
_TABLE_BLOCK = 1 << 16


def random_functions(ring: Ring, count: int, seed: int) -> np.ndarray:
    """Seeded complex test functions, shape (count, order). Real and
    imaginary parts are independent uniforms on [-1, 1]."""
    rng = np.random.default_rng(seed)
    shape = (count, ring.order)
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def value_counts(ring: Ring, P: RingPoly) -> np.ndarray:
    """How often each element occurs among {P(x) : x in R}."""
    return np.bincount(P.values(), minlength=ring.order)


def exp_sum(ring: Ring, P: RingPoly, char) -> complex:
    """S(chi, P), exact angle histogram route."""
    return char_sum(ring, char, P.values()) / ring.order


def exp_sums_all(ring: Ring, P: RingPoly, counts: np.ndarray | None = None) -> np.ndarray:
    """S(chi, P) for every character in enumeration order."""
    if counts is None:
        counts = value_counts(ring, P)
    return all_char_sums(ring, counts) / ring.order


def _poly_setup(ring: Ring, P: RingPoly, ddeg_mode: str, guard: int | None):
    """Shared preprocessing: values, recentring, subgroup, degree data."""
    values = P.values()
    shift = int(values[0])
    recentred = ring.sub_vec(values, shift) if shift != 0 else values
    H = value_subgroup(ring, P, subtract_constant=True)
    dres = derivational_degree(ring, P, mode=ddeg_mode, guard=guard)
    d = max(P.degree, 1)
    bp = bound_parameters(ring, d, dres)
    return values, recentred, shift, H, bp, d


def _power_bound(B: int, k: int, lpf: int) -> float:
    """B (k-1) / lpf, the bound on |S|^(2^(k-1)); zero in degenerate cases."""
    if k <= 1:
        return 0.0
    return B * (k - 1) / lpf


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

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["coeffs"] = list(self.coeffs)
        out["max_checked_coeffs"] = (
            None if self.max_checked_coeffs is None else list(self.max_checked_coeffs)
        )
        return out


def character_bound_check(
    ring: Ring,
    P: RingPoly,
    ddeg_mode: str = "auto",
    guard: int | None = None,
) -> CharacterBoundReport:
    """Check the exponential sum bound against every character at once.

    Characters annihilating the value subgroup are exempt (their sum has
    modulus exactly 1 after recentring); all others must satisfy the power
    bound. P(0) is subtracted before summing, which leaves every modulus
    unchanged but makes the annihilator consistency check exact.
    """
    n = ring.order
    values, recentred, shift, H, bp, d = _poly_setup(ring, P, ddeg_mode, guard)
    k = bp.k
    lpf = ring.lpf()
    counts = np.bincount(recentred, minlength=n)
    S = all_char_sums(ring, counts) / n
    ann = annihilator_mask(ring, H.generators)
    moduli = np.abs(S)

    power = _power_bound(bp.b, k, lpf)
    checked = ~ann
    flags = []
    if not bp.certified:
        flags.append("CONSERVATIVE")
    if k == 0:
        flags.append("DEGENERATE")

    if checked.any():
        # x ** 2^j in floats is 0, 1 or inf for x below, at or above 1 once
        # j >= 1023, as for j = 1023, and 2^1024 itself overflows a float.
        lhs_powers = moduli[checked] ** (2.0 ** min(k - 1, 1023)) if k >= 1 else moduli[checked]
        worst = int(np.argmax(lhs_powers))
        checked_idx = np.flatnonzero(checked)
        max_checked = float(moduli[checked_idx[worst]])
        group = character_group(ring)
        max_coeffs = tuple(int(c) for c in group.coeff_matrix()[checked_idx[worst]])
        satisfied = bool(lhs_powers.max() <= power + BOUND_TOL)
        margin = float(power - lhs_powers.max())
    else:
        max_checked = 0.0
        max_coeffs = None
        satisfied = True
        margin = float(power)

    nontrivial = np.ones(n, dtype=bool)
    nontrivial[0] = False
    max_nontrivial = float(moduli[nontrivial].max()) if n > 1 else 0.0
    ann_err = float(np.abs(S[ann] - 1.0).max()) if ann.any() else 0.0

    return CharacterBoundReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        coeffs=P.coeffs,
        degree=P.degree,
        k=k,
        k_method=bp.method,
        k_certified=bp.certified,
        functional_ddeg=bp.functional_k,
        b_const=bp.b,
        lpf=lpf,
        characteristic=ring.characteristic,
        subgroup_size=H.size,
        annihilator_size=int(ann.sum()),
        checked_characters=int(checked.sum()),
        power_bound=power,
        max_checked_modulus=max_checked,
        max_checked_coeffs=max_coeffs,
        max_nontrivial_modulus=max_nontrivial,
        bound_satisfied=satisfied,
        margin=margin,
        annihilator_max_error=ann_err,
        flags=flags,
    )


@dataclass
class TEReport:
    """Total ergodicity report. For a batch of test functions the
    per-function fields (lhs, rhs, ratio, fourier_lhs, route_gap, f_norm,
    satisfied) are arrays with one entry per function."""

    ring_spec: str
    poly: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    ratio: float | np.ndarray
    fourier_lhs: float | np.ndarray
    route_gap: float | np.ndarray
    k: int
    k_method: str
    k_certified: bool
    functional_ddeg: int
    b_const: int
    lpf: int
    subgroup_size: int
    shift: int
    f_norm: float | np.ndarray
    satisfied: bool | np.ndarray
    seed: int | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def te_estimate(
    ring: Ring,
    P: RingPoly,
    f: np.ndarray,
    ddeg_mode: str = "auto",
    guard: int | None = None,
    seed: int | None = None,
) -> TEReport:
    """Distance of the polynomial average from the coset average, in L^2.

    lhs = || E_y f(x + P(y)) - E_{z in H} f(x + z + P(0)) ||_{L^2_x}, with
    both norms normalised by |R|. The right side is the total ergodicity
    constant times ||f||. f is one function of shape (order,) or a batch of
    shape (count, order); the polynomial data, the degree and every
    transform are computed once for the whole batch.

    The left side is evaluated twice, by direct enumeration of translates
    and through Parseval on the character side. The two routes share no
    arithmetic, so route_gap is an independent check of both.
    """
    n = ring.order
    fs = np.asarray(f, dtype=np.complex128)
    single = fs.ndim == 1
    if single:
        fs = fs[None, :]
    if fs.ndim != 2 or fs.shape[1] != n:
        raise ValueError(f"f must have shape ({n},) or (count, {n})")
    values, recentred, shift, H, bp, d = _poly_setup(ring, P, ddeg_mode, guard)
    k = bp.k
    lpf = ring.lpf()

    lhs = _te_lhs_direct(ring, fs, values, H, shift)
    fourier = _te_lhs_fourier(ring, fs, recentred, H)

    f_norm = np.sqrt(np.mean(np.abs(fs) ** 2, axis=1))
    power = _power_bound(bp.b, k, lpf)
    rhs = power ** (2.0 ** (1 - k)) * f_norm if k >= 1 else np.zeros(len(fs))
    fallback = np.where(lhs <= BOUND_TOL, 0.0, np.inf)
    ratio = np.divide(lhs, rhs, out=fallback, where=rhs > 0)
    satisfied = lhs <= rhs + BOUND_TOL
    per_function = dict(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        fourier_lhs=fourier,
        route_gap=np.abs(lhs - fourier),
        f_norm=f_norm,
        satisfied=satisfied,
    )
    if single:
        per_function = {key: value[0].item() for key, value in per_function.items()}
    return TEReport(
        ring_spec=ring.spec_string(),
        poly=str(P),
        k=k,
        k_method=bp.method,
        k_certified=bp.certified,
        functional_ddeg=bp.functional_k,
        b_const=bp.b,
        lpf=lpf,
        subgroup_size=H.size,
        shift=shift,
        seed=seed,
        **per_function,
    )


def _te_lhs_direct(
    ring: Ring, fs: np.ndarray, values: np.ndarray, H: SubgroupSet, shift: int
) -> np.ndarray:
    """Direct route: average the translates f(x + v) with the value weights
    of P and over the coset H + P(0), one shift at a time; no transforms."""
    n = ring.order
    w = np.bincount(values, minlength=n) / n
    poly_avg = np.zeros(fs.shape, dtype=np.complex128)
    for v, row in ring.translates(np.flatnonzero(w)):
        poly_avg += w[v] * fs[:, row]
    coset = H.coset(shift)
    coset_avg = np.zeros(fs.shape, dtype=np.complex128)
    for _, row in ring.translates(coset):
        coset_avg += fs[:, row]
    coset_avg /= len(coset)
    return np.sqrt(np.mean(np.abs(poly_avg - coset_avg) ** 2, axis=1))


def _te_lhs_fourier(
    ring: Ring, fs: np.ndarray, recentred: np.ndarray, H: SubgroupSet
) -> np.ndarray:
    """Parseval route: lhs^2 = sum over non-annihilating characters of
    |f_hat(chi)|^2 |S(chi, P)|^2. f_hat is summed over row blocks of the
    character table, so no order x order table is ever held."""
    n = ring.order
    counts = np.bincount(recentred, minlength=n)
    S = all_char_sums(ring, counts) / n
    rows = max(1, _TABLE_BLOCK // n)
    f_hats = sum(
        fs[:, r:r + rows] @ np.conj(character_table(ring, np.arange(r, min(r + rows, n))))
        for r in range(0, n, rows)
    ) / n
    ann = annihilator_mask(ring, H.generators)
    weight = (np.abs(S) ** 2) * ~ann
    return np.sqrt((np.abs(f_hats) ** 2) @ weight)


def te_sweep(
    ring: Ring,
    polys: Sequence[RingPoly],
    fs: np.ndarray,
    ddeg_mode: str = "auto",
    guard: int | None = None,
) -> dict:
    """Total ergodicity check of every polynomial against every test function
    on one ring: one batched te_estimate per polynomial. Returns
    (polynomial x function) lhs/fourier/rhs arrays."""
    fs = np.atleast_2d(np.asarray(fs, dtype=np.complex128))
    reps = [te_estimate(ring, P, fs, ddeg_mode, guard) for P in polys]
    shape = (len(reps), len(fs))
    return {
        "lhs": np.array([r.lhs for r in reps]).reshape(shape),
        "fourier": np.array([r.fourier_lhs for r in reps]).reshape(shape),
        "rhs": np.array([r.rhs for r in reps]).reshape(shape),
        "k": [r.k for r in reps],
        "certified": [r.k_certified for r in reps],
    }


@dataclass
class VdcReport:
    ring_spec: str
    subgroup_size: int
    k: int
    lhs: np.ndarray
    rhs_real: np.ndarray
    rhs_imag_max: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "ring_spec": self.ring_spec,
            "subgroup_size": self.subgroup_size,
            "k": self.k,
            "lhs": [float(x) for x in np.atleast_1d(self.lhs)],
            "rhs": [float(x) for x in np.atleast_1d(self.rhs_real)],
            "rhs_imag_max": self.rhs_imag_max,
            "satisfied": self.satisfied,
        }


def vdc_check(
    ring: Ring,
    H: SubgroupSet,
    f: np.ndarray,
    k: int,
    guard: int | None = None,
) -> VdcReport:
    """Van der Corput along a subgroup:

        |E_x f(x)|^(2^k) <= E_{v_1..v_k in H} E_u prod-difference of f.

    Accepts a single function (order,) or a batch (count, order). The right
    side is real up to rounding; its worst imaginary residue is reported.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = ring.order
    budget = work_guard(guard)
    if len(H) ** k * n > budget:
        raise WorkGuardExceeded(
            f"vdc enumeration needs {len(H)}^{k} x {n} work, budget {budget}"
        )
    fs = np.asarray(f, dtype=np.complex128)
    single = fs.ndim == 1
    if single:
        fs = fs[None, :]
    perms = ring.add_table(H.elements)

    def level(g: np.ndarray, depth: int) -> np.ndarray:
        if depth == 0:
            return g.mean(axis=-1)
        acc = np.zeros(g.shape[0], dtype=np.complex128)
        for perm in perms:
            acc += level(g[:, perm] * np.conj(g), depth - 1)
        return acc / len(perms)

    rhs = level(fs, k)
    lhs = np.abs(fs.mean(axis=-1)) ** (2**k)
    imag_max = float(np.abs(rhs.imag).max())
    satisfied = bool((lhs <= rhs.real + BOUND_TOL).all())
    return VdcReport(
        ring_spec=ring.spec_string(),
        subgroup_size=len(H),
        k=k,
        lhs=lhs[0] if single else lhs,
        rhs_real=rhs.real[0] if single else rhs.real,
        rhs_imag_max=imag_max,
        satisfied=satisfied,
    )


@dataclass
class RootCountReport:
    ring_spec: str
    variables: int
    degrees: tuple[int, ...]
    count: int
    bound: float
    satisfied: bool

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["degrees"] = list(self.degrees)
        return out


def _trim_tensor(arr: np.ndarray) -> np.ndarray:
    for axis in range(arr.ndim):
        while arr.shape[axis] > 1:
            sl = [slice(None)] * arr.ndim
            sl[axis] = arr.shape[axis] - 1
            if np.any(arr[tuple(sl)]):
                break
            keep = [slice(None)] * arr.ndim
            keep[axis] = slice(0, arr.shape[axis] - 1)
            arr = arr[tuple(keep)]
    return arr


def root_count_bound_check(
    ring: Ring,
    coeffs,
    guard: int | None = None,
) -> RootCountReport:
    """Count the roots of a nonzero polynomial in at most 3 variables by
    exhaustive evaluation and compare with (sum of degrees) |R|^l / lpf.

    coeffs is a nested list: level i indexes the exponent of variable i,
    innermost entries are element indices.
    """
    try:
        arr = np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        raise ValueError("coefficients must be element indices") from None
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim > 3:
        raise ValueError("at most 3 variables are supported")
    if not np.all((arr >= 0) & (arr < ring.order)):
        raise ValueError("coefficients must be element indices")
    arr = _trim_tensor(arr)
    if not arr.any():
        raise ZeroPolynomial("the zero polynomial has every point as a root")
    l = arr.ndim
    n = ring.order
    budget = work_guard(guard)
    if n**l > budget:
        raise WorkGuardExceeded(
            f"root counting needs {n}^{l} evaluations, budget {budget}"
        )
    degrees = tuple(s - 1 for s in arr.shape)

    xs = np.arange(n, dtype=np.int64)
    pow_tables = []
    for axis in range(l):
        powers = [np.zeros(n, dtype=np.int64) + ring.one]
        for _ in range(arr.shape[axis] - 1):
            powers.append(ring.mul_vec(powers[-1], xs))
        pow_tables.append(powers)

    grid_shape = (n,) * l
    total = np.zeros(grid_shape, dtype=np.int64)
    for exponents in np.ndindex(*arr.shape):
        c = int(arr[exponents])
        if c == 0:
            continue
        term = np.full(grid_shape, c, dtype=np.int64)
        for axis, e in enumerate(exponents):
            if e == 0:
                continue
            shape = [1] * l
            shape[axis] = n
            term = ring.mul_vec(term, pow_tables[axis][e].reshape(shape))
        total = ring.add_vec(total, term)
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
