"""Finite principal ideal rings at desk scale.

Construct the five ring variants, measure polynomial statistics
(derivational degree, value subgroups, character sums), and check the
quantitative estimates that follow from them: the exponential sum power
bound, the total ergodicity estimate, van der Corput, root counts,
difference-free set sizes, bounded intersectivity, and Paley-type graph
quasirandomness.

Everything is exhaustive and exact where feasible; guards refuse work
that would not be, instead of silently sampling.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CharDividesDegree,
    HypothesisUnmet,
    NotASubgroup,
    NotIrreducible,
    NotMonic,
    OrderTooLarge,
    ParseError,
    RingLabError,
    WorkGuardExceeded,
    ZeroPolynomial,
)
from .rings import Ring, make_ring
from .polynomials import (
    RingPoly,
    parse_poly_literal,
    derivational_degree,
    b_constant,
    bound_parameters,
)
from .subgroups import SubgroupSet, value_subgroup
from .characters import character_group, character_table
from .harmonics import (
    character_bound_check,
    exp_sums_all,
    random_functions,
    root_count_bound_check,
    te_estimate,
    te_sweep,
    vdc_check,
)
from .combinatorics import (
    config_count,
    config_count_fourier,
    difference_free_max,
    intersectivity_oracle,
    sarkozy_bound_check,
    verify_difference_free,
)
from .paley import (
    build_paley,
    quasirandomness_verdict,
    spectrum,
    uniformity_measure,
)

__all__ = [
    "__version__",
    "CharDividesDegree",
    "HypothesisUnmet",
    "NotASubgroup",
    "NotIrreducible",
    "NotMonic",
    "OrderTooLarge",
    "ParseError",
    "RingLabError",
    "WorkGuardExceeded",
    "ZeroPolynomial",
    "Ring",
    "make_ring",
    "RingPoly",
    "parse_poly_literal",
    "derivational_degree",
    "b_constant",
    "bound_parameters",
    "SubgroupSet",
    "value_subgroup",
    "character_group",
    "character_table",
    "character_bound_check",
    "exp_sums_all",
    "random_functions",
    "root_count_bound_check",
    "te_estimate",
    "te_sweep",
    "vdc_check",
    "config_count",
    "config_count_fourier",
    "difference_free_max",
    "intersectivity_oracle",
    "sarkozy_bound_check",
    "verify_difference_free",
    "build_paley",
    "quasirandomness_verdict",
    "spectrum",
    "uniformity_measure",
]
