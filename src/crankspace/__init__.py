"""Exact integer-partition rank/crank statistics.

Exact integer Laurent polynomials, single-size rank and crank polynomials
from the Atkin-Swinnerton-Dyer and Andrews-Garvan formulas over the
partition numbers, a packed q-series kernel for colored-crank
products, cyclotomic divisibility tests with verified quotients,
verification suites for the divisibility/positivity/unimodality claims in
scope, and an exhaustive threshold search over colored-crank weight tuples.
"""

from .cyclotomic import (
    NotDivisible,
    divides_negated,
    divides_standard,
    exact_quotient,
    hat_sums,
    phi,
)
from .laurent import CrankspaceError, LaurentPoly
from .partitions import (
    BoundExceeded,
    InvalidEll,
    beta,
    colored_count,
    crank_poly,
    delta,
    modified_crank_poly,
    modified_rank_poly,
    partition_count,
    rank_poly,
)
from .qseries import (
    CrankSpec,
    InvalidK,
    SlotOverflow,
    ak_spec,
    bk_spec,
    iter_ck_slices,
)
from .search import (
    SearchResult,
    crank_space,
    exhaustive_search,
    results_to_csv,
)
from .verify import (
    AsymptoticSample,
    CongruenceCase,
    Counterexample,
    HypothesisViolation,
    InvalidCase,
    Report,
    check_family_unimodality,
    check_first_gap_criterion,
    enumerate_congruence_cases,
    rank_asymptotic_samples,
    verify_colored_congruence,
    verify_colored_quotients,
    verify_crank_constancy,
    verify_crank_mod10,
    verify_crank_squared,
    verify_modified_crank,
    verify_modified_rank,
    verify_n22_gap,
    verify_rank_monotonic,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSample",
    "BoundExceeded",
    "CongruenceCase",
    "Counterexample",
    "CrankSpec",
    "CrankspaceError",
    "HypothesisViolation",
    "InvalidCase",
    "InvalidEll",
    "InvalidK",
    "LaurentPoly",
    "NotDivisible",
    "Report",
    "SearchResult",
    "SlotOverflow",
    "ak_spec",
    "beta",
    "bk_spec",
    "check_family_unimodality",
    "check_first_gap_criterion",
    "colored_count",
    "crank_poly",
    "crank_space",
    "delta",
    "divides_negated",
    "divides_standard",
    "enumerate_congruence_cases",
    "exact_quotient",
    "exhaustive_search",
    "hat_sums",
    "iter_ck_slices",
    "modified_crank_poly",
    "modified_rank_poly",
    "partition_count",
    "phi",
    "rank_asymptotic_samples",
    "rank_poly",
    "results_to_csv",
    "verify_colored_congruence",
    "verify_colored_quotients",
    "verify_crank_constancy",
    "verify_crank_mod10",
    "verify_crank_squared",
    "verify_modified_crank",
    "verify_modified_rank",
    "verify_n22_gap",
    "verify_rank_monotonic",
]
