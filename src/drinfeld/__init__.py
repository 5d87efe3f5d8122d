"""Exact arithmetic for Drinfeld F_q[t]-modules: heights, isogenies,
lattice covolumes and rank-2 modular polynomials, with evaluators and
randomized harnesses for the explicit height inequalities."""

from .base import poly_ring_A, rational_function_field
from .bounds import (
    BoundReport,
    dd_corollary_bound,
    hsia_main_term,
    kappa,
    lemma54_window,
    lemma64_resolve,
    lemma64_threshold,
    prop65_bound,
    psi,
    thm1_part1_bound,
    thm1_part2_bound,
)
from .dmod import DrinfeldModule, random_module
from .errors import (
    BadReduction,
    DrinfeldError,
    InvariantViolation,
    IrreducibilityUncertain,
    KernelNotStable,
)
from .extfield import QuotientField
from .factor import factor, is_irreducible
from .ff import GF
from .isogeny import (
    Isogeny,
    dual,
    minimal_N,
    pushforward,
    random_isogenous_pair,
    rank2_t_isogenies,
    remark_rank3_check,
    verify,
)
from .lattice import (
    LatticeBasis,
    analytic_isogeny_check,
    gekeler_j_log,
    log_index,
    reduce,
)
from .modpoly import (
    BivarPoly,
    build_Sn,
    compute_phi_t,
    compute_phi_t_interpolated,
    lagrange_reconstruct,
    tk_bounds,
)
from .parsing import parse_element, parse_skew
from .places import Place, log_abs, valuation, weil_height
from .skew import skew_ring

__all__ = [
    "BadReduction",
    "BivarPoly",
    "BoundReport",
    "DrinfeldError",
    "DrinfeldModule",
    "GF",
    "InvariantViolation",
    "IrreducibilityUncertain",
    "Isogeny",
    "KernelNotStable",
    "LatticeBasis",
    "Place",
    "QuotientField",
    "analytic_isogeny_check",
    "build_Sn",
    "compute_phi_t",
    "compute_phi_t_interpolated",
    "dd_corollary_bound",
    "dual",
    "factor",
    "gekeler_j_log",
    "hsia_main_term",
    "is_irreducible",
    "kappa",
    "lagrange_reconstruct",
    "lemma54_window",
    "lemma64_resolve",
    "lemma64_threshold",
    "log_abs",
    "log_index",
    "minimal_N",
    "parse_element",
    "parse_skew",
    "poly_ring_A",
    "prop65_bound",
    "psi",
    "pushforward",
    "random_isogenous_pair",
    "random_module",
    "rank2_t_isogenies",
    "rational_function_field",
    "reduce",
    "remark_rank3_check",
    "skew_ring",
    "thm1_part1_bound",
    "thm1_part2_bound",
    "tk_bounds",
    "valuation",
    "verify",
    "weil_height",
]
