"""Exact tools for the monic integer Chebyshev problem on Farey intervals.

The package constructs monic integer polynomials with prescribed rational
values, searches for sup-norm witnesses with exact LLL reduction, and
certifies sup-norm bounds unconditionally by integer Bernstein
subdivision, all in exact integer and rational arithmetic.
"""

from .numpoly import (
    IntPoly,
    Interval,
    bernstein_split,
    extended_gcd,
    format_poly,
    format_rational,
    homogeneous_value,
    parse_poly,
    parse_rational,
    poly_gcd,
    poly_integrate_product,
    to_bernstein,
)
from .farey import (
    FareyPair,
    farey_intervals,
    farey_sequence,
    is_consecutive_pair,
    mediant,
)
from .construct import (
    CongruenceError,
    ConstructionState,
    DegreeSearchError,
    admissible_degree,
    construction_state,
    multipoint_monic,
    multiplicative_order,
    pair_polynomial,
    triple_polynomial,
)
from .constants import (
    CONJECTURED,
    PROVEN_EQUAL,
    ConstantValue,
    SymbolicEndpoint,
    conjecture_value,
    finite_set_constant,
    interval_constant,
    parse_endpoint,
    point_constant,
    surd_pair_constant,
    transform_constant,
)
from .certify import (
    NormCertificate,
    Verdict,
    WitnessRecord,
    bernstein_prefilter,
    certify_sup_bound,
    decide_sup_bound,
    rational_point_lower_bound,
    sup_norm_enclosure,
    verify_witness,
)
from .lattice import (
    GramMatrix,
    ReductionResult,
    SearchBasis,
    SmallValueError,
    build_search_basis,
    gram_matrix,
    lll_reduce,
    search_witness,
    small_value_polynomial,
)

__version__ = "0.1.0"

# The command-line names load on first use (PEP 562), so that
# `python -m monicheb.cli` does not find monicheb.cli already imported.
_CLI_NAMES = ("RunReport", "TableEntry", "bundled_table_path", "parse_table_file", "run")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "IntPoly", "Interval",
    "bernstein_split", "extended_gcd", "format_poly", "format_rational",
    "homogeneous_value", "parse_poly", "parse_rational", "poly_gcd",
    "poly_integrate_product", "to_bernstein",
    "FareyPair", "farey_intervals", "farey_sequence", "is_consecutive_pair",
    "mediant",
    "CongruenceError", "ConstructionState", "DegreeSearchError",
    "admissible_degree", "construction_state", "multipoint_monic",
    "multiplicative_order", "pair_polynomial", "triple_polynomial",
    "CONJECTURED", "PROVEN_EQUAL", "ConstantValue", "SymbolicEndpoint",
    "conjecture_value", "finite_set_constant", "interval_constant",
    "parse_endpoint", "point_constant", "surd_pair_constant",
    "transform_constant",
    "NormCertificate", "Verdict", "WitnessRecord", "bernstein_prefilter",
    "certify_sup_bound", "decide_sup_bound", "rational_point_lower_bound",
    "sup_norm_enclosure", "verify_witness",
    "GramMatrix", "ReductionResult", "SearchBasis", "SmallValueError",
    "build_search_basis", "gram_matrix", "lll_reduce",
    "search_witness", "small_value_polynomial",
    "RunReport", "TableEntry", "bundled_table_path", "parse_table_file", "run",
]
