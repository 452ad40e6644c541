"""Exact obstruction characters on blown-up projective space.

The library computes, in exact rational arithmetic, the boundary and bulk
obstruction terms of a coupled metric equation on the family of projective
n-spaces blown up at a point, derives the unique weight ratio at which the
obstruction character vanishes, and cross-checks everything against an
independent Monte Carlo quadrature, a ruled-surface formula, and an
ampleness cone scan.  See the README for the mathematical setup and the
``toricfutaki`` command-line entry point for the main workflows.
"""

__version__ = "0.1.0"

from .ampleness import (
    ConeCheck,
    ScanResult,
    check_from_m,
    infeasibility_scan,
)
from .character import (
    CharacterReport,
    InconsistencyError,
    RuledRatio,
    Verdict,
    build_report,
    bulk_axis,
    classical_futaki_axis,
    kf_ruled_ratio,
    required_ratio,
    two_parameter_ratio,
)
from .exactnum import (
    LogLinear,
    MultiPoly,
    RadialSum,
    Rational,
    as_fraction,
    format_rational,
    parse_rational,
)
from .exprparse import PolyParseError, parse_poly
from .family import (
    FamilySpec,
    UnsolvableClassError,
    jacobian,
    jacobian_det,
    make_spec,
    minor_sum,
    minor_sum_radial,
    radial_profile,
    slope_lambda_intersection,
    transition_map,
)
from .integrate import (
    MCResult,
    c_constant,
    facet_sigma,
    integrate_poly,
    integrate_poly_boundary,
    integrate_poly_facet,
    integrate_radial,
    integrate_radial_slab,
    mc_integrate,
    mc_integrate_many,
    volume,
)
from .polytope import (
    DelzantPolytope,
    HalfSpace,
    Simplex,
    standard_blowup_polytope,
)
from .verify import CHECK_NAMES, CheckResult, run_checks

__all__ = [
    "__version__",
    "CharacterReport",
    "ConeCheck",
    "CheckResult",
    "CHECK_NAMES",
    "DelzantPolytope",
    "FamilySpec",
    "HalfSpace",
    "InconsistencyError",
    "LogLinear",
    "MCResult",
    "MultiPoly",
    "PolyParseError",
    "RadialSum",
    "Rational",
    "RuledRatio",
    "ScanResult",
    "Simplex",
    "UnsolvableClassError",
    "Verdict",
    "as_fraction",
    "build_report",
    "bulk_axis",
    "c_constant",
    "check_from_m",
    "classical_futaki_axis",
    "facet_sigma",
    "format_rational",
    "infeasibility_scan",
    "integrate_poly",
    "integrate_poly_boundary",
    "integrate_poly_facet",
    "integrate_radial",
    "integrate_radial_slab",
    "jacobian",
    "jacobian_det",
    "kf_ruled_ratio",
    "make_spec",
    "mc_integrate",
    "mc_integrate_many",
    "minor_sum",
    "minor_sum_radial",
    "parse_poly",
    "parse_rational",
    "radial_profile",
    "required_ratio",
    "run_checks",
    "slope_lambda_intersection",
    "standard_blowup_polytope",
    "transition_map",
    "two_parameter_ratio",
    "volume",
]
