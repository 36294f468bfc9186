"""Distortion analysis of planar maps on the unit disk.

The package builds solutions of Laplacian(f) = g on the disk, measures
Wirtinger-derivative distortion (operator norm, Jacobian, dilatation,
ellipticity defect), sweeps (K, K') frontiers, extracts Fourier
coefficients, evaluates perimeter and radial-length functionals, and
checks a suite of coefficient and derivative inequalities with margin
reports.  The `diskmaps` console script exposes the same analyses as
subcommands with JSON/CSV output.
"""

from .bounds import (HOLD_TOLERANCE, INEQUALITY_IDS, BoundContext, BoundReport,
                     coefficient_bounds_report, derivative_bounds_report)
from .catalog import MapDefinition, builtin_map, catalog_names, harmonic_catalog
from .coefficients import CoeffTable, MajorantSpec, bloch_norm, extract_coeffs
from .ellipticity import (CauchyPair, EllipticityParams, FrontierReport,
                          HypothesisReport, QcResult, beta_constant, check_prop14,
                          check_theorem11, frontier, invert_map, lemma22_check,
                          lemma24_convert, min_kprime, qc_constant)
from .expr import ParseError, parse_expr
from .grids import GridScanError, GridSpec, Scan, grid_supremum, polar_grid, shell_ladder
from .kernels import green_eval, poisson_eval
from .lengths import (LengthReport, boundary_length, length_sup, perimeter,
                      radial_integral_profile, radial_length, radial_length_limit,
                      subharmonic_radial_check)
from .maps import CallableMap, DslMap, JetEvaluationError, PlanarMap, SeriesMap
from .potential import (GreenPotential, PoissonMap, QuadratureConfig,
                        QuadratureError, green_derivative_sup, laplacian_residual,
                        poisson_extension, solve_poisson)
from .wirtinger import (DerivedMetrics, WirtingerJet, disk_distance,
                        finite_difference_jet, jet_metrics)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # wirtinger
    "WirtingerJet", "DerivedMetrics", "jet_metrics", "disk_distance",
    "finite_difference_jet",
    # expr
    "parse_expr", "ParseError",
    # kernels
    "green_eval", "poisson_eval",
    # maps
    "JetEvaluationError", "PlanarMap", "DslMap", "SeriesMap", "CallableMap",
    # potential
    "GreenPotential", "PoissonMap", "solve_poisson",
    "poisson_extension", "laplacian_residual",
    "green_derivative_sup", "QuadratureConfig", "QuadratureError",
    # grids
    "GridSpec", "GridScanError", "Scan", "polar_grid", "grid_supremum", "shell_ladder",
    # ellipticity
    "EllipticityParams", "CauchyPair", "FrontierReport", "HypothesisReport",
    "QcResult", "min_kprime",
    "qc_constant", "frontier", "lemma24_convert", "invert_map",
    "check_theorem11", "check_prop14", "lemma22_check", "beta_constant",
    # coefficients
    "CoeffTable", "extract_coeffs", "MajorantSpec", "bloch_norm",
    # bounds
    "INEQUALITY_IDS", "HOLD_TOLERANCE", "BoundReport", "BoundContext",
    "coefficient_bounds_report", "derivative_bounds_report",
    # lengths
    "LengthReport", "perimeter", "radial_length",
    "length_sup", "boundary_length", "radial_length_limit",
    "radial_integral_profile", "subharmonic_radial_check",
    # catalog
    "MapDefinition", "builtin_map", "harmonic_catalog", "catalog_names",
]
