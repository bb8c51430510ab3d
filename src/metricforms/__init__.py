"""metricforms: factor metric tensors into 1-form sets and rebuild the
geometry along two cross-validating analytical routes."""

from .chart import Chart
from .derivative import differentiate
from .errors import MetricFormsError
from .expr import (
    Expr,
    evaluate,
    parse_expr,
    simplify,
    to_source,
)
from .factorization import (
    FormSet,
    factor_diagonal,
    factor_ldl,
    factor_takagi_numeric,
    make_formset,
    orthogonality_residual,
    verify_factorization,
)
from .geometry import (
    Connection,
    FlatnessReport,
    KillingReport,
    christoffel_classical,
    christoffel_factored,
    classify_flatness,
    covariant_divergence_sym2,
    currents,
    einstein_tensor,
    exterior_derivative,
    integrate_geodesic,
    killing_check,
    lie_derivative_metric,
    precurrents,
    raise_forms,
    ricci_einstein_factored,
    ricci_from_mixed,
    riemann_classical,
    riemann_decomposed,
    scalar_curvature,
    sym_covariant_derivative,
    sym_derivative_via_factors,
    sym_partial,
    sym_trace,
)
from .manifolds import (
    ManifoldSpec,
    ReferenceValue,
    get_manifold,
    load_catalog,
    load_file,
)
from .analysis import AnalysisReport, GeometrySession, run_analysis
from .report import REPORT_SCHEMA, render_human, render_json
from .tape import Tape
from .tensor import MetricField, Tensor, invert_metric

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Chart",
    "Connection",
    "Expr",
    "FlatnessReport",
    "FormSet",
    "GeometrySession",
    "KillingReport",
    "ManifoldSpec",
    "MetricField",
    "MetricFormsError",
    "REPORT_SCHEMA",
    "ReferenceValue",
    "Tape",
    "Tensor",
    "christoffel_classical",
    "christoffel_factored",
    "classify_flatness",
    "covariant_divergence_sym2",
    "currents",
    "differentiate",
    "einstein_tensor",
    "evaluate",
    "exterior_derivative",
    "factor_diagonal",
    "factor_ldl",
    "factor_takagi_numeric",
    "get_manifold",
    "integrate_geodesic",
    "invert_metric",
    "killing_check",
    "lie_derivative_metric",
    "load_catalog",
    "load_file",
    "make_formset",
    "orthogonality_residual",
    "parse_expr",
    "precurrents",
    "raise_forms",
    "render_human",
    "render_json",
    "ricci_einstein_factored",
    "ricci_from_mixed",
    "riemann_classical",
    "riemann_decomposed",
    "run_analysis",
    "scalar_curvature",
    "simplify",
    "sym_covariant_derivative",
    "sym_derivative_via_factors",
    "sym_partial",
    "sym_trace",
    "to_source",
    "verify_factorization",
]
