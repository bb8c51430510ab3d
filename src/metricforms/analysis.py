"""Full-run orchestration: build every derived object for a manifold and
quantify every identity of the suite at seeded sample points.

Residual tolerances, the ``TOL_*`` constants of ``geometry`` and
``factorization``, follow the derivative depth of each identity (the
third is the contracted divergence of the Einstein tensor), reflecting
conditioning loss per differentiation.  The decomposition-sum and
factored Ricci/Einstein rows are reported, never asserted: whether the
three-part curvature split reproduces the classical tensor in a general
frame is measured by this harness, and the observed residuals are
pinned as regression baselines by the acceptance suite rather than
assumed to vanish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart import Chart
from .errors import ChartError, NumericFaultError
from .expr import Expr, Tape
from .factorization import (
    TOL_RECONSTRUCTION,
    FactorizationCheck,
    FormSet,
    make_formset,
    orthogonality_residual,
    verify_factorization,
)
from . import geometry as geo
from .geometry import (
    Connection,
    FactoredCurvature,
    FlatnessReport,
    GeodesicComparison,
    KillingReport,
    RiemannParts,
)
from .manifolds import ManifoldSpec
from .tensor import (
    SINGULAR_BOUND,
    Tensor,
    antisym_cycle_residual,
    invert_metric,
    max_abs,
    max_imag,
    reader,
    require_finite,
)

DEFAULT_SEED = 0
DEFAULT_POINTS = 20
GEODESIC_SPOT_STEPS = 200
GEODESIC_SPOT_STEP_SIZE = 0.002


class GeometrySession:
    """Lazy builder for every object derived from one manifold + strategy.

    Numeric evaluation runs one tape, grown as tensors are asked for,
    with one slot list per sample point.  Expression nodes are interned,
    so every distinct subtree (connection components inside pre-currents
    inside curvature parts) is compiled once and computed once per point,
    however many times it was built.  Stacked tensor values are cached
    per tensor object.  Checks judge at the tolerances times ``tol_scale``.
    """

    def __init__(self, spec: ManifoldSpec, strategy: str = "auto",
                 seed: int = DEFAULT_SEED, n_points: int = DEFAULT_POINTS,
                 constants: dict[str, float] | None = None,
                 tol_scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.tol_scale = tol_scale
        self.metric = spec.metric(constants)
        self.chart: Chart = spec.chart
        if n_points < 1:
            raise ChartError("at least one sample point is required")
        self.points = self.chart.sample_points(n_points, seed)
        self._strategy = strategy
        self._tape = Tape()
        self._slots: list[list] = [[] for _ in self.points]
        self._vals_cache: dict[Tensor, np.ndarray] = {}

    # -- symbolic objects ---------------------------------------------------

    @cached_property
    def g_inv(self) -> Tensor:
        return invert_metric(self.metric)

    @cached_property
    def forms(self) -> FormSet:
        return make_formset(self.metric, self._strategy)

    @cached_property
    def conn(self) -> Connection:
        return geo.christoffel_classical(self.metric, self.g_inv)

    @cached_property
    def conn_factored(self) -> Connection:
        return geo.christoffel_factored(self.forms, self.curl, self.g_inv)

    @cached_property
    def curl(self) -> Tensor:
        """Exterior derivatives F_I = dA_I."""
        return geo.exterior_derivative(self.forms)

    @cached_property
    def sym_deriv(self) -> Tensor:
        """S via the direct covariant route."""
        return geo.sym_covariant_derivative(self.forms, self.conn)

    @cached_property
    def sym_deriv_alt(self) -> Tensor:
        """S rebuilt from F and orthogonality."""
        return geo.sym_derivative_via_factors(self.forms, self.curl, self.g_inv)

    @cached_property
    def sym_trace(self) -> Tensor:
        return geo.sym_trace(self.sym_deriv, self.g_inv)

    @cached_property
    def precurrent(self) -> Tensor:
        return geo.precurrents(self.curl, self.conn)

    @cached_property
    def current(self) -> Tensor:
        return geo.currents(self.precurrent, self.g_inv)

    @cached_property
    def riemann(self) -> tuple[Tensor, Tensor]:
        return geo.riemann_classical(self.conn, self.metric)

    @property
    def riemann_mixed(self) -> Tensor:
        return self.riemann[0]

    @property
    def riemann_lower(self) -> Tensor:
        return self.riemann[1]

    @cached_property
    def parts(self) -> RiemannParts:
        return geo.riemann_decomposed(self.forms, self.curl, self.sym_deriv,
                                      self.precurrent)

    @cached_property
    def ricci(self) -> Tensor:
        return geo.ricci_from_mixed(self.riemann_mixed)

    @cached_property
    def scalar(self) -> Expr:
        return geo.scalar_curvature(self.ricci, self.g_inv)

    @cached_property
    def einstein(self) -> Tensor:
        return geo.einstein_tensor(self.ricci, self.scalar, self.metric)

    @cached_property
    def factored(self) -> FactoredCurvature:
        return geo.ricci_einstein_factored(
            self.forms, self.curl, self.sym_deriv, self.sym_trace,
            self.precurrent, self.current, self.metric, self.g_inv)

    @cached_property
    def einstein_divergence(self) -> Tensor:
        return geo.covariant_divergence_sym2(self.einstein, self.conn,
                                             self.g_inv)

    @cached_property
    def metric_compat(self) -> Tensor:
        return geo.metric_compatibility(self.metric, self.conn)

    @cached_property
    def lie_deriv(self) -> Tensor:
        """Lie derivative of the metric along each form, L_{A_I} g."""
        return geo.lie_derivative_metric(self.forms, self.metric, self.g_inv)

    # -- numeric evaluation ---------------------------------------------------

    def vals(self, tensor: Tensor) -> np.ndarray:
        """Stacked component values, shape (n_points,) + component shape."""
        got = self._vals_cache.get(tensor)
        if got is None:
            self._run(tensor.comps.flat)
            read = reader(self._tape, tensor.comps)
            got = self._finite(np.stack([read(v) for v in self._slots]),
                               tensor)
            self._vals_cache[tensor] = got
        return got

    def scalar_vals(self, e: Expr) -> np.ndarray:
        self._run((e,))
        k = self._tape.slot_of(e)
        return self._finite(np.array([v[k] for v in self._slots]), e)

    def _run(self, roots) -> None:
        """Put ``roots`` on the tape and fill every point's slot list."""
        self._tape.extend(roots)
        for point, v in zip(self.points, self._slots):
            self._tape.run(point, v)

    def _finite(self, vals: np.ndarray, target: Tensor | Expr) -> np.ndarray:
        comps = target.comps if isinstance(target, Tensor) else target
        return require_finite(vals, comps, self._name_of(target), self.points)

    def _name_of(self, target: Tensor | Expr) -> str:
        """Attribute path of an object this session built, for messages."""
        for key, value in vars(self).items():
            members = [("", value), *getattr(value, "__dict__", {}).items()]
            if isinstance(value, tuple):
                members += [(str(k), v) for k, v in enumerate(value)]
            for sub, member in members:
                if member is target:
                    return f"{key}.{sub}" if sub else key
        return "a derived tensor"

    def route_residual(self, a: Tensor, b: Tensor) -> float:
        return max_abs(self.vals(a) - self.vals(b))

    @cached_property
    def metric_vals(self) -> np.ndarray:
        """Stacked metric values, real and regular."""
        return self.metric.values(self.points)

    # -- checks: reductions over stacked values -------------------------------

    @cached_property
    def factorization(self) -> FactorizationCheck:
        return verify_factorization(self.vals(self.forms), self.metric_vals,
                                    TOL_RECONSTRUCTION * self.tol_scale)

    @cached_property
    def orthogonality(self) -> float:
        return orthogonality_residual(self.vals(self.forms),
                                      self.metric_vals)

    @cached_property
    def killing(self) -> KillingReport:
        return geo.killing_check(self.vals(self.curl),
                                 self.vals(self.sym_deriv),
                                 self.vals(self.lie_deriv),
                                 geo.TOL_SECOND_DERIV * self.tol_scale)

    @cached_property
    def classification(self) -> FlatnessReport:
        tol = geo.TOL_SECOND_DERIV * self.tol_scale
        return geo.classify_flatness(self.vals(self.curl),
                                     self.vals(self.riemann_lower), tol, tol)

    def geodesic_spot_check(self, steps: int = GEODESIC_SPOT_STEPS,
                            h: float = GEODESIC_SPOT_STEP_SIZE
                            ) -> GeodesicComparison:
        """Short two-route integration from the domain midpoint along the
        normalized first coordinate direction."""
        mid = self.chart.midpoint()
        start = np.array([mid[c] for c in self.chart.coords])
        g0 = self.metric.evaluate(mid)
        if abs(g0[0, 0]) < SINGULAR_BOUND * max_abs(g0):
            raise NumericFaultError(
                "cannot normalize the spot-check velocity: g[0,0] vanishes "
                "at the domain midpoint")
        velocity = np.zeros(self.chart.dim)
        velocity[0] = 1.0 / np.sqrt(abs(g0[0, 0]))
        return geo.integrate_geodesic(self.metric, self.g_inv, self.conn,
                                      self.forms, self.curl, start, velocity,
                                      steps, h)


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRow:
    name: str
    residual: float
    tolerance: float | None     # None: reported, not asserted
    asserted: bool
    passed: bool | None

    @staticmethod
    def check(name: str, residual: float, tolerance: float) -> "IdentityRow":
        return IdentityRow(name, float(residual), tolerance, True,
                           bool(residual <= tolerance))

    @staticmethod
    def report(name: str, residual: float) -> "IdentityRow":
        return IdentityRow(name, float(residual), None, False, None)


@dataclass
class GeodesicCheck:
    divergence: float
    norm_drift: float
    steps: int
    step_size: float
    exited_domain: bool


@dataclass
class AnalysisReport:
    manifold: str
    strategy: str
    seed: int
    tol_scale: float
    points: list[dict[str, float]]
    identities: list[IdentityRow]
    tensor_summaries: list[tuple[str, float, float | None]]
    classification: FlatnessReport
    decomposition_per_point: list[float]
    factorization: FactorizationCheck
    form_choice: str
    pivot_permutation: tuple[int, ...] | None
    geodesic: GeodesicCheck
    elapsed_seconds: float

    @property
    def overall_pass(self) -> bool:
        rows_ok = all(row.passed for row in self.identities if row.asserted)
        return (rows_ok and self.factorization.passed
                and self.classification.verdict != geo.VERDICT_INCONSISTENT)

    def identity(self, name: str) -> IdentityRow:
        for row in self.identities:
            if row.name == name:
                return row
        raise KeyError(name)


def _pair_swap_residual(vals: np.ndarray, ax_a: int, ax_b: int,
                        sign: float) -> float:
    return max_abs(vals + sign * np.swapaxes(vals, ax_a, ax_b))


def _interchange_residual(vals: np.ndarray) -> float:
    # R[p,a,b,c,d] - R[p,c,d,a,b]
    return max_abs(vals - np.transpose(vals, (0, 3, 4, 1, 2)))


def run_analysis(spec: ManifoldSpec, strategy: str = "auto",
                 seed: int = DEFAULT_SEED, n_points: int = DEFAULT_POINTS,
                 tol_scale: float = 1.0,
                 constants: dict[str, float] | None = None) -> AnalysisReport:
    """Build all derived objects and measure every identity of the suite."""
    started = time.perf_counter()
    session = GeometrySession(spec, strategy, seed, n_points, constants,
                              tol_scale)
    (reconstruction, exact, first, second, third, imag_residue,
     geodesic_tol) = (tol * tol_scale for tol in (
        TOL_RECONSTRUCTION, geo.TOL_EXACT_CONSTRUCTION, geo.TOL_FIRST_DERIV,
        geo.TOL_SECOND_DERIV, geo.TOL_THIRD_DERIV, geo.TOL_IMAG_RESIDUE,
        geo.TOL_GEODESIC))
    rows: list[IdentityRow] = []

    # factorization level
    fact = session.factorization
    rows.append(IdentityRow.check("factorization_reconstruction",
                                  fact.max_residual, reconstruction))
    rows.append(IdentityRow.check("orthogonality_identity",
                                  session.orthogonality, first))

    # connection level
    gamma_gap = max(session.route_residual(session.conn.lower,
                                           session.conn_factored.lower),
                    session.route_residual(session.conn.mixed,
                                           session.conn_factored.mixed))
    rows.append(IdentityRow.check("christoffel_route_agreement",
                                  gamma_gap, first))
    rows.append(IdentityRow.check("metric_compatibility",
                                  max_abs(session.vals(session.metric_compat)),
                                  second))

    # first-derivative objects
    rows.append(IdentityRow.check(
        "sym_derivative_route_agreement",
        session.route_residual(session.sym_deriv, session.sym_deriv_alt),
        first))

    a_vals = session.vals(session.forms)
    s_vals = session.vals(session.sym_deriv)
    f_vals = session.vals(session.curl)
    balance = np.einsum("pic,piab->pcab", a_vals, s_vals) + 0.5 * (
        np.einsum("pia,pibc->pcab", a_vals, f_vals)
        + np.einsum("pib,piac->pcab", a_vals, f_vals))
    rows.append(IdentityRow.check("sym_antisym_cancellation",
                                  max_abs(balance), first))

    # pre-currents
    jp_vals = session.vals(session.precurrent)
    rows.append(IdentityRow.check("precurrent_pair_antisymmetry",
                                  _pair_swap_residual(jp_vals, 3, 4, +1.0),
                                  exact))
    rows.append(IdentityRow.check("precurrent_cyclic_identity",
                                  antisym_cycle_residual(jp_vals, (2, 3, 4)),
                                  second))

    # classical curvature symmetries
    r_vals = session.vals(session.riemann_lower)
    rows.append(IdentityRow.check("riemann_antisym_first_pair",
                                  _pair_swap_residual(r_vals, 1, 2, +1.0),
                                  second))
    rows.append(IdentityRow.check("riemann_antisym_second_pair",
                                  _pair_swap_residual(r_vals, 3, 4, +1.0),
                                  second))
    rows.append(IdentityRow.check("riemann_pair_interchange",
                                  _interchange_residual(r_vals), second))
    rows.append(IdentityRow.check("riemann_first_bianchi",
                                  antisym_cycle_residual(r_vals, (2, 3, 4)),
                                  second))

    # per-term first Bianchi of the decomposition
    for label, tensor in (("bianchi_current_part", session.parts.current_part),
                          ("bianchi_form_part", session.parts.form_part),
                          ("bianchi_sym_part", session.parts.sym_part)):
        rows.append(IdentityRow.check(
            label, antisym_cycle_residual(session.vals(tensor), (2, 3, 4)),
            second))

    # decomposition vs classical: measured, never asserted here
    total_vals = session.vals(session.parts.total)
    per_point = np.max(np.abs(total_vals - r_vals),
                       axis=(1, 2, 3, 4)).tolist()
    rows.append(IdentityRow.report("decomposition_sum_vs_classical",
                                   max(per_point)))

    # Ricci / scalar / Einstein, both routes
    ricci_vals = session.vals(session.ricci)
    ricci_f_vals = session.vals(session.factored.ricci)
    rows.append(IdentityRow.report("ricci_factored_vs_classical",
                                   max_abs(ricci_vals - ricci_f_vals)))
    scalar_gap = max_abs(session.scalar_vals(session.scalar)
                         - session.scalar_vals(session.factored.scalar))
    rows.append(IdentityRow.report("scalar_curvature_factored_vs_classical",
                                   scalar_gap))
    rows.append(IdentityRow.report(
        "einstein_split_vs_classical",
        session.route_residual(session.einstein, session.factored.einstein)))

    # contract the decomposed Riemann ourselves and compare with the
    # factored Ricci formula (printed-formula consistency)
    contracted = geo.ricci_from_lower(total_vals, session.vals(session.g_inv))
    rows.append(IdentityRow.report(
        "ricci_decomposition_contraction_consistency",
        max_abs(contracted - ricci_f_vals)))

    # Killing / Lie derivative, the set's closedness judged at the scaled
    # second-derivative bound
    killing = session.killing
    rows.append(IdentityRow.check("lie_derivative_identity",
                                  killing.lie_vs_2s, first))
    # S and L_A g vanish only for a closed set: otherwise measured
    rows.append(IdentityRow.check("killing_closed_set",
                                  killing.killing_residual, first)
                if killing.set_closed else
                IdentityRow.report("killing_closed_set",
                                   killing.killing_residual))

    # physical tensors must be real
    imag = 0.0
    for tensor in (session.metric, session.conn.lower,
                   session.conn.mixed, session.conn_factored.lower,
                   session.riemann_lower, session.parts.total,
                   session.ricci, session.factored.ricci, session.einstein,
                   session.factored.einstein, session.parts.current_part,
                   session.parts.form_part, session.parts.sym_part):
        imag = max(imag, max_imag(session.vals(tensor)))
    rows.append(IdentityRow.check("imaginary_residue_physical", imag,
                                  imag_residue))

    # third-derivative level
    rows.append(IdentityRow.check(
        "contracted_bianchi_classical",
        max_abs(session.vals(session.einstein_divergence)), third))

    # geodesic spot check from the domain midpoint
    comparison = session.geodesic_spot_check()
    rows.append(IdentityRow.check("geodesic_route_divergence",
                                  comparison.divergence, geodesic_tol))
    rows.append(IdentityRow.check("geodesic_norm_drift",
                                  comparison.norm_drift, geodesic_tol))
    geodesic = GeodesicCheck(comparison.divergence, comparison.norm_drift,
                             GEODESIC_SPOT_STEPS, GEODESIC_SPOT_STEP_SIZE,
                             comparison.classical.exited_domain
                             or comparison.factored.exited_domain)

    summaries = _tensor_summaries(session)
    elapsed = time.perf_counter() - started
    return AnalysisReport(
        manifold=spec.name,
        strategy=session.forms.strategy,
        seed=seed,
        tol_scale=tol_scale,
        points=session.points,
        identities=rows,
        tensor_summaries=summaries,
        classification=session.classification,
        decomposition_per_point=per_point,
        factorization=fact,
        form_choice=session.forms.choice,
        pivot_permutation=session.forms.permutation,
        geodesic=geodesic,
        elapsed_seconds=elapsed,
    )


def _tensor_summaries(session: GeometrySession
                      ) -> list[tuple[str, float, float | None]]:
    """Name, max |component|, max |imaginary part| (None when complex values
    are expected, i.e. for the form set and its direct derivatives)."""
    out = [("metric", max_abs(session.vals(session.metric)),
            max_imag(session.vals(session.metric))),
           ("metric_inverse", max_abs(session.vals(session.g_inv)),
            max_imag(session.vals(session.g_inv))),
           ("forms", max_abs(session.vals(session.forms)), None),
           ("exterior_derivative", max_abs(session.vals(session.curl)), None),
           ("sym_derivative", max_abs(session.vals(session.sym_deriv)), None),
           ("precurrents", max_abs(session.vals(session.precurrent)), None),
           ("currents", max_abs(session.vals(session.current)), None)]
    for name, tensor in (
            ("christoffel_classical", session.conn.lower),
            ("christoffel_factored", session.conn_factored.lower),
            ("riemann_classical", session.riemann_lower),
            ("riemann_current_part", session.parts.current_part),
            ("riemann_form_part", session.parts.form_part),
            ("riemann_sym_part", session.parts.sym_part),
            ("riemann_decomposed_sum", session.parts.total),
            ("ricci_classical", session.ricci),
            ("ricci_factored", session.factored.ricci),
            ("einstein_classical", session.einstein),
            ("stress_form", session.factored.stress_form),
            ("stress_current", session.factored.stress_current),
            ("stress_sym", session.factored.stress_sym)):
        vals = session.vals(tensor)
        out.append((name, max_abs(vals), max_imag(vals)))
    return out
