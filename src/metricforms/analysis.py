"""Full-run orchestration: build every derived object for a manifold and
quantify every identity of the suite at seeded sample points.

By the rule of ``geometry``, the symbolic objects are the forms, F, P,
A^c, g, g^-1, the classical Gamma and the second partials of g, read at
the points by walks.  Everything else (both S, the factored Gamma,
nabla g, L_A g, the classical curvature from the jets of g and the
factored side past the first derivatives) is computed at the points from
forward-mode tangents and ``np.einsum``, and the session holds it as
arrays.

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
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chart import Chart
from .derivative import tangents
from .errors import ChartError, NumericFaultError
from .expr import Expr, walk
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
    ClassicalCurvature,
    Connection,
    ConnectionValues,
    FactoredCurvature,
    FlatnessReport,
    GeodesicComparison,
    KillingReport,
    MetricJets,
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
    require_finite,
    values_at,
)

DEFAULT_SEED = 0
DEFAULT_POINTS = 20
GEODESIC_SPOT_STEPS = 200
GEODESIC_SPOT_STEP_SIZE = 0.002


class Tolerances(NamedTuple):
    """The suite's residual bounds; a session holds them times its
    ``tol_scale``."""
    reconstruction: float = TOL_RECONSTRUCTION
    exact: float = geo.TOL_EXACT_CONSTRUCTION
    first: float = geo.TOL_FIRST_DERIV
    second: float = geo.TOL_SECOND_DERIV
    third: float = geo.TOL_THIRD_DERIV
    imag_residue: float = geo.TOL_IMAG_RESIDUE
    geodesic: float = geo.TOL_GEODESIC


class GeometrySession:
    """Lazy builder for every object derived from one manifold + strategy.

    Only the symbolic objects of the rule (module docstring) pass through
    ``vals``: one walk of a tensor at all the points, cached per tensor,
    over one memo from node to values that the tangents (``_gradient``,
    computed on demand, cached for g alone) read too.  Nodes are interned,
    so each distinct subtree is computed once per point.  Every other object
    is an array at the points, built by ``_checked`` under its own name from
    what ``vals`` and ``_gradient`` read: no builder reads at the points.
    The symbolic builders share one differentiator per coordinate, ``diff``,
    so no (node, coordinate) pair is differentiated twice, and the
    contractions several of them read (``sym_partial``, ``forms_raised``)
    are built once.  Checks judge at the scaled tolerances ``tol``.
    """

    def __init__(self, spec: ManifoldSpec, strategy: str = "auto",
                 seed: int = DEFAULT_SEED, n_points: int = DEFAULT_POINTS,
                 tol_scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.tol = Tolerances(*(tol * tol_scale for tol in Tolerances()))
        self.metric = spec.metric()
        self.chart: Chart = spec.chart
        if n_points < 1:
            raise ChartError("at least one sample point is required")
        self.points = self.chart.sample_points(n_points, seed)
        # the metric is judged at its check points before anything reads
        # it, so every command names a fault there at the same point
        self.metric.check_values
        # one per coordinate, shared by every builder of this session
        self.diff = geo.differentiators(self.chart)
        self._strategy = strategy
        self._memo: dict[Expr, list] = {}     # node -> values at the points
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
        return geo.christoffel_classical(self.metric, self.g_inv, self.diff)

    @cached_property
    def sym_partial(self) -> Tensor:
        """P = sym dA, read by the factored connection and the factored
        geodesic right-hand side."""
        return geo.sym_partial(self.forms, self.diff)

    @cached_property
    def forms_raised(self) -> Tensor:
        """A_I^c = g^cd A_Id, read by the S from F, the factored Ricci,
        the Lie derivative and the factored geodesic right-hand side."""
        return geo.raise_forms(self.forms, self.g_inv)

    @cached_property
    def curl(self) -> Tensor:
        """Exterior derivatives F_I = dA_I."""
        return geo.exterior_derivative(self.forms, self.diff)

    @cached_property
    def metric_jets(self) -> MetricJets:
        """d_k d_l g_ab (``geometry.metric_second_partials``)."""
        return geo.metric_second_partials(self.metric, self.diff)

    # -- objects at the points ---------------------------------------------

    @cached_property
    def conn_factored(self) -> ConnectionValues:
        return self._checked(
            "conn_factored", geo.christoffel_factored,
            *map(self.vals, (self.forms, self.curl, self.sym_partial,
                             self.g_inv)))

    @cached_property
    def sym_deriv(self) -> np.ndarray:
        """S via the direct covariant route."""
        return self._checked("sym_deriv", geo.sym_covariant_derivative,
                             *self._covariant(self.forms, 1))

    @cached_property
    def sym_deriv_alt(self) -> np.ndarray:
        """S rebuilt from F and orthogonality."""
        return self._checked(
            "sym_deriv_alt", geo.sym_derivative_via_factors,
            *map(self.vals, (self.forms, self.curl, self.forms_raised)))

    @cached_property
    def sym_trace(self) -> np.ndarray:
        return self._checked("sym_trace", geo.sym_trace, self.sym_deriv,
                             self.vals(self.g_inv))

    @cached_property
    def precurrent(self) -> np.ndarray:
        return self._checked("precurrent", geo.precurrents,
                             *self._covariant(self.curl, 1))

    @cached_property
    def current(self) -> np.ndarray:
        return self._checked("current", geo.currents, self.precurrent,
                             self.vals(self.g_inv))

    @cached_property
    def riemann_lower(self) -> np.ndarray:
        """R_abcd = g_ae R^e_bcd at the points."""
        return self._checked("riemann_lower", np.einsum, "pebcd,pae->pabcd",
                             self.riemann_mixed, self.metric_vals)

    @cached_property
    def parts(self) -> RiemannParts:
        return self._checked(
            "parts", geo.riemann_decomposed,
            *map(self.vals, (self.forms, self.curl)), self.sym_deriv,
            self.precurrent)

    @cached_property
    def factored(self) -> FactoredCurvature:
        return self._checked(
            "factored", geo.ricci_einstein_factored,
            *map(self.vals, (self.forms, self.curl)), self.sym_deriv,
            self.sym_trace, self.precurrent, self.current, self.metric_vals,
            *map(self.vals, (self.g_inv, self.forms_raised)))

    @cached_property
    def curvature(self) -> ClassicalCurvature:
        """R^a_bcd, Ric, the scalar, G and nabla.G from the jets of g."""
        jet2, pairs = self.metric_jets.second, self.metric_jets.pairs
        if not pairs:   # no coordinate in g: every jet, so all, vanish
            return ClassicalCurvature(*(
                np.zeros((len(self.points),) + (self.chart.dim,) * rank)
                for rank in (4, 2, 0, 2, 1)), 0.0)
        return self._checked(
            "curvature", geo.classical_curvature, self.metric_vals,
            self.vals(self.g_inv), self.metric_grad, self.vals(jet2),
            self._gradient(jet2, 1), pairs,
            *map(self.vals, (self.conn.lower, self.conn.mixed)))

    riemann_mixed = property(attrgetter("curvature.riemann_mixed"))
    ricci = property(attrgetter("curvature.ricci"))
    scalar = property(attrgetter("curvature.scalar"))
    einstein = property(attrgetter("curvature.einstein"))
    einstein_divergence = property(attrgetter("curvature.einstein_divergence"))

    @cached_property
    def metric_compat(self) -> np.ndarray:
        return self._checked("metric_compat", geo.metric_compatibility,
                             self.vals(self.metric), self.metric_grad,
                             self.vals(self.conn.mixed))

    @cached_property
    def lie_deriv(self) -> np.ndarray:
        """Lie derivative of the metric along each form, L_{A_I} g."""
        return self._checked(
            "lie_deriv", geo.lie_derivative_metric, self.metric_vals,
            self.metric_grad, self.vals(self.forms_raised),
            self._gradient(self.forms_raised, 1))

    # -- numeric evaluation ---------------------------------------------------

    def vals(self, tensor: Tensor) -> np.ndarray:
        """Stacked component values, shape (n_points,) + component shape."""
        got = self._vals_cache.get(tensor)
        if got is None:
            got = self._finite(values_at(tensor.comps, self.points,
                                         self._memo), tensor)
            self._vals_cache[tensor] = got
        return got

    def scalar_vals(self, e: Expr) -> np.ndarray:
        return self._finite(np.array(walk((e,), self.points,
                                          self._memo)[0]), e)

    def _finite(self, vals: np.ndarray, target: Tensor | Expr) -> np.ndarray:
        if np.isfinite(vals).all():
            return vals
        comps = target.comps if isinstance(target, Tensor) else target
        return require_finite(vals, comps, self._name_of(target), self.points)

    def _checked(self, name: str, build, *args):
        """``build(*args)``, an array or a dataclass of arrays at the points,
        or EvalDomainError naming where it is not finite; numpy need not
        warn of the overflow that made it so."""
        with np.errstate(all="ignore"):
            vals = build(*args)
        for sub, member in getattr(vals, "__dict__", {"": vals}).items():
            require_finite(member, None, ".".join(filter(None, (name, sub))),
                           self.points)
        return vals

    def _name_of(self, target: Tensor | Expr) -> str:
        """Attribute path of an object this session built, for messages."""
        for key, value in vars(self).items():
            for sub, member in [("", value),
                                *getattr(value, "__dict__", {}).items()]:
                if member is target:
                    return f"{key}.{sub}" if sub else key
        return "a derived tensor"

    def _gradient(self, tensor: Tensor, labels: int = 0) -> np.ndarray:
        """d[p, labels..., k, slots...] = d_k tensor[labels..., slots...] at
        the points, from ``derivative.tangents`` over this session's memo:
        the derivative slot follows the leading ``labels`` axes."""
        comps = tensor.comps
        d = tangents(comps.flat, self.points, self.chart.coords, self._memo)
        d = d.reshape(*comps.shape, self.chart.dim, len(self.points))
        return np.moveaxis(d, (-1, -2), (0, labels + 1))

    def _covariant(self, tensor: Tensor, labels: int = 0) -> tuple:
        """The values of ``tensor``, its tangents and Gamma^c_ab, as
        ``geometry.covariant_derivative`` takes them."""
        return (self.vals(tensor), self._gradient(tensor, labels),
                self.vals(self.conn.mixed))

    @cached_property
    def metric_grad(self) -> np.ndarray:
        """d_k g_ab at the points, read by nabla g, L_A g and curvature."""
        return self._gradient(self.metric)

    @cached_property
    def metric_vals(self) -> np.ndarray:
        """The metric's ``vals``, judged real and regular by
        ``MetricField.values``."""
        return self.metric.values(self.points, self.vals(self.metric))

    # -- checks: reductions over stacked values -------------------------------

    @cached_property
    def factorization(self) -> FactorizationCheck:
        return verify_factorization(self.vals(self.forms), self.metric_vals,
                                    self.tol.reconstruction)

    @cached_property
    def orthogonality(self) -> float:
        return orthogonality_residual(self.vals(self.forms),
                                      self.metric_vals)

    @cached_property
    def killing(self) -> KillingReport:
        return geo.killing_check(self.vals(self.curl), self.sym_deriv,
                                 self.lie_deriv, self.tol.second)

    @cached_property
    def classification(self) -> FlatnessReport:
        return geo.classify_flatness(self.vals(self.curl), self.riemann_lower,
                                     self.tol.second, self.tol.second)

    def geodesic_spot_check(self) -> GeodesicComparison:
        """Two-route integration of ``GEODESIC_SPOT_STEPS`` steps of
        ``GEODESIC_SPOT_STEP_SIZE`` from the domain midpoint along the
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
                                      self.forms, self.curl, self.sym_partial,
                                      self.forms_raised, start, velocity,
                                      GEODESIC_SPOT_STEPS,
                                      GEODESIC_SPOT_STEP_SIZE)


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
                 tol_scale: float = 1.0) -> AnalysisReport:
    """Build all derived objects and measure every identity of the suite."""
    started = time.perf_counter()
    session = GeometrySession(spec, strategy, seed, n_points, tol_scale)
    tol = session.tol
    rows: list[IdentityRow] = []

    # factorization level
    fact = session.factorization
    rows.append(IdentityRow.check("factorization_reconstruction",
                                  fact.max_residual, tol.reconstruction))
    rows.append(IdentityRow.check("orthogonality_identity",
                                  session.orthogonality, tol.first))

    # connection level
    conn, factored_conn = session.conn, session.conn_factored
    gamma_gap = max(
        max_abs(session.vals(conn.lower) - factored_conn.lower),
        max_abs(session.vals(conn.mixed) - factored_conn.mixed))
    rows.append(IdentityRow.check("christoffel_route_agreement",
                                  gamma_gap, tol.first))
    rows.append(IdentityRow.check("metric_compatibility",
                                  max_abs(session.metric_compat), tol.second))

    # first-derivative objects
    s_vals = session.sym_deriv
    rows.append(IdentityRow.check(
        "sym_derivative_route_agreement",
        max_abs(s_vals - session.sym_deriv_alt), tol.first))

    a_vals = session.vals(session.forms)
    balance = (np.einsum("pic,piab->pcab", a_vals, s_vals)
               + 0.5 * geo._form_cross(a_vals, session.vals(session.curl)))
    rows.append(IdentityRow.check("sym_antisym_cancellation",
                                  max_abs(balance), tol.first))

    # pre-currents
    jp_vals = session.precurrent
    rows.append(IdentityRow.check("precurrent_pair_antisymmetry",
                                  _pair_swap_residual(jp_vals, 3, 4, +1.0),
                                  tol.exact))
    rows.append(IdentityRow.check("precurrent_cyclic_identity",
                                  antisym_cycle_residual(jp_vals, (2, 3, 4)),
                                  tol.second))

    # classical curvature symmetries
    r_vals = session.riemann_lower
    rows.append(IdentityRow.check("riemann_antisym_first_pair",
                                  _pair_swap_residual(r_vals, 1, 2, +1.0),
                                  tol.second))
    rows.append(IdentityRow.check("riemann_antisym_second_pair",
                                  _pair_swap_residual(r_vals, 3, 4, +1.0),
                                  tol.second))
    rows.append(IdentityRow.check("riemann_pair_interchange",
                                  _interchange_residual(r_vals), tol.second))
    rows.append(IdentityRow.check("riemann_first_bianchi",
                                  antisym_cycle_residual(r_vals, (2, 3, 4)),
                                  tol.second))

    # per-term first Bianchi of the decomposition
    parts = session.parts
    for label, vals in (("bianchi_current_part", parts.current_part),
                        ("bianchi_form_part", parts.form_part),
                        ("bianchi_sym_part", parts.sym_part)):
        rows.append(IdentityRow.check(
            label, antisym_cycle_residual(vals, (2, 3, 4)), tol.second))

    # decomposition vs classical: measured, never asserted here
    total_vals = parts.total
    per_point = np.max(np.abs(total_vals - r_vals),
                       axis=(1, 2, 3, 4)).tolist()
    rows.append(IdentityRow.report("decomposition_sum_vs_classical",
                                   max(per_point)))

    # Ricci / scalar / Einstein, both routes
    factored = session.factored
    ricci_f_vals = factored.ricci
    rows.append(IdentityRow.report("ricci_factored_vs_classical",
                                   max_abs(session.ricci - ricci_f_vals)))
    scalar_gap = max_abs(session.scalar - factored.scalar)
    rows.append(IdentityRow.report("scalar_curvature_factored_vs_classical",
                                   scalar_gap))
    rows.append(IdentityRow.report(
        "einstein_split_vs_classical",
        max_abs(session.einstein - factored.einstein)))

    # contract the decomposed Riemann ourselves and compare with the
    # factored Ricci formula (printed-formula consistency)
    contracted = np.einsum("pcd,pcadb->pab", session.vals(session.g_inv),
                           total_vals)
    rows.append(IdentityRow.report(
        "ricci_decomposition_contraction_consistency",
        max_abs(contracted - ricci_f_vals)))

    # Killing / Lie derivative, the set's closedness judged at the scaled
    # second-derivative bound
    killing = session.killing
    rows.append(IdentityRow.check("lie_derivative_identity",
                                  killing.lie_vs_2s, tol.first))
    # S and L_A g vanish only for a closed set: otherwise measured
    rows.append(IdentityRow.check("killing_closed_set",
                                  killing.killing_residual, tol.first)
                if killing.set_closed else
                IdentityRow.report("killing_closed_set",
                                   killing.killing_residual))

    # physical tensors must be real
    imag = max(session.curvature.imag_residue, *map(max_imag, (
        *map(session.vals, (session.metric, conn.lower, conn.mixed)),
        factored_conn.lower, r_vals, parts.total, factored.ricci,
        factored.einstein, parts.current_part, parts.form_part,
        parts.sym_part)))
    rows.append(IdentityRow.check("imaginary_residue_physical", imag,
                                  tol.imag_residue))

    # third-derivative level
    rows.append(IdentityRow.check(
        "contracted_bianchi_classical",
        max_abs(session.einstein_divergence), tol.third))

    # geodesic spot check from the domain midpoint
    comparison = session.geodesic_spot_check()
    rows.append(IdentityRow.check("geodesic_route_divergence",
                                  comparison.divergence, tol.geodesic))
    rows.append(IdentityRow.check("geodesic_norm_drift",
                                  comparison.norm_drift, tol.geodesic))
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
    v, parts, factored = session.vals, session.parts, session.factored
    named = (("metric", v(session.metric), True),
             ("metric_inverse", v(session.g_inv), True),
             ("forms", v(session.forms), False),
             ("exterior_derivative", v(session.curl), False),
             ("sym_derivative", session.sym_deriv, False),
             ("precurrents", session.precurrent, False),
             ("currents", session.current, False),
             ("christoffel_classical", v(session.conn.lower), True),
             ("christoffel_factored", session.conn_factored.lower, True),
             ("riemann_classical", session.riemann_lower, True),
             ("riemann_current_part", parts.current_part, True),
             ("riemann_form_part", parts.form_part, True),
             ("riemann_sym_part", parts.sym_part, True),
             ("riemann_decomposed_sum", parts.total, True),
             ("ricci_classical", session.ricci, True),
             ("ricci_factored", factored.ricci, True),
             ("einstein_classical", session.einstein, True),
             ("stress_form", factored.stress_form, True),
             ("stress_current", factored.stress_current, True),
             ("stress_sym", factored.stress_sym, True))
    return [(name, max_abs(vals), max_imag(vals) if real else None)
            for name, vals, real in named]
