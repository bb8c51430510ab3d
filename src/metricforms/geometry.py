"""Geometric objects along two analytical routes.

The classical route is the textbook pipeline g -> Christoffel -> Riemann
-> Ricci -> Einstein and serves as the verification oracle throughout.
The factored route rebuilds the same objects from a form set A with
A (.) A = g and its derived objects:

    F_Iab = d A_I            (antisymmetrized coordinate derivative)
    S_Iab = sym cov. deriv.  (symmetric part of nabla A, F-determined)
    J_Iabc = nabla_a F_Ibc   (pre-current)
    J_Ib   = nabla^a F_Iab   (current, trace of the raised pre-current)

and the three-part curvature split R = R(c) + R(f) + R(s) built from
currents, F squares, and S squares respectively.  Every covariant
derivative on the factored route uses the classical connection, so a
discrepancy between routes is attributable to the factored formulas and
not to compounded connection error.

Index layout of component arrays (set axis first where present):
Gamma[c,a,b], F[I,a,b], S[I,a,b], J_pre[I,a,b,c] = nabla_a F_Ibc,
J[I,b], Riemann[a,b,c,d].  Coordinate derivatives are stacked with the
derivative slot first, d[k, ...] = d_k (...), so a derivative is one more
index.

Every symbolic builder returns the formula in its docstring as built:
index contractions through ``tensor.einsum``, sums and scalings through
numpy object arithmetic, and no simplification (every object is
compared numerically with the other route, never by its symbolic form).
A pair hint builds only one half of an (anti)symmetric pair of slots
and mirrors the rest, so mirrored components share one node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart import Chart
from .errors import EvalDomainError, NumericFaultError, TensorError
from . import expr as ex
from .expr import Differentiator, Expr, Tape
from .factorization import FormSet
from .tensor import (
    MetricField,
    Pair,
    Tensor,
    einsum,
    elementwise,
    max_abs,
    mirror,
)

#: residual tolerances by derivative depth of the identity being checked
TOL_FIRST_DERIV = 1e-9
TOL_SECOND_DERIV = 1e-8
TOL_THIRD_DERIV = 1e-7
TOL_EXACT_CONSTRUCTION = 1e-12
TOL_IMAG_RESIDUE = 1e-10
TOL_GEODESIC = 1e-6


@dataclass
class Connection:
    """Levi-Civita connection components, all-lower and mixed."""

    chart: Chart
    lower: Tensor    # Gamma_cab
    mixed: Tensor    # Gamma^c_ab
    route: str       # "classical" | "factored"


def _partials(chart: Chart, comps: np.ndarray) -> np.ndarray:
    """d[k, idx] = d/dx_k comps[idx]: the derivative slot is the first
    axis, one shared-cache differentiator per coordinate."""
    return np.stack([elementwise(Differentiator(coord), comps)
                     for coord in chart.coords])


#: pair hints for einsum and mirror: which two component axes are
#: symmetric (+1) or antisymmetric (-1)
_SYM01 = (0, 1, +1)
_SYM12 = (1, 2, +1)
_ANTI12 = (1, 2, -1)
_ANTI23 = (2, 3, -1)


def _connection(chart: Chart, lower: np.ndarray, g_inv: Tensor,
                route: str) -> Connection:
    """Connection from its all-lower components, raising the first slot:
    Gamma^c_ab = g^cd Gamma_dab."""
    mixed = einsum("cd,dab->cab", g_inv.comps, lower, pair=_SYM12)
    return Connection(chart, Tensor(lower), Tensor(mixed), route)


def christoffel_classical(g: MetricField, g_inv: Tensor) -> Connection:
    """Gamma_cab = (d_a g_cb + d_b g_ca - d_c g_ab) / 2."""
    dg = _partials(g.chart, g.comps)
    lower = einsum("acb->cab + bca->cab - cab->cab", dg, dg, dg,
                   pair=_SYM12) * ex.HALF
    return _connection(g.chart, lower, g_inv, "classical")


def sym_partial(forms: FormSet) -> Tensor:
    """P[I,a,b] = symmetrized coordinate derivative of the forms."""
    da = _partials(forms.chart, forms.comps)
    return Tensor(einsum("aib->iab + bia->iab", da, da, pair=_SYM12)
                  * ex.HALF)


def _form_cross(a_comps: np.ndarray, f_comps: np.ndarray) -> np.ndarray:
    """X[c,a,b] = A_a (.) F_bc + A_b (.) F_ac."""
    return einsum("ia,ibc->cab + ib,iac->cab", a_comps, f_comps, a_comps,
                  f_comps, pair=_SYM12)


def christoffel_factored(forms: FormSet, f: Tensor, g_inv: Tensor) -> Connection:
    """Connection rebuilt from the form set:

    Gamma_cab = A_c (.) sym dA_ab + [A_a (.) F_bc + A_b (.) F_ac] / 2
    """
    ac = forms.comps
    p = sym_partial(forms).comps
    lower = (einsum("ic,iab->cab", ac, p, pair=_SYM12)
             + _form_cross(ac, f.comps) * ex.HALF)
    return _connection(forms.chart, lower, g_inv, "factored")


def exterior_derivative(forms: FormSet) -> Tensor:
    """F[I,a,b] = d_a A_Ib - d_b A_Ia; antisymmetric by construction."""
    da = _partials(forms.chart, forms.comps)
    return Tensor(einsum("aib->iab - bia->iab", da, da, pair=_ANTI12))


def sym_covariant_derivative(forms: FormSet, conn: Connection) -> Tensor:
    """S[I,a,b] = sym part of nabla_a A_Ib, via the classical connection."""
    if conn.route != "classical":
        raise TensorError("the direct symmetric derivative is defined "
                          "against the classical connection")
    ac = forms.comps
    p = sym_partial(forms).comps
    return Tensor(p - einsum("cab,ic->iab", conn.mixed.comps, ac,
                             pair=_SYM12))


def sym_derivative_via_factors(forms: FormSet, f: Tensor,
                               g_inv: Tensor) -> Tensor:
    """S rebuilt from F alone:

    S[J,a,b] = -A_J^c [A_a (.) F_bc + A_b (.) F_ac] / 2

    Valid because the form rows are orthonormal against the inverse
    metric (A_Ic A_J^c = delta_IJ).
    """
    ac = forms.comps
    a_up = einsum("cd,id->ic", g_inv.comps, ac)
    return Tensor(einsum("jc,cab->jab", a_up, _form_cross(ac, f.comps),
                         pair=_SYM12) * ex.Const(-0.5))


def sym_trace(s: Tensor, g_inv: Tensor) -> Tensor:
    """Scalar trace S_I = g^{ab} S_Iab per form (unnormalized gauge)."""
    return Tensor(einsum("ab,iab->i", g_inv.comps, s.comps))


def precurrents(f: Tensor, conn: Connection) -> Tensor:
    """J[I,a,b,c] = nabla_a F_Ibc with the classical connection.

    Pair antisymmetry in (b,c) is structural; the cyclic identity over
    (a,b,c) holds because F is exact (dF = ddA = 0) and is checked
    numerically downstream.
    """
    if conn.route != "classical":
        raise TensorError("pre-currents use the classical connection")
    fc = f.comps
    gm = conn.mixed.comps
    df = _partials(conn.chart, fc)
    jp = einsum("aibc->iabc", df, pair=_ANTI23) - einsum(
        "eab,iec->iabc + eac,ibe->iabc", gm, fc, gm, fc, pair=_ANTI23)
    # the difference of two mirrored halves stores neg(a) - neg(b) below the
    # diagonal; mirror again to store the negation of the built component
    return Tensor(mirror(jp, _ANTI23))


def currents(j_pre: Tensor, g_inv: Tensor) -> Tensor:
    """J[I,b] = nabla^a F_Iab: trace of the pre-current with its derivative
    slot raised against the first form slot."""
    return Tensor(einsum("ad,idab->ib", g_inv.comps, j_pre.comps))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def riemann_classical(conn: Connection, g: MetricField) -> tuple[Tensor, Tensor]:
    """R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_ec G^e_bd - G^a_ed G^e_bc,
    returned mixed and all-lower.  This is the oracle route."""
    gm = conn.mixed.comps
    dgm = _partials(conn.chart, gm)
    mixed = einsum(
        "cabd->abcd - dabc->abcd + aec,ebd->abcd - aed,ebc->abcd",
        dgm, dgm, gm, gm, gm, gm, pair=_ANTI23)
    return Tensor(mixed), Tensor(einsum("ae,ebcd->abcd", g.comps, mixed))


@dataclass
class RiemannParts:
    """Three-part split of the all-lower Riemann tensor."""

    current_part: Tensor   # built from A and pre-currents
    form_part: Tensor      # built from F (.) F squares
    sym_part: Tensor       # built from S (.) S squares

    @cached_property
    def total(self) -> Tensor:
        return self.current_part + self.form_part + self.sym_part


def riemann_decomposed(forms: FormSet, f: Tensor, s: Tensor,
                       j_pre: Tensor) -> RiemannParts:
    """R(c) = (A_a.J_bcd - A_b.J_acd + A_c.J_dab - A_d.J_cab) / 2
    R(f) = (F_ad.F_bc - F_ac.F_bd - 2 F_ab.F_cd) / 4
    R(s) = S_ac.S_bd - S_ad.S_bc

    with (.) contracting the set axis.  All inputs must come from one
    form set and the classical connection.
    """
    ac = forms.comps
    fc, sc, jp = f.comps, s.comps, j_pre.comps
    rc = einsum("ia,ibcd->abcd - ib,iacd->abcd + ic,idab->abcd "
                "- id,icab->abcd", ac, jp, ac, jp, ac, jp, ac, jp,
                pair=_ANTI23) * ex.HALF
    rf = einsum("iad,ibc->abcd - iac,ibd->abcd + ,iab,icd->abcd",
                fc, fc, fc, fc, ex.Const(-2), fc, fc,
                pair=_ANTI23) * ex.Const(0.25)
    rs = einsum("iac,ibd->abcd - iad,ibc->abcd", sc, sc, sc, sc,
                pair=_ANTI23)
    # scaling the mirrored half gives Mul(c, Neg(sum)); mirror again to
    # store Neg(Mul(c, sum)), the negation of the built component
    return RiemannParts(Tensor(mirror(rc, _ANTI23)),
                        Tensor(mirror(rf, _ANTI23)), Tensor(rs))


def ricci_from_mixed(riemann_mixed: Tensor) -> Tensor:
    """Ric[a,b] = R^c_{acb}; mirrored since Ricci is symmetric."""
    return Tensor(einsum("cacb->ab", riemann_mixed.comps, pair=_SYM01))


def ricci_from_lower(riemann_lower_vals: np.ndarray,
                     g_inv_vals: np.ndarray) -> np.ndarray:
    """Numeric contraction Ric[a,b] = g^{cd} R[c,a,d,b], over any leading
    (stacking) axes."""
    return np.einsum("...cd,...cadb->...ab", g_inv_vals, riemann_lower_vals)


def scalar_curvature(ricci: Tensor, g_inv: Tensor) -> Expr:
    """R = g^ab Ric_ab."""
    return einsum("ab,ab->", g_inv.comps, ricci.comps)[()]


def einstein_tensor(ricci: Tensor, scalar: Expr, g: MetricField) -> Tensor:
    """G[a,b] = Ric[a,b] - g[a,b] R / 2 (exact identity of this route)."""
    return Tensor(ricci.comps - ex.HALF * g.comps * scalar)


@dataclass
class FactoredCurvature:
    """Ricci, scalar curvature and the Einstein split of the factored route."""

    ricci: Tensor
    scalar: Expr
    stress_form: Tensor      # -3/4 (F.F - g F.F / 2)
    stress_current: Tensor   # current-built part plus its trace term
    stress_sym: Tensor       # S-built part plus its trace terms

    @cached_property
    def einstein(self) -> Tensor:
        return self.stress_form + self.stress_current + self.stress_sym


def ricci_einstein_factored(forms: FormSet, f: Tensor, s: Tensor,
                            s_trace: Tensor, j_pre: Tensor, j: Tensor,
                            g: MetricField, g_inv: Tensor) -> FactoredCurvature:
    """Ricci and scalar curvature from the factored objects:

    Ric_ab = (-A_a.J_b + A^c.J_acb - A_b.J_a + A^c.J_bca) / 2
             - 3/4 F_ac.F_b^c + S.S_ab - S_ac.S_b^c
    R = -2 A_a.J^a - 3/4 F_ab.F^ab + S.S - S_ab.S^ab

    plus the Einstein split G = T(f) + T(c) + T(s), whose sum equals
    Ric - g R / 2 of this route by construction.
    """
    ac = forms.comps
    fc, sc, st, jp, jc = f.comps, s.comps, s_trace.comps, j_pre.comps, j.comps
    ginv, gc = g_inv.comps, g.comps

    a_up = einsum("cd,id->ic", ginv, ac)           # A_I^c
    f_mix = einsum("bd,iad->iab", ginv, fc)        # F_Ia^b
    s_mix = einsum("bd,iad->iab", ginv, sc)        # S_Ia^b

    # shared scalars
    a_dot_j = einsum("ic,ic->", ac, einsum("cd,id->ic", ginv, jc))[()]
    f_dot_f = einsum("iab,iab->", fc,
                     einsum("ac,icb->iab", ginv, f_mix))[()]
    s_dot_s = einsum("iab,iab->", sc,
                     einsum("ac,icb->iab", ginv, s_mix))[()]
    trace_sq = einsum("i,i->", st, st)[()]

    # every part is symmetric in (a, b); built on a <= b and mirrored, the
    # sums below share one node between ab and ba as well
    current_half = einsum(
        "-ia,ib->ab - ib,ia->ab + ic,iacb->ab + ic,ibca->ab",
        ac, jc, ac, jc, a_up, jp, a_up, jp, pair=_SYM01) * ex.HALF
    ff = einsum("iac,ibc->ab", fc, f_mix, pair=_SYM01)
    ss = einsum("iac,ibc->ab", sc, s_mix, pair=_SYM01)
    s_tr = einsum("i,iab->ab", st, sc)

    ricci = current_half + ff * ex.Const(-0.75) + s_tr - ss
    t_form = (ff + ex.Const(-0.5) * gc * f_dot_f) * ex.Const(-0.75)
    t_current = current_half + gc * a_dot_j
    t_sym = (s_tr - ss + ex.Const(-0.5) * gc * trace_sq
             + ex.HALF * gc * s_dot_s)
    scalar = ex.add(ex.mul(ex.Const(-2), a_dot_j),
                    ex.mul(ex.Const(-0.75), f_dot_f),
                    trace_sq, ex.neg(s_dot_s))
    return FactoredCurvature(Tensor(ricci), scalar, Tensor(t_form),
                             Tensor(t_current), Tensor(t_sym))


def _nabla_sym2(t: np.ndarray, conn: Connection,
                pair: Pair | None = None) -> np.ndarray:
    """D[c,a,b] = nabla_c t_ab of a rank-2 lower tensor."""
    gm = conn.mixed.comps
    return einsum("cab->cab - eca,eb->cab - ecb,ae->cab",
                  _partials(conn.chart, t), gm, t, gm, t, pair=pair)


def covariant_divergence_sym2(t: Tensor, conn: Connection,
                              g_inv: Tensor) -> Tensor:
    """div[a] = nabla^b t_ab for a symmetric rank-2 lower tensor."""
    return Tensor(einsum("bc,cab->a", g_inv.comps,
                         _nabla_sym2(t.comps, conn)))


def metric_compatibility(g: MetricField, conn: Connection) -> Tensor:
    """nabla_c g_ab, identically zero for a Levi-Civita connection."""
    return Tensor(_nabla_sym2(g.comps, conn, _SYM12))


# ---------------------------------------------------------------------------
# Killing fields and flatness
# ---------------------------------------------------------------------------

def lie_derivative_metric(forms: FormSet, g: MetricField,
                          g_inv: Tensor) -> Tensor:
    """(L_{A_I} g)_ab = A^c d_c g_ab + g_cb d_a A^c + g_ac d_b A^c,
    computed from coordinate derivatives only (no connection)."""
    chart = forms.chart
    x = einsum("cd,id->ic", g_inv.comps, forms.comps)
    dg = _partials(chart, g.comps)
    dx = _partials(chart, x)
    return Tensor(einsum("ic,cab->iab + cb,aic->iab + ac,bic->iab",
                         x, dg, g.comps, dx, g.comps, dx, pair=_SYM12))


@dataclass
class KillingReport:
    """Killing diagnostics for a form set.

    When the whole set is closed (every dA_I vanishes), each member is a
    Killing field: its symmetric derivative and the Lie derivative of
    the metric along it vanish.  A single closed member of a non-closed
    set need not be Killing, because S is determined by the exterior
    derivatives of the full set.  The identity (L_A g) = 2 S holds for
    every form regardless and cross-checks the covariant machinery
    against an independent coordinate-derivative formula.
    """

    f_max: list[float]
    s_max: list[float]
    lie_max: list[float]
    lie_vs_2s: float
    closed_tol: float = TOL_SECOND_DERIV

    @property
    def set_closed(self) -> bool:
        return max(self.f_max) <= self.closed_tol

    @property
    def killing_residual(self) -> float:
        """Worst S / Lie-derivative magnitude; it must vanish only when the
        set is closed."""
        return max(max(self.s_max), max(self.lie_max))


def killing_check(f_vals: np.ndarray, s_vals: np.ndarray,
                  lie_vals: np.ndarray,
                  closed_tol: float = TOL_SECOND_DERIV) -> KillingReport:
    """Killing diagnostics from stacked values F[p,I,a,b], S[p,I,a,b] and
    (L_{A_I} g)[p,I,a,b]: per-form maxima over points and components."""
    def per_form(vals):
        return np.max(np.abs(vals), axis=(0, 2, 3)).tolist()

    return KillingReport(per_form(f_vals), per_form(s_vals),
                         per_form(lie_vals), max_abs(lie_vals - 2.0 * s_vals),
                         closed_tol)


VERDICT_CURVED = "CURVED"
VERDICT_CLOSED_FLAT = "CLOSED_FLAT"
VERDICT_INCONSISTENT = "INCONSISTENT"


@dataclass
class FlatnessReport:
    """Classification by closedness of the forms, with the curvature status
    carried alongside: closedness is sufficient for flatness but not
    necessary, so a curvilinear chart of a flat space may read CURVED by
    the form criterion while the curvature vanishes."""

    verdict: str
    f_max: float
    r_max: float
    f_tol: float
    r_tol: float
    note: str = ""

    def line(self, name: str) -> str:
        return (f"{name}: {self.verdict} "
                f"(max|dA| = {self.f_max:.3e} vs {self.f_tol:.1e}, "
                f"max|Riemann| = {self.r_max:.3e} vs {self.r_tol:.1e})"
                + (f" -- {self.note}" if self.note else ""))


def classify_flatness(f_vals: np.ndarray, r_vals: np.ndarray,
                      f_tol: float = TOL_SECOND_DERIV,
                      r_tol: float = TOL_SECOND_DERIV) -> FlatnessReport:
    """Verdict from stacked values of F and the all-lower Riemann tensor."""
    f_max, r_max = max_abs(f_vals), max_abs(r_vals)
    if f_max > f_tol:
        note = ("curvature vanishes: the forms are not closed, which the "
                "form criterion cannot distinguish from genuine curvature"
                if r_max <= r_tol else "")
        return FlatnessReport(VERDICT_CURVED, f_max, r_max, f_tol, r_tol, note)
    if r_max <= r_tol:
        return FlatnessReport(VERDICT_CLOSED_FLAT, f_max, r_max, f_tol, r_tol,
                              "forms closed; exactness undetermined")
    return FlatnessReport(VERDICT_INCONSISTENT, f_max, r_max, f_tol, r_tol,
                          "closed forms with nonvanishing curvature signal a "
                          "factorization or numerical fault")


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    s: np.ndarray          # parameter values, (k+1,)
    x: np.ndarray          # positions, (k+1, n)
    u: np.ndarray          # velocities, (k+1, n)
    exited_domain: bool


@dataclass
class GeodesicComparison:
    classical: Trajectory
    factored: Trajectory
    divergence: float      # max pointwise gap between the two routes
    norm_drift: float      # relative drift of g(u, u) along the way


def _rk4(rhs, chart: Chart, start: np.ndarray, velocity: np.ndarray,
         steps: int, h: float) -> Trajectory:
    """Fixed-step RK4 on the state (x, u), a tuple of floats; ``rhs(x, u)``
    gives du/ds.  Stops before the first step that leaves the chart."""
    n = chart.dim
    half, sixth = 0.5 * h, h / 6.0

    def deriv(state):
        return state[n:] + rhs(state[:n], state[n:])

    # float arithmetic turns an overflow into inf or nan without raising:
    # the next evaluation raises, or the domain check ends the integration
    state = tuple(map(float, start)) + tuple(map(float, velocity))
    states = [state]
    exited = False
    for _ in range(steps):
        k1 = deriv(state)
        k2 = deriv(tuple([s + half * k for s, k in zip(state, k1)]))
        k3 = deriv(tuple([s + half * k for s, k in zip(state, k2)]))
        k4 = deriv(tuple([s + h * k for s, k in zip(state, k3)]))
        state = tuple([s + sixth * (a + 2 * b + 2 * c + d)
                       for s, a, b, c, d in zip(state, k1, k2, k3, k4)])
        if not chart.contains(state[:n]):
            exited = True
            break
        states.append(state)
    xu = np.array(states)
    ss = np.array([0.0] + [k * h for k in range(1, len(states))])
    return Trajectory(ss, xu[:, :n], xu[:, n:], exited)


def _velocity(chart: Chart) -> np.ndarray:
    """Velocity symbols u'x, one per coordinate x: the grammar cannot spell
    them, so none collides with a coordinate or a constant."""
    return np.array([ex.Sym(f"u'{c}") for c in chart.coords], dtype=object)


def _rhs(chart: Chart, u: np.ndarray, du: np.ndarray):
    """rhs(x, u) -> du/ds as a tuple of floats, from one tape whose roots
    are the components ``du``, expressions in the coordinates and the
    velocity symbols ``u``: the real part of each value."""
    names = chart.coords + tuple(e.name for e in u)
    tape = Tape(du)
    get = tape.getter(du)

    def rhs(x, u):
        values = get(tape.run(dict(zip(names, itertools.chain(x, u)))))
        return tuple([float(v.real) for v in values])

    return rhs


def classical_rhs(conn: Connection):
    """du^c/ds = -Gamma^c_ab u^a u^b."""
    u = _velocity(conn.chart)
    return _rhs(conn.chart, u, -einsum("cab,a,b->c", conn.mixed.comps, u, u))


def factored_rhs(forms: FormSet, f: Tensor, g_inv: Tensor):
    """du^c/ds = -A^c (.) [sym dA_ab u^a u^b] + (A_a u^a) (.) F^c_b u^b.

    Each sum over a form index, quad_I = sym dA_Iab u^a u^b and A_I.u, is
    one node.  The true right side is real; the real part of the complex
    form products is returned.
    """
    a = forms.comps
    u = _velocity(forms.chart)
    a_up = einsum("cd,id->ic", g_inv.comps, a)                 # A_I^c
    f_mix = einsum("cd,idb->icb", g_inv.comps, f.comps)        # F_I^c_b
    quad = einsum("iab,a,b->i", sym_partial(forms).comps, u, u)
    a_dot_u = einsum("ia,a->i", a, u)
    du = -einsum("ic,i->c - i,icb,b->c", a_up, quad, a_dot_u, f_mix, u)
    return _rhs(forms.chart, u, du)


def integrate_geodesic(g: MetricField, g_inv: Tensor, conn: Connection,
                       forms: FormSet, f: Tensor,
                       start: np.ndarray, velocity: np.ndarray,
                       steps: int, h: float) -> GeodesicComparison:
    """Integrate both right-hand-side forms with fixed-step RK4 and
    compare them pointwise; also monitor conservation of g(u, u), with
    the metric read by ``MetricField.values`` along the classical route."""
    chart = g.chart
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not chart.contains(start):
        raise NumericFaultError(f"start point {start.tolist()} is outside "
                                "the chart domain")
    traj_c = _rk4(classical_rhs(conn), chart, start, velocity, steps, h)
    traj_f = _rk4(factored_rhs(forms, f, g_inv), chart, start, velocity,
                  steps, h)

    k = min(len(traj_c.s), len(traj_f.s))
    divergence = max(max_abs(traj_c.x[:k] - traj_f.x[:k]),
                     max_abs(traj_c.u[:k] - traj_f.u[:k]))

    gs = g.values([chart.point(x) for x in traj_c.x])
    u = traj_c.u
    # a non-finite norm raises below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (u[:, None, :] @ gs @ u[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise EvalDomainError(
            f"overflow to a non-finite g(u, u) on the geodesic at "
            f"{chart.point(traj_c.x[bad[0]])}", None)
    if len(traj_c.s) == 1 or len(traj_f.s) == 1:
        raise NumericFaultError(
            f"the geodesic from {start.tolist()} integrated no step of size "
            f"{h} inside the chart domain: nothing to compare")
    denom = max(1e-12, abs(norms[0]))
    norm_drift = float(np.max(np.abs(norms - norms[0])) / denom)

    return GeodesicComparison(traj_c, traj_f, divergence, norm_drift)
