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

Index layout (set axis first where present): Gamma[c,a,b], F[I,a,b],
S[I,a,b], J_pre[I,a,b,c] = nabla_a F_Ibc, J[I,b], Riemann[a,b,c,d].
Symbolic coordinate derivatives are stacked with the derivative slot
first, d[k, ...] = d_k (...), so a derivative is one more index.

The classical route, the factored objects up to the first derivatives of
the forms and both geodesic right-hand sides are symbolic.  The rest of
the factored side (S traces, pre-currents, currents, the three Riemann
parts, the factored Ricci, scalar and Einstein split) and the contracted
divergence of a symmetric tensor are read only at the sample points, so
they are numeric: ``np.einsum`` over the values of symbolic objects,
stacked on a leading point axis, with coordinate derivatives from
forward-mode tangents at the points (``derivative.tangents``).  No second
derivative of the forms and no third derivative is built.

Builders that differentiate take ``diff``, one differentiator per
coordinate (``differentiators``); a session hands every builder the same
one, and builds the contractions several builders read (``sym_partial``,
``raise_forms``) once.

Every symbolic builder returns the formula in its docstring as built:
index contractions through ``tensor.einsum``, sums and scalings through
numpy object arithmetic, and no simplification (every object is
compared numerically with the other route, never by its symbolic form).
A pair hint builds only one half of an (anti)symmetric pair of slots
and mirrors the rest, so mirrored components share one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .chart import Chart
from .errors import EvalDomainError, NumericFaultError, TensorError
from . import expr as ex
from .derivative import Differentiator, tangents
from .expr import Expr
from .factorization import FormSet
from .tape import Tape
from .tensor import (
    MetricField,
    Tensor,
    einsum,
    elementwise,
    max_abs,
    quiet,
    values_at,
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


def differentiators(chart: Chart) -> tuple[Differentiator, ...]:
    """One differentiator per coordinate of ``chart``.  A builder's
    ``diff`` takes such a tuple: builders handed the same one share its
    caches, so no (node, coordinate) pair among them is differentiated
    twice.  Without one, a builder makes its own."""
    return tuple(map(Differentiator, chart.coords))


def _partials(chart: Chart, comps: np.ndarray,
              diff: tuple[Differentiator, ...] | None) -> np.ndarray:
    """d[k, idx] = d/dx_k comps[idx]: the derivative slot is the first
    axis, by ``diff``, one differentiator per coordinate."""
    return np.stack([elementwise(d, comps)
                     for d in diff or differentiators(chart)])


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


@quiet
def christoffel_classical(g: MetricField, g_inv: Tensor,
                          diff=None) -> Connection:
    """Gamma_cab = (d_a g_cb + d_b g_ca - d_c g_ab) / 2."""
    dg = _partials(g.chart, g.comps, diff)
    lower = einsum("acb->cab + bca->cab - cab->cab", dg, dg, dg,
                   pair=_SYM12) * ex.HALF
    return _connection(g.chart, lower, g_inv, "classical")


@quiet
def sym_partial(forms: FormSet, diff=None) -> Tensor:
    """P[I,a,b] = symmetrized coordinate derivative of the forms."""
    da = _partials(forms.chart, forms.comps, diff)
    return Tensor(einsum("aib->iab + bia->iab", da, da, pair=_SYM12)
                  * ex.HALF)


def raise_forms(forms: FormSet, g_inv: Tensor) -> Tensor:
    """A[I,c] = g^cd A_Id, each form with its slot raised."""
    return Tensor(einsum("cd,id->ic", g_inv.comps, forms.comps))


def _form_cross(a_comps: np.ndarray, f_comps: np.ndarray) -> np.ndarray:
    """X[c,a,b] = A_a (.) F_bc + A_b (.) F_ac."""
    return einsum("ia,ibc->cab + ib,iac->cab", a_comps, f_comps, a_comps,
                  f_comps, pair=_SYM12)


@quiet
def christoffel_factored(forms: FormSet, f: Tensor, g_inv: Tensor,
                         p: Tensor) -> Connection:
    """Connection rebuilt from the form set and P = ``sym_partial``:

    Gamma_cab = A_c (.) sym dA_ab + [A_a (.) F_bc + A_b (.) F_ac] / 2
    """
    ac = forms.comps
    lower = (einsum("ic,iab->cab", ac, p.comps, pair=_SYM12)
             + _form_cross(ac, f.comps) * ex.HALF)
    return _connection(forms.chart, lower, g_inv, "factored")


def exterior_derivative(forms: FormSet, diff=None) -> Tensor:
    """F[I,a,b] = d_a A_Ib - d_b A_Ia; antisymmetric by construction."""
    da = _partials(forms.chart, forms.comps, diff)
    return Tensor(einsum("aib->iab - bia->iab", da, da, pair=_ANTI12))


@quiet
def sym_covariant_derivative(forms: FormSet, conn: Connection,
                             p: Tensor) -> Tensor:
    """S[I,a,b] = sym part of nabla_a A_Ib, via the classical connection:
    P = ``sym_partial`` less Gamma^c_ab A_Ic."""
    if conn.route != "classical":
        raise TensorError("the direct symmetric derivative is defined "
                          "against the classical connection")
    return Tensor(p.comps - einsum("cab,ic->iab", conn.mixed.comps,
                                   forms.comps, pair=_SYM12))


@quiet
def sym_derivative_via_factors(forms: FormSet, f: Tensor,
                               a_up: Tensor) -> Tensor:
    """S rebuilt from F alone, with A_J^c = ``raise_forms``:

    S[J,a,b] = -A_J^c [A_a (.) F_bc + A_b (.) F_ac] / 2

    Valid because the form rows are orthonormal against the inverse
    metric (A_Ic A_J^c = delta_IJ).
    """
    return Tensor(einsum("jc,cab->jab", a_up.comps,
                         _form_cross(forms.comps, f.comps),
                         pair=_SYM12) * ex.Const(-0.5))


def _antisym_last(vals: np.ndarray) -> np.ndarray:
    """``vals`` antisymmetric in its last two axes: the entries below the
    diagonal are the exact negation of those above it, and the diagonal
    is zero."""
    upper = np.triu(vals, 1)
    return upper - np.swapaxes(upper, -1, -2)


def sym_trace(s: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """S[p,I] = g^ab S_Iab per form (unnormalized gauge), stacked."""
    return np.einsum("pab,piab->pi", g_inv, s)


def precurrents(f: Tensor, conn: Connection,
                points: list[dict[str, float]],
                known: dict | None = None) -> np.ndarray:
    """J[p,I,a,b,c] = nabla_a F_Ibc at each of ``points``, stacked:

        nabla_a F_Ibc = d_a F_Ibc - Gamma^e_ab F_Iec - Gamma^e_ac F_Ibe

    with the classical connection, d_a F_Ibc from ``derivative.tangents``
    and the values of F and Gamma read over the memo ``known``.  The pair
    antisymmetry in (b,c) is structural (``_antisym_last``); the cyclic
    identity over (a,b,c) holds because dF = ddA = 0, checked downstream.
    """
    if conn.route != "classical":
        raise TensorError("pre-currents use the classical connection")
    m, n = f.comps.shape[:2]
    df = tangents(f.comps.flat, points, conn.chart.coords, known)
    # (I, b, c, a, p) -> (p, I, a, b, c): the derivative slot after the set
    df = df.reshape(m, n, n, n, len(points)).transpose(4, 0, 3, 1, 2)
    fv, gm = (values_at(x, points, known) for x in (f.comps, conn.mixed.comps))
    return _antisym_last(df - np.einsum("peab,piec->piabc", gm, fv)
                         - np.einsum("peac,pibe->piabc", gm, fv))


def currents(j_pre: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """J[p,I,b] = nabla^a F_Iab: trace of the pre-current with its derivative
    slot raised against the first form slot."""
    return np.einsum("pad,pidab->pib", g_inv, j_pre)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def riemann_classical(conn: Connection, g: MetricField,
                      diff=None) -> tuple[Tensor, Tensor]:
    """R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_ec G^e_bd - G^a_ed G^e_bc,
    returned mixed and all-lower.  This is the oracle route."""
    gm = conn.mixed.comps
    dgm = _partials(conn.chart, gm, diff)
    mixed = einsum(
        "cabd->abcd - dabc->abcd + aec,ebd->abcd - aed,ebc->abcd",
        dgm, dgm, gm, gm, gm, gm, pair=_ANTI23)
    return Tensor(mixed), Tensor(einsum("ae,ebcd->abcd", g.comps, mixed))


@dataclass
class RiemannParts:
    """Three-part split of the all-lower Riemann tensor, stacked values."""

    current_part: np.ndarray   # built from A and pre-currents
    form_part: np.ndarray      # built from F (.) F squares
    sym_part: np.ndarray       # built from S (.) S squares
    total: np.ndarray          # their sum


def riemann_decomposed(a: np.ndarray, f: np.ndarray, s: np.ndarray,
                       j_pre: np.ndarray) -> RiemannParts:
    """R(c) = (A_a.J_bcd - A_b.J_acd + A_c.J_dab - A_d.J_cab) / 2
    R(f) = (F_ad.F_bc - F_ac.F_bd - 2 F_ab.F_cd) / 4
    R(s) = S_ac.S_bd - S_ad.S_bc

    from stacked values, with (.) contracting the set axis; each part is
    antisymmetric in (c, d) by ``_antisym_last``.  All inputs must come
    from one form set and the classical connection.
    """
    rc = (np.einsum("pia,pibcd->pabcd", a, j_pre)
          - np.einsum("pib,piacd->pabcd", a, j_pre)
          + np.einsum("pic,pidab->pabcd", a, j_pre)
          - np.einsum("pid,picab->pabcd", a, j_pre)) * 0.5
    rf = (np.einsum("piad,pibc->pabcd", f, f)
          - np.einsum("piac,pibd->pabcd", f, f)
          - 2.0 * np.einsum("piab,picd->pabcd", f, f)) * 0.25
    rs = (np.einsum("piac,pibd->pabcd", s, s)
          - np.einsum("piad,pibc->pabcd", s, s))
    rc, rf, rs = map(_antisym_last, (rc, rf, rs))
    return RiemannParts(rc, rf, rs, rc + rf + rs)


def ricci_from_mixed(riemann_mixed: Tensor) -> Tensor:
    """Ric[a,b] = R^c_{acb}; mirrored since Ricci is symmetric."""
    return Tensor(einsum("cacb->ab", riemann_mixed.comps, pair=_SYM01))


def scalar_curvature(ricci: Tensor, g_inv: Tensor) -> Expr:
    """R = g^ab Ric_ab."""
    return einsum("ab,ab->", g_inv.comps, ricci.comps)[()]


@quiet
def einstein_tensor(ricci: Tensor, scalar: Expr, g: MetricField) -> Tensor:
    """G[a,b] = Ric[a,b] - g[a,b] R / 2 (exact identity of this route)."""
    return Tensor(ricci.comps - ex.HALF * g.comps * scalar)


@dataclass
class FactoredCurvature:
    """Ricci, scalar curvature and the Einstein split of the factored route,
    stacked values."""

    ricci: np.ndarray
    scalar: np.ndarray
    stress_form: np.ndarray      # -3/4 (F.F - g F.F / 2)
    stress_current: np.ndarray   # current-built part plus its trace term
    stress_sym: np.ndarray       # S-built part plus its trace terms
    einstein: np.ndarray         # their sum


def ricci_einstein_factored(a: np.ndarray, f: np.ndarray, s: np.ndarray,
                            s_trace: np.ndarray, j_pre: np.ndarray,
                            j: np.ndarray, g: np.ndarray, g_inv: np.ndarray,
                            a_up: np.ndarray) -> FactoredCurvature:
    """Ricci and scalar curvature from stacked values of the factored
    objects, with A_I^c = ``raise_forms``:

    Ric_ab = (-A_a.J_b + A^c.J_acb - A_b.J_a + A^c.J_bca) / 2
             - 3/4 F_ac.F_b^c + S.S_ab - S_ac.S_b^c
    R = -2 A_a.J^a - 3/4 F_ab.F^ab + S.S - S_ab.S^ab

    plus the Einstein split G = T(f) + T(c) + T(s), whose sum equals
    Ric - g R / 2 of this route by construction.
    """
    f_mix = np.einsum("pbd,piad->piab", g_inv, f)       # F_Ia^b
    s_mix = np.einsum("pbd,piad->piab", g_inv, s)       # S_Ia^b

    # shared scalars, one per point, broadcast against g
    a_dot_j = np.einsum("pic,pcd,pid->p", a, g_inv, j)[:, None, None]
    f_dot_f = np.einsum("piab,pac,picb->p", f, g_inv, f_mix)[:, None, None]
    s_dot_s = np.einsum("piab,pac,picb->p", s, g_inv, s_mix)[:, None, None]
    trace_sq = np.einsum("pi,pi->p", s_trace, s_trace)[:, None, None]

    # -A_a.J_b + A^c.J_acb, plus its (a, b) swap: symmetric exactly
    half = (np.einsum("pic,piacb->pab", a_up, j_pre)
            - np.einsum("pia,pib->pab", a, j))
    current_half = (half + np.swapaxes(half, 1, 2)) * 0.5
    ff = np.einsum("piac,pibc->pab", f, f_mix)
    ss = np.einsum("piac,pibc->pab", s, s_mix)
    s_tr = np.einsum("pi,piab->pab", s_trace, s)

    ricci = current_half - 0.75 * ff + s_tr - ss
    t_form = (ff - 0.5 * g * f_dot_f) * -0.75
    t_current = current_half + g * a_dot_j
    t_sym = s_tr - ss - 0.5 * g * trace_sq + 0.5 * g * s_dot_s
    scalar = -2.0 * a_dot_j - 0.75 * f_dot_f + trace_sq - s_dot_s
    return FactoredCurvature(ricci, scalar[:, 0, 0], t_form, t_current,
                             t_sym, t_form + t_current + t_sym)


def covariant_divergence_sym2(t: Tensor, conn: Connection, g_inv: Tensor,
                              points: list[dict[str, float]],
                              known: dict | None = None) -> np.ndarray:
    """div[p,a] = g^bc nabla_c t_ab at each of ``points``, stacked, for a
    symmetric rank-2 lower tensor, with

        nabla_c t_ab = d_c t_ab - Gamma^e_ca t_eb - Gamma^e_cb t_ae

    computed numerically: d_c t_ab from ``derivative.tangents`` of t, and
    the values of t, Gamma^c_ab and g^ab read by walks over the memo
    ``known``, contracted by ``np.einsum``.  No derivative of t is
    built."""
    dt = tangents(t.comps.flat, points, conn.chart.coords, known)
    n = conn.chart.dim
    # (a, b, c, p) -> (p, c, a, b): the derivative slot first
    dt = dt.reshape(n, n, n, len(points)).transpose(3, 2, 0, 1)
    tv, gm, gi = (values_at(x.comps, points, known)
                  for x in (t, conn.mixed, g_inv))
    nabla = (dt - np.einsum("peca,peb->pcab", gm, tv)
             - np.einsum("pecb,pae->pcab", gm, tv))
    return np.einsum("pbc,pcab->pa", gi, nabla)


def metric_compatibility(g: MetricField, conn: Connection,
                         diff=None) -> Tensor:
    """nabla_c g_ab = d_c g_ab - Gamma^e_ca g_eb - Gamma^e_cb g_ae,
    identically zero for a Levi-Civita connection."""
    gm, gc = conn.mixed.comps, g.comps
    return Tensor(einsum("cab->cab - eca,eb->cab - ecb,ae->cab",
                         _partials(g.chart, gc, diff), gm, gc, gm, gc,
                         pair=_SYM12))


# ---------------------------------------------------------------------------
# Killing fields and flatness
# ---------------------------------------------------------------------------

def lie_derivative_metric(forms: FormSet, g: MetricField, a_up: Tensor,
                          diff=None) -> Tensor:
    """(L_{A_I} g)_ab = A^c d_c g_ab + g_cb d_a A^c + g_ac d_b A^c, with
    A_I^c = ``raise_forms``, computed from coordinate derivatives only
    (no connection)."""
    chart = forms.chart
    x = a_up.comps
    dg = _partials(chart, g.comps, diff)
    dx = _partials(chart, x, diff)
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


@cache
def _rk4_loop(n: int):
    """Fixed-step RK4 on an n-dimensional state (x, u) of floats, as one
    compiled function ``loop(rhs, steps, h, half, sixth, *x, *u, *bounds)``
    -> (states, exited): ``rhs(x, u)`` gives du/ds as a tuple, ``bounds``
    are ``lo0, hi0, lo1, hi1, ...``, ``half`` and ``sixth`` are h/2 and
    h/6, and ``states`` lists the state tuples from the start to the last
    one inside the bounds; ``exited`` says whether a step left them.

    The state lives in scalar locals and the four stages are unrolled.
    Stage k's derivative is (u_k, du_k), so each stage state and the update
    sum the same operands in the same order as ``s + half * k`` and
    ``s + sixth * (a + 2 * b + 2 * c + d)`` over the state tuple."""

    def row(template: str) -> str:
        return "".join(template.format(i) + ", " for i in range(n))

    def each(template: str) -> str:
        return "        " + "; ".join(template.format(i) for i in range(n))

    def stage(du: str, x: str, u: str) -> str:
        return f"        {row(du)}= rhs(({row(x)}), ({row(u)}))"

    inside = " and ".join(f"lo{i} < x{i} < hi{i}" for i in range(n))
    state = f"({row('x{0}')}{row('u{0}')})"
    source = "\n".join([
        f"def _rk4(rhs, steps, h, half, sixth, {row('x{0}')}{row('u{0}')}"
        f"{row('lo{0}, hi{0}')}):",
        f"    states = [{state}]",
        "    for _ in range(steps):",
        stage("a{0}", "x{0}", "u{0}"),
        each("ub{0} = u{0} + half * a{0}"),
        stage("b{0}", "x{0} + half * u{0}", "ub{0}"),
        each("uc{0} = u{0} + half * b{0}"),
        stage("c{0}", "x{0} + half * ub{0}", "uc{0}"),
        each("ud{0} = u{0} + h * c{0}"),
        stage("d{0}", "x{0} + h * uc{0}", "ud{0}"),
        each("x{0} = x{0} + sixth * (u{0} + 2 * ub{0} + 2 * uc{0} + ud{0})"),
        each("u{0} = u{0} + sixth * (a{0} + 2 * b{0} + 2 * c{0} + d{0})"),
        f"        if not ({inside}):",
        "            return states, True",
        f"        states.append({state})",
        "    return states, False\n"])
    namespace: dict = {}
    exec(compile(source, "<rk4>", "exec"), namespace)
    return namespace["_rk4"]


def _rk4(rhs, chart: Chart, start: np.ndarray, velocity: np.ndarray,
         steps: int, h: float) -> tuple[Trajectory, list[tuple]]:
    """Fixed-step RK4 on the state (x, u), a tuple of floats; ``rhs(x, u)``
    gives du/ds.  Stops before the first step that leaves the chart.
    Returns the trajectory and its states, the tuples of floats it was
    stacked from."""
    n = chart.dim
    # float arithmetic turns an overflow into inf or nan without raising:
    # the next evaluation raises, or the domain check ends the integration
    states, exited = _rk4_loop(n)(
        rhs, steps, h, 0.5 * h, h / 6.0, *map(float, start),
        *map(float, velocity), *chain.from_iterable(chart.domains))
    xu = np.array(states)
    ss = np.array([0.0] + [k * h for k in range(1, len(states))])
    return Trajectory(ss, xu[:, :n], xu[:, n:], exited), states


def _velocity(chart: Chart) -> np.ndarray:
    """Velocity symbols u'x, one per coordinate x: the grammar cannot spell
    them, so none collides with a coordinate or a constant."""
    return np.array([ex.Sym(f"u'{c}") for c in chart.coords], dtype=object)


def _rhs(chart: Chart, u: np.ndarray, du: np.ndarray):
    """rhs(x, u) -> du/ds as a tuple of floats: the real parts of the
    components ``du``, expressions in the coordinates and the velocity
    symbols ``u``, as the one compiled function of a state tape whose
    arguments are the coordinates and then the velocities."""
    return Tape(du.flat, chart.coords + tuple(e.name for e in u),
                state=True).run


def classical_rhs(conn: Connection):
    """du^c/ds = -Gamma^c_ab u^a u^b."""
    u = _velocity(conn.chart)
    return _rhs(conn.chart, u, -einsum("cab,a,b->c", conn.mixed.comps, u, u))


def factored_rhs(forms: FormSet, f: Tensor, g_inv: Tensor, p: Tensor,
                 a_up: Tensor):
    """du^c/ds = -A^c (.) [sym dA_ab u^a u^b] + (A_a u^a) (.) F^c_b u^b,
    with sym dA = ``sym_partial`` and A^c = ``raise_forms``.

    Each sum over a form index, quad_I = sym dA_Iab u^a u^b and A_I.u, is
    one node.  The true right side is real; the real part of the complex
    form products is returned.
    """
    a = forms.comps
    u = _velocity(forms.chart)
    f_mix = einsum("cd,idb->icb", g_inv.comps, f.comps)        # F_I^c_b
    quad = einsum("iab,a,b->i", p.comps, u, u)
    a_dot_u = einsum("ia,a->i", a, u)
    du = -einsum("ic,i->c - i,icb,b->c", a_up.comps, quad, a_dot_u, f_mix,
                 u)
    return _rhs(forms.chart, u, du)


def integrate_geodesic(g: MetricField, g_inv: Tensor, conn: Connection,
                       forms: FormSet, f: Tensor, p: Tensor, a_up: Tensor,
                       start: np.ndarray, velocity: np.ndarray,
                       steps: int, h: float) -> GeodesicComparison:
    """Integrate both right-hand-side forms with fixed-step RK4 and
    compare them pointwise; also monitor conservation of g(u, u), with
    the metric read by ``MetricField.values`` along the classical route.
    ``p`` and ``a_up`` are the factored side's ``sym_partial`` and
    ``raise_forms``."""
    chart = g.chart
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not chart.contains(start):
        raise NumericFaultError(f"start point {start.tolist()} is outside "
                                "the chart domain")
    traj_c, states = _rk4(classical_rhs(conn), chart, start, velocity,
                          steps, h)
    # the monitor's points share the floats of the classical states, whose
    # tuples go before the factored route runs
    points = [dict(zip(chart.coords, state)) for state in states]
    del states
    traj_f, _ = _rk4(factored_rhs(forms, f, g_inv, p, a_up), chart, start,
                     velocity, steps, h)

    k = min(len(traj_c.s), len(traj_f.s))
    divergence = max(max_abs(traj_c.x[:k] - traj_f.x[:k]),
                     max_abs(traj_c.u[:k] - traj_f.u[:k]))

    gs = g.values(points)
    u = traj_c.u
    # a non-finite norm raises below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (u[:, None, :] @ gs @ u[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise EvalDomainError(
            f"overflow to a non-finite g(u, u) on the geodesic at "
            f"{points[bad[0]]}", None)
    if len(traj_c.s) == 1 or len(traj_f.s) == 1:
        raise NumericFaultError(
            f"the geodesic from {start.tolist()} integrated no step of size "
            f"{h} inside the chart domain: nothing to compare")
    denom = max(1e-12, abs(norms[0]))
    norm_drift = float(np.max(np.abs(norms - norms[0])) / denom)

    return GeodesicComparison(traj_c, traj_f, divergence, norm_drift)
