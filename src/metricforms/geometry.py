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
first, d[k, ...] = d_k (...); numeric ones follow the set axis.

An object is built as an expression only where a tape compiles it (the
geodesic right-hand sides read g^-1, A, A^c, P = sym dA, F and Gamma),
``derivative.tangents`` differentiates it (g, A, A^c, F and d d g), or
another symbolic object is built from it (Gamma_cab, d g).  Everything
else is numeric: ``np.einsum`` over the values of symbolic objects at the
sample points, stacked on a leading axis, and over their forward-mode
tangents there, which the session reads and hands in.  So is the
classical curvature, from the jets of g to third order
(``classical_curvature``); the symbolic ``riemann_classical``,
``ricci_from_mixed``, ``scalar_curvature`` and ``einstein_tensor`` are
the reference it is held to.  One ``covariant_derivative`` serves S,
nabla g, the pre-currents and the divergence of G.

Builders that differentiate symbolically take ``diff``, one
differentiator per coordinate (``differentiators``); a session hands
every builder the same one, and builds the contractions several builders
read (``sym_partial``, ``raise_forms``) once.

Every symbolic builder returns the formula in its docstring as built:
index contractions, sums, scalings and negations through ``tensor.einsum``
alone, and no simplification (every object is compared numerically with
the other route, never by its symbolic form).  A pair hint builds only
one half of an (anti)symmetric pair of slots and mirrors the rest, so
mirrored components share one node.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .chart import Chart
from .errors import EvalDomainError, MetricFormsError, NumericFaultError
from . import expr as ex
from .derivative import Differentiator
from .expr import Expr
from .factorization import FormSet
from .tape import Tape
from .tensor import (
    MetricField,
    Tensor,
    einsum,
    elementwise,
    max_abs,
    max_imag,
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


def christoffel_classical(g: MetricField, g_inv: Tensor,
                          diff=None) -> Connection:
    """Gamma_cab = (d_a g_cb + d_b g_ca - d_c g_ab) / 2, with its first
    slot raised: Gamma^c_ab = g^cd Gamma_dab."""
    dg = _partials(g.chart, g.comps, diff)
    inner = einsum("acb->cab + bca->cab - cab->cab", dg, dg, dg, pair=_SYM12)
    lower = einsum(",cab->cab", ex.HALF, inner, pair=_SYM12)
    mixed = einsum("cd,dab->cab", g_inv.comps, lower, pair=_SYM12)
    return Connection(g.chart, Tensor(lower), Tensor(mixed))


def sym_partial(forms: FormSet, diff=None) -> Tensor:
    """P[I,a,b] = symmetrized coordinate derivative of the forms."""
    da = _partials(forms.chart, forms.comps, diff)
    inner = einsum("aib->iab + bia->iab", da, da, pair=_SYM12)
    return Tensor(einsum(",iab->iab", ex.HALF, inner, pair=_SYM12))


def raise_forms(forms: FormSet, g_inv: Tensor) -> Tensor:
    """A[I,c] = g^cd A_Id, each form with its slot raised."""
    return Tensor(einsum("cd,id->ic", g_inv.comps, forms.comps))


def exterior_derivative(forms: FormSet, diff=None) -> Tensor:
    """F[I,a,b] = d_a A_Ib - d_b A_Ia; antisymmetric by construction."""
    da = _partials(forms.chart, forms.comps, diff)
    return Tensor(einsum("aib->iab - bia->iab", da, da, pair=_ANTI12))


# ---------------------------------------------------------------------------
# objects computed at the points
# ---------------------------------------------------------------------------

def covariant_derivative(t: np.ndarray, dt: np.ndarray, gm: np.ndarray,
                         labels: int = 0) -> np.ndarray:
    """nabla[p, labels..., c, slots...] = nabla_c t from stacked values
    t[p, labels..., slots...], their tangents dt[p, labels..., c,
    slots...] = d_c t and gm[p,c,a,b] = Gamma^c_ab: d_c t less one term
    per lower slot x,

        Gamma^e_cx t[..., e, ...]    (e in the place of x)

    in slot order, the leading ``labels`` axes (a form index) taking
    none."""
    # einsum sublists: the point, the derivative slot, the summed e, then
    # t's own axes
    p, c, e, *axes = range(2 + t.ndim)
    out = [p, *axes[:labels], c, *axes[labels:]]
    nabla = dt
    for k in range(labels, len(axes)):
        nabla = nabla - np.einsum(gm, [p, e, c, axes[k]],
                                  t, [p, *axes[:k], e, *axes[k + 1:]], out)
    return nabla


def _form_cross(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """X[p,c,a,b] = A_a (.) F_bc + A_b (.) F_ac from stacked values."""
    return (np.einsum("pia,pibc->pcab", a, f)
            + np.einsum("pib,piac->pcab", a, f))


@dataclass
class ConnectionValues:
    """A connection's components at the points, stacked."""

    lower: np.ndarray    # Gamma[p,c,a,b]
    mixed: np.ndarray    # Gamma^c_ab


def christoffel_factored(a: np.ndarray, f: np.ndarray, p: np.ndarray,
                         g_inv: np.ndarray) -> ConnectionValues:
    """Connection rebuilt from stacked values of the forms, F and
    P = ``sym_partial``:

    Gamma_cab = A_c (.) sym dA_ab + [A_a (.) F_bc + A_b (.) F_ac] / 2

    and Gamma^c_ab = g^cd Gamma_dab.
    """
    lower = np.einsum("pic,piab->pcab", a, p) + 0.5 * _form_cross(a, f)
    return ConnectionValues(lower, np.einsum("pcd,pdab->pcab", g_inv, lower))


def _antisym_last(vals: np.ndarray) -> np.ndarray:
    """``vals`` antisymmetric in its last two axes: the entries below the
    diagonal are the exact negation of those above it, and the diagonal
    is zero."""
    upper = np.triu(vals, 1)
    return upper - np.swapaxes(upper, -1, -2)


def sym_covariant_derivative(a: np.ndarray, da: np.ndarray,
                             gm: np.ndarray) -> np.ndarray:
    """S[p,I,a,b] = sym part of nabla_a A_Ib from stacked values of the
    forms, their tangents and the classical Gamma^c_ab
    (``covariant_derivative``)."""
    nabla = covariant_derivative(a, da, gm, 1)
    return (nabla + np.swapaxes(nabla, -1, -2)) * 0.5


def sym_derivative_via_factors(a: np.ndarray, f: np.ndarray,
                               a_up: np.ndarray) -> np.ndarray:
    """S rebuilt from stacked values of the forms and F alone, with
    A_J^c = ``raise_forms``:

    S[p,J,a,b] = -A_J^c [A_a (.) F_bc + A_b (.) F_ac] / 2

    Valid because the form rows are orthonormal against the inverse
    metric (A_Ic A_J^c = delta_IJ).
    """
    return np.einsum("pjc,pcab->pjab", a_up, _form_cross(a, f)) * -0.5


def sym_trace(s: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """S[p,I] = g^ab S_Iab per form (unnormalized gauge), stacked."""
    return np.einsum("pab,piab->pi", g_inv, s)


def precurrents(f: np.ndarray, df: np.ndarray,
                gm: np.ndarray) -> np.ndarray:
    """J[p,I,a,b,c] = nabla_a F_Ibc from stacked values of F, its tangents
    and the classical Gamma^c_ab (``covariant_derivative``).  The pair
    antisymmetry in (b,c) is structural (``_antisym_last``); the cyclic
    identity over (a,b,c) holds because dF = ddA = 0, checked downstream.
    """
    return _antisym_last(covariant_derivative(f, df, gm, 1))


def currents(j_pre: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """J[p,I,b] = nabla^a F_Iab: trace of the pre-current with its derivative
    slot raised against the first form slot."""
    return np.einsum("pad,pidab->pib", g_inv, j_pre)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class MetricJets:
    """d[m,a,b] = d_l d_k g_ab over the pairs m = (k, l), k <= l, of the
    coordinates along which some d_k g_ab is not identically zero."""

    second: Tensor
    pairs: list[tuple[int, int]]


def metric_second_partials(g: MetricField, diff=None) -> MetricJets:
    """d_l (d_k g_ab), with d_k g built through ``diff`` as
    ``christoffel_classical`` builds it, so a session's nodes of it are
    shared."""
    diff = diff or differentiators(g.chart)
    dg = _partials(g.chart, g.comps, diff)
    active = [k for k in range(g.chart.dim)
              if not all(map(ex._is_zero, dg[k].flat))]
    pairs = [(k, l) for i, k in enumerate(active) for l in active[i:]]
    return MetricJets(Tensor(np.array(
        [elementwise(diff[l], dg[k]) for k, l in pairs],
        dtype=object).reshape(-1, *g.comps.shape)), pairs)


@dataclass
class ClassicalCurvature:
    """The classical route's curvature at the points, stacked, real."""

    riemann_mixed: np.ndarray         # R^a_bcd
    ricci: np.ndarray                 # Ric_ab
    scalar: np.ndarray                # R
    einstein: np.ndarray              # G_ab
    einstein_divergence: np.ndarray   # nabla^b G_ab
    imag_residue: float               # largest imaginary part cast away


def classical_curvature(g: np.ndarray, g_inv: np.ndarray, dg: np.ndarray,
                        ddg: np.ndarray, dddg: np.ndarray, pairs: list,
                        gl: np.ndarray, gm: np.ndarray) -> ClassicalCurvature:
    """R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_ec G^e_bd - G^a_ed G^e_bc,
    Ric_bd = R^a_bad, R = g^bd Ric_bd, G = Ric - g R / 2 and nabla^b G_ab
    from stacked values of g, g^-1, dg[p,k,a,b] = d_k g_ab, ddg[p,m,a,b]
    over the ``pairs`` of ``MetricJets``, dddg[p,m,j,a,b] = d_j of it and
    Gamma (lower, mixed), read as complex and computed on as real.  The
    partials of g^-1 and Gamma follow by the product rule; d Ric, from
    traces of the second partials of Gamma, is formed but no partial of R.
    """
    imag = max(map(max_imag, (g_inv, dg, ddg, dddg, gl, gm)))
    h, dg, ddg, dddg, gl, gm = (x.real for x in
                                (g_inv, dg, ddg, dddg, gl, gm))
    n, (ks, ls) = g.shape[1], np.array(pairs).T
    slot = np.full((n, n), len(pairs))
    slot[ks, ls] = slot[ls, ks] = np.arange(len(pairs))

    def by_pair(x):     # x[p,m,...] as x[p,k,l,...], zero off the pairs
        return np.concatenate((x, np.zeros_like(x[:, :1])), axis=1)[:, slot]

    ddg = by_pair(ddg)                                  # d_k d_l g_ij
    # the partials of g^-1, and those of Gamma_cab and Gamma^c_ab
    h_dg = np.einsum("pia,pkab->pkib", h, dg)           # g^-1 d_k g
    dh = -np.einsum("pkib,pbj->pkij", h_dg, h)
    inner = (np.einsum("pkia,plab->pklib", dh, dg)
             + np.einsum("pia,pklab->pklib", h, ddg))
    ddh = -(np.einsum("pklib,pbj->pklij", inner, h)
            + np.einsum("plib,pkbj->pklij", h_dg, dh))
    dgl = 0.5 * (ddg.transpose(0, 1, 3, 2, 4) + ddg.transpose(0, 1, 3, 4, 2)
                 - ddg)                                 # d_k Gamma_cab
    dgm = (np.einsum("pkce,peab->pkcab", dh, gl)
           + np.einsum("pce,pkeab->pkcab", h, dgl))     # d_k Gamma^c_ab

    quad = np.einsum("paec,pebd->pabcd", gm, gm)
    riemann = (dgm.transpose(0, 2, 3, 1, 4) - dgm.transpose(0, 2, 3, 4, 1)
               + quad - quad.swapaxes(3, 4))
    ricci = np.einsum("pabad->pbd", riemann)
    scalar = np.einsum("pab,pab->p", h, ricci)
    einstein = ricci - 0.5 * g * scalar[:, None, None]

    # traces of the third partials of g against g^-1:
    # y[k,l,j] = g^ai d_k d_l d_a g_ij, q[k,l,t] = g^ij d_k d_l d_t g_ij
    # and z[t,i,j] = g^ae d_t d_a d_e g_ij
    y = by_pair(np.einsum("pmtij,pti->pmj", dddg, h))
    q = by_pair(np.einsum("pmtij,pij->pmt", dddg, h))
    z = np.einsum("pm,pmtij->ptij", (2.0 * h - h * np.eye(n))[:, ks, ls],
                  dddg)
    # the traces of d_k d_l Gamma^a_bd: u[k,b,d] = d_k d_a Gamma^a_bd and
    # v[k,l,b] = d_k d_l Gamma^a_ab, whose g^ae d_k d_l Gamma_eab is q / 2
    u = (np.einsum("pkaae,pebd->pkbd", ddh, gl)
         + np.einsum("paae,pkebd->pkbd", dh, dgl)
         + np.einsum("pkae,paebd->pkbd", dh, dgl)
         + 0.5 * (y + y.swapaxes(2, 3) - z))
    v_half = np.einsum("plae,pkeab->pklb", dh, dgl)
    v = (np.einsum("pklae,peab->pklb", ddh, gl) + v_half
         + v_half.swapaxes(1, 2) + 0.5 * q)
    d_ricci = (u - v.swapaxes(2, 3)    # d_k of the terms of R^a_bad
               + np.einsum("pkaea,pebd->pkbd", dgm, gm)
               + np.einsum("paea,pkebd->pkbd", gm, dgm)
               - np.einsum("pkaed,peba->pkbd", dgm, gm)
               - np.einsum("paed,pkeba->pkbd", gm, dgm))
    d_scalar = (np.einsum("pkab,pab->pk", dh, ricci)
                + np.einsum("pab,pkab->pk", h, d_ricci))
    d_einstein = d_ricci - 0.5 * (dg * scalar[:, None, None, None]
                                  + g[:, None] * d_scalar[:, :, None, None])
    return ClassicalCurvature(riemann, ricci, scalar, einstein,
                              covariant_divergence_sym2(einstein, d_einstein,
                                                        gm, h), imag)


def riemann_classical(conn: Connection, diff=None) -> Tensor:
    """R^a_bcd = d_c G^a_bd - d_d G^a_bc + G^a_ec G^e_bd - G^a_ed G^e_bc,
    symbolic: the reference that ``classical_curvature`` is held to."""
    gm = conn.mixed.comps
    dgm = _partials(conn.chart, gm, diff)
    return Tensor(einsum(
        "cabd->abcd - dabc->abcd + aec,ebd->abcd - aed,ebc->abcd",
        dgm, dgm, gm, gm, gm, gm, pair=_ANTI23))


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


def einstein_tensor(ricci: Tensor, scalar: Expr, g: MetricField) -> Tensor:
    """G[a,b] = Ric[a,b] - g[a,b] R / 2 (exact identity of this route)."""
    return Tensor(einsum("ab->ab - ,ab,->ab", ricci.comps, ex.HALF, g.comps,
                         scalar))


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


def covariant_divergence_sym2(t: np.ndarray, dt: np.ndarray,
                              gm: np.ndarray, g_inv: np.ndarray
                              ) -> np.ndarray:
    """div[p,a] = g^bc nabla_c t_ab from stacked values of a symmetric
    rank-2 lower tensor, its tangents, Gamma^c_ab and g^-1
    (``covariant_derivative``); no derivative of t is built."""
    return np.einsum("pbc,pcab->pa", g_inv, covariant_derivative(t, dt, gm))


def metric_compatibility(g: np.ndarray, dg: np.ndarray,
                         gm: np.ndarray) -> np.ndarray:
    """nabla[p,c,a,b] = nabla_c g_ab from stacked values of g, its
    tangents and Gamma^c_ab (``covariant_derivative``), identically zero
    for a Levi-Civita connection."""
    return covariant_derivative(g, dg, gm)


# ---------------------------------------------------------------------------
# Killing fields and flatness
# ---------------------------------------------------------------------------

def lie_derivative_metric(g: np.ndarray, dg: np.ndarray, a_up: np.ndarray,
                          da_up: np.ndarray) -> np.ndarray:
    """(L_{A_I} g)_ab = A^c d_c g_ab + g_cb d_a A^c + g_ac d_b A^c from
    stacked values, with A_I^c = ``raise_forms`` and the coordinate
    derivatives dg[p,c,a,b] = d_c g_ab and da_up[p,I,a,c] = d_a A_I^c, their
    tangents (no connection)."""
    return (np.einsum("pic,pcab->piab", a_up, dg)
            + np.einsum("pcb,piac->piab", g, da_up)
            + np.einsum("pac,pibc->piab", g, da_up))


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
    h/6, and ``states`` is one ``array('d')`` of the states from the start
    to the last one inside the bounds, each x then u; ``exited`` says
    whether a step left them.

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
        f"    states = array('d', {state})",
        "    push = states.extend",
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
        f"        push({state})",
        "    return states, False\n"])
    namespace: dict = {"array": array}
    exec(compile(source, "<rk4>", "exec"), namespace)
    return namespace["_rk4"]


def _rk4(rhs, chart: Chart, start: np.ndarray, velocity: np.ndarray,
         steps: int, h: float) -> Trajectory:
    """Fixed-step RK4 on the state (x, u), a tuple of floats; ``rhs(x, u)``
    gives du/ds.  Stops before the first step that leaves the chart.  The
    trajectory's x and u are views of one (k+1, 2n) array over the loop's
    buffer of states, so each float is held once, unboxed."""
    n = chart.dim
    # float arithmetic turns an overflow into inf or nan without raising:
    # the next evaluation raises, or the domain check ends the integration
    states, exited = _rk4_loop(n)(
        rhs, steps, h, 0.5 * h, h / 6.0, *map(float, start),
        *map(float, velocity), *chain.from_iterable(chart.domains))
    xu = np.frombuffer(states, dtype=float).reshape(-1, 2 * n)
    ss = np.arange(len(xu)) * h         # float(k) * h, as Python's k * h
    ss[0] = 0.0                         # not -0.0 when h < 0
    return Trajectory(ss, xu[:, :n], xu[:, n:], exited)


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
    return _rhs(conn.chart, u, einsum(
        "-c->c", einsum("cab,a,b->c", conn.mixed.comps, u, u)))


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
    du = einsum("ic,i->c - i,icb,b->c", a_up.comps, quad, a_dot_u, f_mix, u)
    return _rhs(forms.chart, u, einsum("-c->c", du))


#: points per block of the norm monitor's metric reads
MONITOR_BLOCK = 256


class _Points:
    """The rows of a coordinate array as a sequence of points, each one
    made into a dict only when it is read: by a walk or for a message."""

    def __init__(self, chart: Chart, rows: np.ndarray):
        self.chart, self.rows = chart, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> dict[str, float]:
        return self.chart.point(self.rows[k])


def _metric_norms(g: MetricField, x: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """g(u, u) at each row of positions ``x`` and velocities ``u``.

    g is read by one tape of its components, fed the coordinate columns
    of ``MONITOR_BLOCK`` rows at a time: its values are the walk's bit for
    bit, and a fault is the walk's at the first point that faults.  Each
    block is judged by ``MetricField.values``; where one fails, the whole
    of ``x`` is judged at once, so the error is the one a single read of
    every point raises.  The norms are matrix products over the real view
    of the complex values, as ``values`` returns it."""
    chart = g.chart
    n = chart.dim
    tape = Tape(g.comps.flat, chart.coords)
    norms = np.empty(len(x))
    for start in range(0, len(x), MONITOR_BLOCK):
        rows = slice(start, start + MONITOR_BLOCK)
        vals = np.array(list(map(tape.run, *x[rows].T.tolist())),
                        dtype=complex).reshape(-1, n, n)
        try:
            gs = g.values(_Points(chart, x[rows]), vals)
        except MetricFormsError:
            g.values(_Points(chart, x))
            raise
        # a non-finite norm is refused by the caller, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            norms[rows] = (u[rows, None, :] @ gs @ u[rows, :, None])[:, 0, 0]
    return norms


def integrate_geodesic(g: MetricField, g_inv: Tensor, conn: Connection,
                       forms: FormSet, f: Tensor, p: Tensor, a_up: Tensor,
                       start: np.ndarray, velocity: np.ndarray,
                       steps: int, h: float) -> GeodesicComparison:
    """Integrate both right-hand-side forms with fixed-step RK4 and
    compare them pointwise; also monitor conservation of g(u, u) along
    the classical route (``_metric_norms``).  ``p`` and ``a_up`` are the
    factored side's ``sym_partial`` and ``raise_forms``."""
    chart = g.chart
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not chart.contains(start):
        raise NumericFaultError(f"start point {start.tolist()} is outside "
                                "the chart domain")
    traj_c = _rk4(classical_rhs(conn), chart, start, velocity, steps, h)
    traj_f = _rk4(factored_rhs(forms, f, g_inv, p, a_up), chart, start,
                  velocity, steps, h)

    k = min(len(traj_c.s), len(traj_f.s))
    divergence = max(max_abs(traj_c.x[:k] - traj_f.x[:k]),
                     max_abs(traj_c.u[:k] - traj_f.u[:k]))

    norms = _metric_norms(g, traj_c.x, traj_c.u)
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
