"""Independent numeric oracles used by the tests.

These deliberately avoid the symbolic differentiation path of the
package: derivatives are central finite differences of numerically
evaluated fields, so route agreement actually checks something.
``TreeEvaluator`` is the one-point tree walk that the all-points walk and
the tape must reproduce, ``tape_reader`` a reader of many points compiled
once, ``einsum`` the contraction that builds every product, planned
afresh by numpy on every call and sharing no code with the cached
planner of ``metricforms.tensor`` (its ``_plan`` and ``mirror`` are the
ones ``tensor.einsum`` had before it cached its plans), ``rk4`` the
tuple-state RK4 loop that the generated loop in ``metricforms.geometry``
replaced, ``dumps_canonical`` the recursive writer of canonical JSON
that the one-pass writer in ``metricforms.report`` replaced,
``escape`` the character loop its string escape replaced,
``precurrents`` to ``riemann_lower`` the symbolic formulas of the objects
that ``metricforms`` reads only at the sample points and so computes
there with numpy, and ``christoffel_lower`` to ``factored_du`` the
elementwise numpy arithmetic on expressions that the symbolic builders
had before they scaled, summed and negated through ``einsum`` alone.
"""

import functools
import itertools
import math
import operator
import re

import numpy as np

from metricforms import expr as ex
from metricforms.chart import DOMAIN_MARGIN
from metricforms.derivative import Differentiator
from metricforms.errors import EvalDomainError, TensorError, UnboundSymbolError
from metricforms.geometry import Trajectory
from metricforms.tape import Tape


def sample_points(chart, count: int, seed: int,
                  margin: float = DOMAIN_MARGIN) -> list[dict[str, float]]:
    """``Chart.sample_points`` drawn through numpy's own generator, the
    body it had before the chart computed the PCG64 stream itself."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        point = {}
        for name, (lo, hi) in zip(chart.coords, chart.domains):
            pad = margin * (hi - lo)
            point[name] = float(rng.uniform(lo + pad, hi - pad))
        points.append(point)
    return points


def eta(chart) -> np.ndarray:
    """The flat metric of ``chart``'s signature: +1 for each of its r
    spacelike axes, then -1 for each of its s timelike ones."""
    r, s = chart.signature
    return np.diag([1.0] * r + [-1.0] * s)


def free_symbols(e) -> frozenset[str]:
    """The names of the symbols in ``e``."""
    names, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node, ex.Sym):
                names.add(node.name)
            stack.extend(node.children())
    return frozenset(names)


def fd_step(x: float, h: float = 1e-6) -> float:
    return h * max(1.0, abs(x))


def fd_partial(field, env: dict, coord: str) -> np.ndarray:
    """Central finite difference of field(env) -> ndarray along coord."""
    h = fd_step(env[coord])
    up = dict(env)
    dn = dict(env)
    up[coord] += h
    dn[coord] -= h
    return (np.asarray(field(up)) - np.asarray(field(dn))) / (2.0 * h)


def fd_christoffel_lower(metric_at, env: dict, coords) -> np.ndarray:
    """Gamma_cab from finite differences of the metric alone."""
    n = len(coords)
    dg = np.stack([fd_partial(metric_at, env, c) for c in coords])
    gamma = np.empty((n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                gamma[c, a, b] = 0.5 * (dg[a][c, b] + dg[b][c, a]
                                        - dg[c][a, b])
    return gamma


def fd_riemann_mixed(gamma_mixed_at, env: dict, coords) -> np.ndarray:
    """R^a_bcd from finite differences of the mixed connection field."""
    n = len(coords)
    gm = np.asarray(gamma_mixed_at(env))
    dgm = np.stack([fd_partial(gamma_mixed_at, env, c) for c in coords])
    riem = np.empty((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = dgm[c][a, b, d] - dgm[d][a, b, c]
                    for e in range(n):
                        val += gm[a, e, c] * gm[e, b, d] \
                            - gm[a, e, d] * gm[e, b, c]
                    riem[a, b, c, d] = val
    return riem


class TreeEvaluator:
    """The reference for ``tape.Tape``: a memoised depth-first walk over
    the expression tree, evaluating at one point.

    It combines operands as it reaches them (a running sum or product, a
    denominator tested before the numerator is evaluated), with the
    arithmetic and error messages the tape must reproduce: the same
    values bit for bit, and the same exception for the first fault the
    walk meets.
    """

    def __init__(self, env: dict):
        self.env = env
        self._cache: dict = {}

    def __call__(self, e):
        if type(e) is ex.Const:
            return e.value
        got = self._cache.get(e)
        if got is None:
            got = self._cache[e] = self._eval(e)
        return got

    def _eval(self, e):
        if isinstance(e, ex.Sym):
            try:
                return self.env[e.name]
            except KeyError:
                raise UnboundSymbolError(e.name) from None
        if isinstance(e, ex.Add):
            v = 0
            for t in e.terms:
                v = _apply(e, operator.add, v, self(t))
            return v
        if isinstance(e, ex.Mul):
            v = 1
            for f in e.factors:
                v = _apply(e, operator.mul, v, self(f))
            return v
        if isinstance(e, ex.Neg):
            return -self(e.arg)
        if isinstance(e, ex.Div):
            den = self(e.den)
            if den == 0:
                raise EvalDomainError(
                    f"division by zero in '{ex.to_source(e)}'", e)
            return _apply(e, operator.truediv, self(e.num), den)
        if isinstance(e, ex.Pow):
            return _apply(e, ex._pow_value, self(e.base), e.exponent)
        if isinstance(e, ex.Fun):
            return _apply(e, ex._fun_value, e.name, self(e.arg), e)
        raise TypeError(f"cannot evaluate {type(e).__name__}")


def tape_reader(comps, coords):
    """Function from the values of ``coords``, in order, to the values of
    ``comps``, an array of expressions, as a complex array of its shape,
    by one ``tape.Tape`` compiled here: a reference reader for a test that
    reads many points."""
    comps = np.asarray(comps, dtype=object)
    tape = Tape(comps.flat, coords)
    return lambda x: np.array(tape(*x), dtype=complex).reshape(comps.shape)


def tree_values(comps, env: dict) -> np.ndarray:
    """The values of ``comps``, an array of expressions, at one point by
    ``TreeEvaluator``, as a complex array of its shape."""
    comps = np.asarray(comps, dtype=object)
    evaluate = TreeEvaluator(env)
    return np.array([evaluate(e) for e in comps.flat],
                    dtype=complex).reshape(comps.shape)


_SIGN = re.compile(r"\s*([+-])(?!>)\s*")     # a sign, not the '-' of '->'


@functools.lru_cache(maxsize=64)
def _pair_masks(shape, pair):
    """Read-only masks of a pair hint over ``shape``: the entries it builds
    (idx[i] <= idx[j], or < for an antisymmetric pair), the entries it
    mirrors (idx[i] > idx[j]) and the diagonal (idx[i] == idx[j])."""
    i, j, sign = pair
    grid = np.indices(shape, sparse=True)
    built = grid[i] < grid[j] if sign < 0 else grid[i] <= grid[j]
    return tuple(np.broadcast_to(mask, shape) for mask in
                 (built, grid[i] > grid[j], grid[i] == grid[j]))


def mirror(arr, pair):
    """The reference for ``tensor.mirror``: fill the entries with
    idx[i] > idx[j] from their images, by numpy masks."""
    i, j, sign = pair
    _, low, diagonal = _pair_masks(arr.shape, pair)
    if sign < 0:
        arr[diagonal] = ex.ZERO
    image = np.swapaxes(arr, i, j)[low]
    arr[low] = image if sign > 0 else np.frompyfunc(ex.neg, 1, 1)(image)
    return arr


def _plan(term: str, output: str, shapes, pair):
    """How one contraction of an einsum spec gathers its factors, for
    operands of the given shapes: the output shape, the mask of built
    components and their count, the terms per component, and per operand
    the flat index of its factor in every term, in order (None for a
    scalar)."""
    inputs, arrow, _ = term.partition("->")
    inputs = inputs.split(",")
    if not arrow or len(inputs) != len(shapes):
        raise TensorError(f"einsum term '{term}' does not match "
                          f"{len(shapes)} operand(s)")
    extent: dict[str, int] = {}
    for letters, op_shape in zip(inputs, shapes):
        if len(letters) != len(op_shape):
            raise TensorError(f"einsum operand '{letters}' has "
                              f"{len(op_shape)} axes")
        for letter, size in zip(letters, op_shape):
            if extent.setdefault(letter, size) != size:
                raise TensorError(f"einsum index '{letter}' has extents "
                                  f"{extent[letter]} and {size}")
    if len(set(output)) != len(output) or not set(output) <= set(extent):
        raise TensorError(f"einsum output '{output}' is not a set of "
                          "operand letters")
    shape = tuple(extent[c] for c in output)
    built = (_pair_masks(shape, pair)[0] if pair is not None
             else np.broadcast_to(True, shape))
    summed = [c for c in dict.fromkeys("".join(inputs)) if c not in output]
    # one row per built output index and summed index, summed fastest
    grid = np.indices(shape + tuple(extent[c] for c in summed))
    grid = grid[(slice(None), built)].reshape(
        grid.shape[0], int(built.sum()) * math.prod(extent[c] for c in summed))
    letters = list(output) + summed
    index = tuple(
        np.ravel_multi_index([grid[letters.index(c)] for c in spec_k],
                             op_shape) if spec_k else None
        for spec_k, op_shape in zip(inputs, shapes))
    return (shape, built, int(built.sum()),
            math.prod(extent[c] for c in summed), index)


def einsum(spec: str, *operands, pair=None) -> np.ndarray:
    """The reference for ``tensor.einsum``: every product is built, a
    zero factor or not, and each component is ``ex.add`` of them all."""
    spec = spec.strip()
    parts = _SIGN.split(spec if _SIGN.match(spec) else "+" + spec)
    ops = [np.asarray(op, dtype=object) for op in operands]
    outputs = {term.partition("->")[2] for term in parts[2::2]}
    if len(outputs) != 1:
        raise TensorError(f"einsum spec '{spec}' has several outputs")
    output = outputs.pop()
    shape = None
    chunks = []                     # per contraction: terms per component
    for sign, term in zip(parts[1::2], parts[2::2]):
        mine = ops[:term.partition("->")[0].count(",") + 1]
        ops = ops[len(mine):]
        plan = _plan(term, output, tuple(op.shape for op in mine), pair)
        if shape not in (None, plan[0]):
            raise TensorError(f"einsum spec '{spec}' sums different shapes")
        shape, built, count, width, index = plan
        factors = [np.take(op, idx) if idx is not None
                   else np.full(count * width, op[()], dtype=object)
                   for op, idx in zip(mine, index)]
        terms = list(factors[0] if len(mine) == 1
                     else map(ex.mul, *factors))
        if sign == "-":
            terms = list(map(ex.neg, terms))
        chunks.append([terms[k * width:(k + 1) * width]
                       for k in range(count)])
    if ops:
        raise TensorError(f"einsum spec '{spec}' does not match "
                          f"{len(operands)} operand(s)")
    out = np.empty(shape, dtype=object)
    out[built] = np.fromiter(
        (ex.add(*itertools.chain.from_iterable(per_component))
         for per_component in zip(*chunks)), dtype=object, count=count)
    return mirror(out, pair) if pair is not None else out


#: pair hints of the symbolic formulas: (anti)symmetric component axes
_SYM01 = (0, 1, +1)
_SYM12 = (1, 2, +1)
_ANTI23 = (2, 3, -1)


def partials(comps, coords):
    """d[k, ...] = d_k comps, symbolic, stacked on a leading axis."""
    return np.stack([np.frompyfunc(Differentiator(c), 1, 1)(comps)
                     for c in coords])


def christoffel_lower(g, coords):
    """Gamma_cab, scaled by numpy object arithmetic as
    ``christoffel_classical`` once did."""
    dg = partials(g, coords)
    return einsum("acb->cab + bca->cab - cab->cab", dg, dg, dg,
                  pair=_SYM12) * ex.HALF


def sym_partial(a, coords):
    """P[I,a,b] = sym dA, scaled by numpy object arithmetic."""
    da = partials(a, coords)
    return einsum("aib->iab + bia->iab", da, da, pair=_SYM12) * ex.HALF


def einstein_tensor(ricci, scalar, g):
    """G = Ric - g R / 2 by numpy object arithmetic."""
    return ricci - ex.HALF * g * scalar


def classical_du(gamma_mixed, u):
    """du^c/ds = -Gamma^c_ab u^a u^b, negated by numpy."""
    return -einsum("cab,a,b->c", gamma_mixed, u, u)


def factored_du(a, f, g_inv, p, a_up, u):
    """The factored du^c/ds of ``geometry.factored_rhs``, negated by
    numpy."""
    f_mix = einsum("cd,idb->icb", g_inv, f)
    quad = einsum("iab,a,b->i", p, u, u)
    a_dot_u = einsum("ia,a->i", a, u)
    return -einsum("ic,i->c - i,icb,b->c", a_up, quad, a_dot_u, f_mix, u)


def sym_trace(s, g_inv):
    """S_I = g^ab S_Iab, symbolic."""
    return einsum("ab,iab->i", g_inv, s)


def precurrents(f, gamma_mixed, coords):
    """J[I,a,b,c] = nabla_a F_Ibc = d_a F_Ibc - Gamma^e_ab F_Iec
    - Gamma^e_ac F_Ibe, symbolic, from the symbolic derivatives of F."""
    gm = gamma_mixed
    df = partials(f, coords)
    jp = einsum("aibc->iabc", df, pair=_ANTI23) - einsum(
        "eab,iec->iabc + eac,ibe->iabc", gm, f, gm, f, pair=_ANTI23)
    # the difference of two mirrored halves stores neg(a) - neg(b) below the
    # diagonal; mirror again to store the negation of the built component
    return mirror(jp, _ANTI23)


def currents(j_pre, g_inv):
    """J[I,b] = g^ad J_Idab, symbolic."""
    return einsum("ad,idab->ib", g_inv, j_pre)


def riemann_decomposed(a, f, s, j_pre):
    """The three parts (R(c), R(f), R(s)) of the Riemann split, symbolic,
    with the formulas of ``metricforms.geometry.riemann_decomposed``."""
    rc = einsum("ia,ibcd->abcd - ib,iacd->abcd + ic,idab->abcd "
                "- id,icab->abcd", a, j_pre, a, j_pre, a, j_pre, a, j_pre,
                pair=_ANTI23) * ex.HALF
    rf = einsum("iad,ibc->abcd - iac,ibd->abcd + ,iab,icd->abcd",
                f, f, f, f, ex.Const(-2), f, f,
                pair=_ANTI23) * ex.Const(0.25)
    rs = einsum("iac,ibd->abcd - iad,ibc->abcd", s, s, s, s, pair=_ANTI23)
    # scaling the mirrored half gives Mul(c, Neg(sum)); mirror again to
    # store Neg(Mul(c, sum)), the negation of the built component
    return mirror(rc, _ANTI23), mirror(rf, _ANTI23), rs


def ricci_einstein_factored(a, f, s, s_trace, j_pre, j, g, g_inv, a_up):
    """(Ric, R, T(f), T(c), T(s)) of the factored route, symbolic, with the
    formulas of ``metricforms.geometry.ricci_einstein_factored``."""
    f_mix = einsum("bd,iad->iab", g_inv, f)        # F_Ia^b
    s_mix = einsum("bd,iad->iab", g_inv, s)        # S_Ia^b
    a_dot_j = einsum("ic,ic->", a, einsum("cd,id->ic", g_inv, j))[()]
    f_dot_f = einsum("iab,iab->", f, einsum("ac,icb->iab", g_inv, f_mix))[()]
    s_dot_s = einsum("iab,iab->", s, einsum("ac,icb->iab", g_inv, s_mix))[()]
    trace_sq = einsum("i,i->", s_trace, s_trace)[()]
    current_half = einsum(
        "-ia,ib->ab - ib,ia->ab + ic,iacb->ab + ic,ibca->ab",
        a, j, a, j, a_up, j_pre, a_up, j_pre, pair=_SYM01) * ex.HALF
    ff = einsum("iac,ibc->ab", f, f_mix, pair=_SYM01)
    ss = einsum("iac,ibc->ab", s, s_mix, pair=_SYM01)
    s_tr = einsum("i,iab->ab", s_trace, s)
    ricci = current_half + ff * ex.Const(-0.75) + s_tr - ss
    t_form = (ff + ex.Const(-0.5) * g * f_dot_f) * ex.Const(-0.75)
    t_current = current_half + g * a_dot_j
    t_sym = (s_tr - ss + ex.Const(-0.5) * g * trace_sq
             + ex.HALF * g * s_dot_s)
    scalar = ex.add(ex.mul(ex.Const(-2), a_dot_j),
                    ex.mul(ex.Const(-0.75), f_dot_f),
                    trace_sq, ex.neg(s_dot_s))
    return ricci, scalar, t_form, t_current, t_sym


def sym_covariant_derivative(p, gamma_mixed, a):
    """S[I,a,b] = P_Iab - Gamma^c_ab A_Ic, symbolic."""
    return p - einsum("cab,ic->iab", gamma_mixed, a, pair=_SYM12)


def form_cross(a, f):
    """X[c,a,b] = A_a (.) F_bc + A_b (.) F_ac, symbolic."""
    return einsum("ia,ibc->cab + ib,iac->cab", a, f, a, f, pair=_SYM12)


def sym_derivative_via_factors(a, f, a_up):
    """S[J,a,b] = -A_J^c X_cab / 2, symbolic."""
    return einsum("jc,cab->jab", a_up, form_cross(a, f),
                  pair=_SYM12) * ex.Const(-0.5)


def christoffel_factored(a, f, p, g_inv):
    """(Gamma_cab, Gamma^c_ab) of the factored route, symbolic."""
    lower = (einsum("ic,iab->cab", a, p, pair=_SYM12)
             + form_cross(a, f) * ex.HALF)
    return lower, einsum("cd,dab->cab", g_inv, lower, pair=_SYM12)


def metric_compatibility(g, gamma_mixed, coords):
    """nabla_c g_ab = d_c g_ab - Gamma^e_ca g_eb - Gamma^e_cb g_ae,
    symbolic."""
    gm = gamma_mixed
    return einsum("cab->cab - eca,eb->cab - ecb,ae->cab",
                  partials(g, coords), gm, g, gm, g, pair=_SYM12)


def lie_derivative_metric(g, a_up, coords):
    """(L_{A_I} g)_ab = A^c d_c g_ab + g_cb d_a A^c + g_ac d_b A^c,
    symbolic."""
    dg, dx = partials(g, coords), partials(a_up, coords)
    return einsum("ic,cab->iab + cb,aic->iab + ac,bic->iab",
                  a_up, dg, g, dx, g, dx, pair=_SYM12)


def riemann_lower(g, riemann_mixed):
    """R_abcd = g_ae R^e_bcd, symbolic."""
    return einsum("ae,ebcd->abcd", g, riemann_mixed)


def _apply(node, f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        what = "zero raised to a negative power"
    except OverflowError:
        what = "overflow"
    except ValueError:
        what = "non-finite argument"
    raise EvalDomainError(f"{what} in '{ex.to_source(node)}'", node)


def rk4(rhs, chart, start, velocity, steps: int, h: float):
    """The reference for ``geometry._rk4``: fixed-step RK4 on the state
    (x, u) as one tuple, with the stage states built by comprehensions and
    the chart's own domain test."""
    n = chart.dim
    half, sixth = 0.5 * h, h / 6.0

    def deriv(state):
        return state[n:] + rhs(state[:n], state[n:])

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


def escape(s: str) -> str:
    """The reference for ``report._escape``: one character at a time."""
    out = ["\""]
    for ch in s:
        if ch in ("\"", "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must contain finite numbers")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """The reference for ``report.dumps_canonical``: one call per value,
    each returning its own string."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return escape(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        return dumps_canonical([obj.real, obj.imag], indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{escape(str(k))}: {dumps_canonical(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
