"""Dense tensors of symbolic components, metric fields and their inverse.

Components are expression trees; every verification downstream contracts
them to numbers at sampled points.  A ``Tensor`` is its object array of
components (the metric and the form set also carry a chart and labels):
which slot is upper, lower or the leading set axis is fixed by the
formula that builds it, and each builder states its layout in its docstring.

Every index contraction, here and in the geometry built on top, goes
through one primitive: ``einsum``, Einstein summation over object arrays
of expressions.  Each component it returns is one ``ex.add`` of
``ex.mul`` products, summed letters taken in lexicographic order, so a
contraction written with it builds the same terms in the same order as
the equivalent nest of loops, and hash-consing makes the results the
very same nodes.  Elementwise sums and differences use numpy object
arithmetic, which calls the same smart constructors.

A metric is factored once, symbolically, as L D Lt (``ldl``).  The
``ldl`` form set V = L sqrt(D) and the inverse metric L^-t D^-1 L^-1 are
both built from those factors.  Only the factorization simplifies: a
pivot must be recognised as identically zero, and ``factor`` prints the
forms.  Nothing reads the inverse symbolically, so it is left as built
and checked by multiplying back at sample points.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

from .chart import Chart
from .errors import (
    EvalDomainError,
    NumericFaultError,
    SingularMetricError,
    TensorError,
    ZeroPivotError,
)
from . import expr as ex
from .expr import Expr, Tape

Pair = tuple[int, int, int]

#: a metric is singular where |det g| is below this fraction of the
#: product of its rows' largest entries (``MetricField.values``)
SINGULAR_BOUND = 1e-12


# ---------------------------------------------------------------------------
# the contraction primitive
# ---------------------------------------------------------------------------

def elementwise(f, arr: np.ndarray) -> np.ndarray:
    """``f`` of every component of an object array.  Constant folding in
    ``f`` is Python arithmetic, so numpy's floating-point warnings, which
    would fire on an inf or nan constant, do not apply."""
    with np.errstate(all="ignore"):
        return np.frompyfunc(f, 1, 1)(arr)


@functools.lru_cache(maxsize=64)
def _pair_masks(shape: tuple[int, ...], pair: Pair):
    """Read-only masks of a pair hint over ``shape``: the entries it builds
    (idx[i] <= idx[j], or < for an antisymmetric pair), the entries it
    mirrors (idx[i] > idx[j]) and the diagonal (idx[i] == idx[j]).  Cached:
    a handful of shapes recur on every call of a run."""
    i, j, sign = pair
    grid = np.indices(shape, sparse=True)
    built = grid[i] < grid[j] if sign < 0 else grid[i] <= grid[j]
    return tuple(np.broadcast_to(mask, shape) for mask in
                 (built, grid[i] > grid[j], grid[i] == grid[j]))


def mirror(arr: np.ndarray, pair: Pair) -> np.ndarray:
    """Fill the entries of ``arr`` with idx[i] > idx[j] from their mirror
    images, in place.  Sign +1 shares the mirrored node; sign -1 stores its
    negation and puts ZERO on the diagonal idx[i] == idx[j]."""
    i, j, sign = pair
    _, low, diagonal = _pair_masks(arr.shape, pair)
    if sign < 0:
        arr[diagonal] = ex.ZERO
    image = np.swapaxes(arr, i, j)[low]
    arr[low] = image if sign > 0 else elementwise(ex.neg, image)
    return arr


_SIGN = re.compile(r"\s*([+-])(?!>)\s*")     # a sign, not the '-' of '->'


def einsum(spec: str, *operands, pair: Pair | None = None) -> np.ndarray:
    """Symbolic Einstein summation over object arrays of expressions.

    ``spec`` is numpy's explicit form, ``"ic,iab->cab"``: one letter per
    operand axis, the output letters after ``->``.  A letter missing from
    the output is summed; a letter repeated within an operand takes its
    diagonal.  An operand with no letters is a scalar factor.  Component

        out[idx] = ex.add(*[ex.mul(*factors) for each summed index])

    with the summed letters in order of first appearance and iterated
    lexicographically (the last one fastest), which is the order of the
    equivalent nest of loops.  With a single operand the terms are its
    entries.

    ``spec`` may also be a signed sum of contractions with one output,
    ``"cab->cab - eca,eb->cab"``, each taking the next operands in turn.
    Each component is then one flat sum of all their terms, in order, a
    term of a subtracted contraction being negated: the one ``ex.add`` a
    loop over the whole formula makes, with no partial sums.

    ``pair=(i, j, sign)`` builds only the components with idx[i] <= idx[j]
    (idx[i] < idx[j] for sign -1) and fills the rest by ``mirror``.
    Mirroring is linear, so a sum of contractions hinted alike is exact
    wherever the sum is (anti)symmetric, even where one term alone is not.
    """
    spec = spec.strip()
    parts = _SIGN.split(spec if spec[:1] in ("+", "-") else "+" + spec)
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


def _plan(term: str, output: str, shapes: tuple[tuple[int, ...], ...],
          pair: Pair | None):
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
    grid = grid[(slice(None), built)].reshape(grid.shape[0], -1)
    letters = list(output) + summed
    index = tuple(
        np.ravel_multi_index([grid[letters.index(c)] for c in spec_k],
                             op_shape) if spec_k else None
        for spec_k, op_shape in zip(inputs, shapes))
    return (shape, built, int(built.sum()),
            math.prod(extent[c] for c in summed), index)


class Tensor:
    """An object array of expression components."""

    __slots__ = ("comps",)

    def __init__(self, comps: np.ndarray):
        self.comps = np.asarray(comps, dtype=object)

    def map(self, f) -> "Tensor":
        return Tensor(elementwise(f, self.comps))

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.comps.shape != other.comps.shape:
            raise TensorError(f"cannot add component shapes "
                              f"{self.comps.shape} and {other.comps.shape}")
        return Tensor(self.comps + other.comps)

    def evaluate(self, point: dict[str, float]) -> np.ndarray:
        """Numeric component array at a point (complex dtype)."""
        return compiled(self.comps)(point)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField(Tensor):
    """Symmetric rank-2 field of expressions g[a, b] over a chart."""

    def __init__(self, chart: Chart, comps: np.ndarray):
        comps = np.asarray(comps, dtype=object)
        n = chart.dim
        if comps.shape != (n, n):
            raise TensorError(f"metric shape {comps.shape} on a "
                              f"{n}-dimensional chart")
        # mirror the upper triangle so g[a,b] and g[b,a] share one tree
        super().__init__(mirror(comps.copy(), (0, 1, +1)))
        self.chart = chart

    def is_diagonal(self) -> bool:
        n = self.chart.dim
        return all(ex._is_zero(ex.simplify(self.comps[a, b]))
                   for a in range(n) for b in range(a + 1, n))

    def evaluate(self, point: dict[str, float]) -> np.ndarray:
        return self.values([point])[0]

    @functools.cached_property
    def _read(self):
        return compiled(self.comps)

    def values(self, points: list[dict[str, float]]) -> np.ndarray:
        """The real metric at ``points``, stacked (p, n, n), from one tape
        compiled once per field: the one place that judges its numbers.
        EvalDomainError at a non-finite value, then TensorError at a
        non-real one, then SingularMetricError at the first point where
        det g = 0 or |det g| < SINGULAR_BOUND * prod_a max_b |g_ab|, a
        scale-free bound by Hadamard's inequality, compared in logs."""
        vals = require_finite(np.stack([self._read(p) for p in points]),
                              self.comps, "metric", points)
        if max_imag(vals) > 1e-12:
            raise TensorError("metric evaluated to a non-real matrix")
        vals = vals.real
        sign, logdet = np.linalg.slogdet(vals)
        with np.errstate(divide="ignore"):      # a zero row: log 0 = -inf
            rows = np.log(np.abs(vals).max(axis=2)).sum(axis=1)
        singular = np.flatnonzero(
            (sign == 0) | (logdet < math.log(SINGULAR_BOUND) + rows))
        if singular.size:
            raise SingularMetricError(points[singular[0]])
        return vals

    @functools.cached_property
    def ldl(self) -> tuple:
        """The one symbolic factorization of this metric, ``ldl`` of its
        components: the ``ldl`` form set and the inverse metric are both
        built from it."""
        return ldl(self.comps)


def _ldl_pass(work: np.ndarray):
    """One LDL pass in the given order: (L, D, None), or (None, None, j)
    when pivot j is identically zero."""
    n = work.shape[0]
    L = np.full((n, n), ex.ZERO, dtype=object)
    D = [ex.ZERO] * n

    def reduced(i, j):      # work[i, j] - sum_k<j L[i, k] L[j, k] D[k]
        return ex.add(work[i, j], *[ex.neg(ex.mul(L[i, k], L[j, k], D[k]))
                                    for k in range(j)])

    for j in range(n):
        pivot = ex.simplify(reduced(j, j))
        if ex._is_zero(pivot):
            return None, None, j
        D[j], L[j, j] = pivot, ex.ONE
        for i in range(j + 1, n):
            L[i, j] = ex.simplify(ex.div(reduced(i, j), pivot))
    return L, tuple(D), None


def ldl(g: np.ndarray):
    """Symbolic L D Lt of a symmetric matrix of expressions, as
    ``(L, D, order)`` with g[order][:, order] = L diag(D) Lt and L unit
    lower triangular.

    An identically zero pivot moves a later coordinate with a nonzero
    diagonal entry in front of it, and the pass starts again; when no
    such coordinate is left, ZeroPivotError names the first zero pivot.
    """
    n = g.shape[0]
    order = list(range(n))
    first_bad = None
    for _ in range(n):
        work = g[np.ix_(order, order)]
        L, D, bad = _ldl_pass(work)
        if bad is None:
            return L, D, tuple(order)
        if first_bad is None:
            first_bad = bad
        swap = next((k for k in range(bad + 1, n)
                     if not ex._is_zero(ex.simplify(work[k, k]))), None)
        if swap is None:
            break
        order[bad], order[swap] = order[swap], order[bad]
    raise ZeroPivotError(first_bad, tried_permutations=True)


def invert_metric(g: MetricField) -> Tensor:
    """g^-1 = L^-t D^-1 L^-1 from the metric's LDL factors, for any
    dimension; a diagonal metric gets its reciprocal diagonal.  Verified
    by multiplying back at three seeded sample points.  A singular point
    raises SingularMetricError, also when the factorization finds no
    nonzero pivot; a metric regular there that has none raises
    ZeroPivotError.  At a regular point a failed multiply-back is a
    wrong inverse, not a singular metric: NumericFaultError."""
    points = g.chart.sample_points(3, seed=1404)
    g_vals = g.values(points)
    L, D, order = g.ldl
    n = g.chart.dim
    # M = L^-1, unit lower triangular, by forward substitution
    m = np.full((n, n), ex.ZERO, dtype=object)
    for i in range(n):
        m[i, i] = ex.ONE
        for j in range(i):
            m[i, j] = ex.neg(ex.add(
                *[ex.mul(L[i, k], m[k, j]) for k in range(j, i)]))
    d_inv = np.array([ex.div(ex.ONE, d) for d in D], dtype=object)
    comps = np.empty((n, n), dtype=object)
    comps[np.ix_(order, order)] = einsum("ka,k,kb->ab", m, d_inv, m,
                                         pair=(0, 1, +1))
    inv_at = compiled(comps)
    for point, gv in zip(points, g_vals):
        # non-finite values fail the comparison, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.max(np.abs(gv @ inv_at(point) - np.eye(n)))
        if not (err <= 1e-10):
            raise NumericFaultError(
                f"inverse metric fails the multiply-back check at {point}: "
                f"max |g g^-1 - 1| = {err:.3e}")
    return Tensor(comps)


# ---------------------------------------------------------------------------
# numeric helpers used by verification code
# ---------------------------------------------------------------------------

def reader(tape: Tape, comps: np.ndarray):
    """Function from a slot list of ``tape`` to the values of ``comps``,
    expressions on the tape, as a complex array of their shape."""
    get = tape.getter(comps.flat)
    shape = comps.shape

    def read(v: list) -> np.ndarray:
        values = get(v)
        try:
            return np.array(values, dtype=complex).reshape(shape)
        except OverflowError:
            # an exact integer beyond the float range
            for e, x in zip(comps.flat, values):
                try:
                    complex(x)
                except OverflowError:
                    raise EvalDomainError(
                        f"overflow in '{ex.to_source(e)}'", e) from None
            raise

    return read


def compiled(comps: np.ndarray):
    """Function from a point to the values of ``comps`` as a complex
    array, from one tape compiled here and run on each call."""
    tape = Tape(comps.flat)
    read = reader(tape, comps)
    return lambda point: read(tape.run(point))


def require_finite(vals: np.ndarray, comps, what: str,
                   points: list[dict[str, float]]) -> np.ndarray:
    """``vals``, stacked over ``points``, or EvalDomainError naming the
    point and the component of ``what`` that evaluated to inf or nan, with
    its expression when ``comps`` (an array of them, or one) holds it: no
    report holds a non-finite number.  Division by zero and logs of
    non-positive reals raise on their own, so a non-finite value comes
    from float overflow, which Python arithmetic turns into inf without
    raising."""
    bad = np.argwhere(~np.isfinite(vals))
    if not bad.size:
        return vals
    point, *idx = (int(k) for k in bad[0])
    node = comps[tuple(idx)] if isinstance(comps, np.ndarray) else comps
    where = f" component {tuple(idx)}" if idx else ""
    source = f" '{ex.to_source(node)[:80]}'" if node is not None else ""
    raise EvalDomainError(f"overflow to a non-finite value in {what}{where}"
                          f"{source} at {points[point]}", node)


def max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def max_imag(values: np.ndarray) -> float:
    return float(np.max(np.abs(values.imag))) if values.size else 0.0


_PERM3 = tuple(
    (perm, 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1)
    for perm in itertools.permutations(range(3)))


def antisym_over_axes(vals: np.ndarray, axes: tuple[int, int, int]) -> np.ndarray:
    """Antisymmetrization of a numeric array over three of its axes."""
    out = np.zeros_like(vals)
    for perm, sign in _PERM3:
        # permuted[idx] = vals[j] with j[axes[k]] = idx[axes[perm[k]]]
        order = list(range(vals.ndim))
        for k, ax in enumerate(axes):
            order[axes[perm[k]]] = ax
        out = out + sign * np.transpose(vals, order)
    return out / 6.0


def antisym_cycle_residual(vals: np.ndarray, axes: tuple[int, int, int]) -> float:
    """Max |antisymmetrization over three axes| of a numeric array."""
    return max_abs(antisym_over_axes(vals, axes))
