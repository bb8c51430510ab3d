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
very same nodes.  A product with a zero constant factor, most of them
for the sparse metrics of the catalog, is not built: ``ex.mul`` would
make it ZERO and ``ex.add`` drop it.  Scalings, sums and negations are
contractions too, with scalar operands, so no numpy loop runs over
expressions.

What a contraction costs is what it builds.  Its plan, the integer
index of every factor of every product, is made once per spec, operand
shapes and pair hint, and cached for the process (``_plan``); the
catalog's analyses repeat most of theirs.  A call then scans each
distinct operand once for zero entries and wild constants, visits only
the products whose first factor is not zero, and builds the components
in plain Python.

Numbers come from ``values_at``: one ``expr.walk`` of the components at
all the points at once, converted to a complex array stacked on a
leading point axis.  Each distinct node is walked and converted once,
however many components hold it.

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
from typing import NamedTuple

import numpy as np

from .chart import Chart
from .errors import (
    EvalDomainError,
    MetricFormsError,
    NumericFaultError,
    SingularMetricError,
    TensorError,
    ZeroPivotError,
)
from . import expr as ex
from .expr import _tame

Pair = tuple[int, int, int]

#: a metric is singular where |det g| is below this fraction of the
#: product of its rows' largest entries (``MetricField.values``)
SINGULAR_BOUND = 1e-12


# ---------------------------------------------------------------------------
# the contraction primitive
# ---------------------------------------------------------------------------

def elementwise(f, arr: np.ndarray) -> np.ndarray:
    """``f`` of every component of an object array, called from Python:
    no numpy loop runs over expressions, so none warns of the overflow
    that constant folding met and refused."""
    return np.fromiter(map(f, arr.flat), dtype=object,
                       count=arr.size).reshape(arr.shape)


#: a sequence of non-negative integers in the narrowest unsigned width
Index = bytes | memoryview


def _compact(values) -> Index:
    """Non-negative integers as bytes when all are below 256, else as a
    memoryview of 16- or 32-bit ones: indexing either gives an int."""
    values = np.asarray(values, dtype=np.intp).ravel()
    top = int(values.max()) if values.size else 0
    if top < 1 << 8:
        return values.astype(np.uint8).tobytes()
    code = "H" if top < 1 << 16 else "I"
    return memoryview(values.astype(code).tobytes()).cast(code)


@functools.lru_cache(maxsize=64)
def _pair_plan(shape: tuple[int, ...], pair: Pair):
    """Flat positions over ``shape`` for a pair hint, ascending: the
    entries it builds (idx[i] <= idx[j], or < for an antisymmetric pair),
    the entries it mirrors (idx[i] > idx[j]), the mirror image of each of
    those (idx[i] and idx[j] swapped) and the diagonal (idx[i] == idx[j]).
    Cached: a handful of shapes recur on every call of a run."""
    i, j, sign = pair
    swap = list(range(len(shape)))
    swap[i], swap[j] = j, i
    grid = np.indices(shape).reshape(len(shape), math.prod(shape))
    low = grid[i] > grid[j]
    built = grid[i] < grid[j] if sign < 0 else ~low
    image = np.ravel_multi_index(grid[swap], shape)[low]
    return tuple(map(_compact, (np.flatnonzero(built), np.flatnonzero(low),
                                image, np.flatnonzero(grid[i] == grid[j]))))


def _fill_mirrors(flat: list, shape: tuple[int, ...], pair: Pair) -> None:
    """``mirror`` on the components of an array of ``shape``, listed in
    C order."""
    _, low, image, diagonal = _pair_plan(shape, pair)
    if pair[2] > 0:
        for k, m in zip(low, image):
            flat[k] = flat[m]
        return
    for k in diagonal:
        flat[k] = ex.ZERO
    for k, m in zip(low, image):
        flat[k] = ex.neg(flat[m])


def mirror(arr: np.ndarray, pair: Pair) -> np.ndarray:
    """Fill the entries of ``arr`` with idx[i] > idx[j] from their mirror
    images, in place.  Sign +1 shares the mirrored node; sign -1 stores its
    negation and puts ZERO on the diagonal idx[i] == idx[j]."""
    flat = arr.ravel().tolist()
    _fill_mirrors(flat, arr.shape, pair)
    arr[...] = np.fromiter(flat, dtype=object,
                           count=len(flat)).reshape(arr.shape)
    return arr


_SIGN = re.compile(r"\s*([+-])(?!>)\s*")     # a sign, not the '-' of '->'

#: contraction plans kept per process (``_plan``): the eight catalog
#: analyses make 184 contractions from 63 plans
PLAN_CACHE_SIZE = 256


class _Term(NamedTuple):
    """One contraction of an einsum plan.  Its rows are the products it
    sums, one per built component and summed index, the summed letters
    fastest; ``columns`` holds, per operand, the flat index of its factor
    in every row."""
    negate: bool
    operands: slice
    width: int                  # rows per built component
    columns: tuple


class _Plan(NamedTuple):
    """An einsum plan: the output shape, the flat positions a pair hint
    builds, and the contractions summed into them."""
    shape: tuple[int, ...]
    built: Index | None         # flat positions built; None for all
    terms: tuple[_Term, ...]


def _strides(letters: str, shape: tuple[int, ...]) -> dict[str, int]:
    """The flat step of each letter of an operand: the sum of its axes'
    C-order strides, so a repeated letter walks the diagonal."""
    steps, step = {}, 1
    for letter, size in zip(letters[::-1], shape[::-1]):
        steps[letter] = steps.get(letter, 0) + step
        step *= size
    return steps


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(spec: str, shapes: tuple[tuple[int, ...], ...],
          pair: Pair | None) -> _Plan:
    """How ``einsum`` builds ``spec`` for operands of the given shapes:
    the output shape, the positions it builds, and per contraction its
    sign, its operands and the index columns of its rows.  Cached per
    process: an analysis makes most contractions of the one before."""
    spec = spec.strip()
    parts = _SIGN.split(spec if _SIGN.match(spec) else "+" + spec)
    outputs = {term.partition("->")[2] for term in parts[2::2]}
    if len(outputs) != 1:
        raise TensorError(f"einsum spec '{spec}' has several outputs")
    output = outputs.pop()
    shape, built, terms, first = None, None, [], 0
    for sign, term in zip(parts[1::2], parts[2::2]):
        inputs, arrow, _ = term.partition("->")
        inputs = inputs.split(",")
        mine = shapes[first:first + len(inputs)]
        if not arrow or len(inputs) != len(mine):
            raise TensorError(f"einsum term '{term}' does not match "
                              f"{len(mine)} operand(s)")
        extent: dict[str, int] = {}
        for letters, op_shape in zip(inputs, mine):
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
        if shape is None:
            shape = tuple(extent[c] for c in output)
            built = _pair_plan(shape, pair)[0] if pair is not None else None
            where = np.indices(shape).reshape(len(shape), math.prod(shape))
            if built is not None:
                where = where[:, list(built)]
        elif shape != tuple(extent[c] for c in output):
            raise TensorError(f"einsum spec '{spec}' sums different shapes")
        summed = [c for c in dict.fromkeys("".join(inputs)) if c not in output]
        width = math.prod(extent[c] for c in summed)
        inner = np.indices([extent[c] for c in summed]).reshape(len(summed),
                                                                width)
        columns = []
        for letters, op_shape in zip(inputs, mine):
            steps = _strides(letters, op_shape)
            outer = sum((steps.get(c, 0) * k for c, k in zip(output, where)),
                        np.zeros(where.shape[1], dtype=np.intp))
            columns.append((outer[:, None] + sum(
                (steps.get(c, 0) * k for c, k in zip(summed, inner)),
                np.zeros(width, dtype=np.intp))).ravel())
        terms.append(_Term(sign == "-", slice(first, first + len(inputs)),
                           width, tuple(map(_compact, columns))))
        first += len(inputs)
    if first != len(shapes):
        raise TensorError(f"einsum spec '{spec}' does not match "
                          f"{len(shapes)} operand(s)")
    return _Plan(shape, built, tuple(terms))


_NOT = bytes([1]) + bytes(255)      # a byte table: 0 -> 1, 1 -> 0


def _scan(entries: list) -> tuple[bytearray, bool]:
    """Per entry, whether it is a zero constant; and whether any entry is
    wild: it folds a constant beyond ``TAME_BOUND`` into the sum or
    product it joins (its own value, or one of its factors or terms).
    A product of tame operands with a zero factor is ZERO, and a sum of
    such products drops it exactly; with a wild constant, folding may
    overflow and keep every operand."""
    zero = bytearray(len(entries))
    wild = False
    for k, e in enumerate(entries):
        t = type(e)
        if t is ex.Const:
            if e.value == 0:
                zero[k] = 1
            elif not _tame(e.value):
                wild = True
        elif (t is ex.Mul or t is ex.Add) and not wild:
            parts = e.factors if t is ex.Mul else e.terms
            wild = ex.Const in map(type, parts) and not all(
                _tame(c.value) for c in parts if type(c) is ex.Const)
    return zero, wild


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
    entries.  A product with a zero constant factor is not built: ``ex.mul``
    would make it ZERO, and ``ex.add`` drops ZERO, so every component is
    the same node.  Only when an operand holds a constant beyond
    ``TAME_BOUND`` is every product built, since folding may then
    overflow, and an unfolded sum or product keeps every operand.

    ``spec`` may also be a signed sum of contractions with one output,
    ``"cab->cab - eca,eb->cab"``, each taking the next operands in turn.
    Each component is then one flat sum of all their terms, in order, a
    term of a subtracted contraction being negated: the one ``ex.add`` a
    loop over the whole formula makes, with no partial sums.

    ``pair=(i, j, sign)`` builds only the components with idx[i] <= idx[j]
    (idx[i] < idx[j] for sign -1) and fills the rest by ``mirror``.
    Mirroring is linear, so a sum of contractions hinted alike is exact
    wherever the sum is (anti)symmetric, even where one term alone is not.

    The plan of the rows (``_plan``) is cached per spec, operand shapes
    and pair.  A call scans each distinct operand once, for zero entries
    and wild constants, and visits only the rows whose first factor is
    not zero, in order.
    """
    ops = [np.asarray(op, dtype=object) for op in operands]
    plan = _plan(spec, tuple(op.shape for op in ops), pair)
    scanned: dict[int, tuple] = {}      # id of an operand -> entries, zeros
    wild = False
    for op, arr in zip(operands, ops):
        if id(op) not in scanned:
            entries = arr.ravel().tolist()
            zero, wild_here = _scan(entries)
            scanned[id(op)] = entries, zero
            wild = wild or wild_here
    scans = [scanned[id(op)] for op in operands]
    size = math.prod(plan.shape)
    sums = [[] for _ in range(size if plan.built is None
                              else len(plan.built))]
    for term in plan.terms:
        mine = scans[term.operands]
        width, negate = term.width, term.negate
        if len(mine) == 1:
            (entries, _), = mine
            for r, k in enumerate(term.columns[0]):
                sums[r // width].append(ex.neg(entries[k]) if negate
                                        else entries[k])
            continue
        if wild:            # every product is built
            mine = [(entries, bytes(len(zero))) for entries, zero in mine]
        rows = range(len(term.columns[0]))
        zero = mine[0][1]
        if 1 in zero:       # only the rows of the first factor's nonzeros
            rows = itertools.compress(rows, map(
                zero.translate(_NOT).__getitem__, term.columns[0]))
        factors = [(*s, c) for s, c in zip(mine, term.columns)]
        for r in rows:
            args = []
            for entries, zeros, column in factors:
                k = column[r]
                if zeros[k]:
                    break
                args.append(entries[k])
            else:
                t = ex.mul(*args)
                sums[r // width].append(ex.neg(t) if negate else t)
    comps = [ex.add(*terms) for terms in sums]
    if plan.built is not None:
        flat: list = [None] * size
        for k, c in zip(plan.built, comps):
            flat[k] = c
        _fill_mirrors(flat, plan.shape, pair)
        comps = flat
    return np.fromiter(comps, dtype=object, count=size).reshape(plan.shape)


class Tensor:
    """An object array of expression components."""

    __slots__ = ("comps",)

    def __init__(self, comps: np.ndarray):
        self.comps = np.asarray(comps, dtype=object)

    def evaluate(self, point: dict[str, float]) -> np.ndarray:
        """Numeric component array at a point (complex dtype)."""
        return values_at(self.comps, [point])[0]


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

    def values(self, points: list[dict[str, float]],
               vals: np.ndarray | None = None) -> np.ndarray:
        """The real metric at ``points``, stacked (p, n, n), from one walk
        over all of them: the one place that judges its numbers.  A point
        is read, walked then converted, before the next: on a fault the
        points are read one at a time, in order.  EvalDomainError at a
        non-finite value, then TensorError at a non-real one, then
        SingularMetricError at the first point where det g = 0 or
        |det g| < SINGULAR_BOUND * prod_a max_b |g_ab|, a scale-free bound
        by Hadamard's inequality, compared in logs.  ``vals``, the complex
        values at ``points`` read already (by a session's ``vals``, or by
        a tape, bit for bit the walk's), are judged in place of a walk."""
        if vals is None:
            try:
                vals = values_at(self.comps, points)
            except MetricFormsError:
                for point in points:
                    values_at(self.comps, [point])
                raise
        vals = require_finite(vals, self.comps, "metric", points)
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
    def check_values(self) -> tuple[list[dict[str, float]], np.ndarray]:
        """Three seeded check points and the metric's values there, read
        before the metric is factored and kept for the inverse's check."""
        points = self.chart.sample_points(3, seed=1404)
        return points, self.values(points)

    @functools.cached_property
    def ldl(self) -> tuple:
        """The one symbolic factorization of this metric, ``ldl`` of its
        components: the ``ldl`` form set and the inverse metric are both
        built from it.  The metric is judged at its check points first, so
        a metric singular there is called singular, not unpivotable."""
        self.check_values
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
    by multiplying back at the metric's check points, by ``walk``.  A
    singular point raises SingularMetricError, before the factorization;
    a metric regular there that has no nonzero pivot raises
    ZeroPivotError.  At a regular point a failed multiply-back is a
    wrong inverse, not a singular metric: NumericFaultError."""
    points, g_vals = g.check_values
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
    for point, gv in zip(points, g_vals):
        # non-finite values fail the comparison, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.max(np.abs(gv @ values_at(comps, [point])[0]
                                - np.eye(n)))
        if not (err <= 1e-10):
            raise NumericFaultError(
                f"inverse metric fails the multiply-back check at {point}: "
                f"max |g g^-1 - 1| = {err:.3e}")
    return Tensor(comps)


# ---------------------------------------------------------------------------
# numeric helpers used by verification code
# ---------------------------------------------------------------------------

def values_at(comps: np.ndarray, points: list[dict[str, float]],
              known: dict | None = None) -> np.ndarray:
    """The values of ``comps`` at ``points``, stacked (p,) + shape as a
    complex array, by one ``walk`` over all the points (``known`` seeds
    its memo); a fault in the walk is raised before any conversion.

    Each distinct node, by identity, is walked and converted once, and
    its row is gathered into every component that holds it: mirrored
    and ZERO components repeat.  An exact integer beyond the float range
    is an overflow, named at the first such point and, there, the first
    such component in flat order."""
    flat = list(comps.flat)
    ids = list(map(id, flat))
    firsts = dict(zip(ids, flat))       # in order of first appearance
    nodes = list(firsts.values())
    rank = dict(zip(firsts, range(len(nodes))))
    values = ex.walk(nodes, points, known)
    try:
        vals = np.array(values, dtype=complex).reshape(len(nodes),
                                                       len(points))
    except OverflowError:
        for k in range(len(points)):
            for e, x in zip(nodes, values):
                try:
                    complex(x[k])
                except OverflowError:
                    raise ex._fault("overflow", e) from None
        raise
    return vals[list(map(rank.__getitem__, ids))].T.reshape(
        (len(points), *comps.shape))


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
