"""Dense tensors of symbolic components, with an optional set-enumeration axis.

Components are expression trees; every verification downstream contracts
them to numbers at sampled points.  Coordinate indices carry a variance
('l' lower / 'u' upper).  The set-enumeration axis, when present, is the
leading axis and has no variance: it never takes part in contraction,
raising, or (anti)symmetrization.  The set product contracts it between
two set-indexed tensors:

    (A (.) B)[a..., b...] = sum_I A[I, a...] * B[I, b...]

Every index contraction, here and in the geometry built on top, goes
through one primitive: ``einsum``, Einstein summation over object arrays
of expressions.  Each component it returns is one ``ex.add`` of
``ex.mul`` products, summed letters taken in lexicographic order, so a
contraction written with it builds the same terms in the same order as
the equivalent nest of loops, and hash-consing makes the results the
very same nodes.  Elementwise sums and differences use numpy object
arithmetic, which calls the same smart constructors.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

from .chart import Chart
from .errors import (
    ChartError,
    SetAxisError,
    SingularMetricError,
    TensorError,
    VarianceError,
)
from . import expr as ex
from .expr import Expr, Evaluator

Variance = tuple[str, ...]
Pair = tuple[int, int, int]


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


def simplified(arr: np.ndarray, pair: Pair | None = None) -> np.ndarray:
    """``ex.simplify`` of every component.  With a pair hint only the half
    that ``einsum`` would build is simplified; the rest is mirrored from it."""
    if pair is None:
        return elementwise(ex.simplify, arr)
    out = np.empty(arr.shape, dtype=object)
    built = _pair_masks(arr.shape, pair)[0]
    out[built] = elementwise(ex.simplify, arr[built])
    return mirror(out, pair)


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
    __slots__ = ("chart", "comps", "variance", "set_indexed")

    def __init__(self, chart: Chart, comps: np.ndarray, variance: Variance,
                 set_indexed: bool = False):
        n = chart.dim
        variance = tuple(variance)
        if any(v not in ("l", "u") for v in variance):
            raise VarianceError(f"bad variance {variance}")
        comps = np.asarray(comps, dtype=object)
        expected = ((comps.shape[0],) if set_indexed else ()) + (n,) * len(variance)
        if comps.shape != expected:
            raise TensorError(
                f"component shape {comps.shape} does not match "
                f"{'set-indexed ' if set_indexed else ''}rank {len(variance)} "
                f"over a {n}-dimensional chart")
        self.chart = chart
        self.comps = comps
        self.variance = variance
        self.set_indexed = set_indexed

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def set_extent(self) -> int:
        if not self.set_indexed:
            raise SetAxisError("tensor has no set-enumeration axis")
        return self.comps.shape[0]

    def __getitem__(self, idx):
        return self.comps[idx]

    def map(self, f) -> "Tensor":
        return Tensor(self.chart, elementwise(f, self.comps), self.variance,
                      self.set_indexed)

    def _check_same_shape(self, other: "Tensor"):
        if (self.chart is not other.chart and self.chart != other.chart) or \
                self.variance != other.variance or \
                self.set_indexed != other.set_indexed or \
                self.comps.shape != other.comps.shape:
            raise TensorError("tensor layouts differ")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.chart, self.comps + other.comps, self.variance,
                      self.set_indexed)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.chart, self.comps - other.comps, self.variance,
                      self.set_indexed)

    def evaluate(self, point: dict[str, float],
                 evaluator: Evaluator | None = None) -> np.ndarray:
        """Numeric component array at a point (complex dtype)."""
        ev = evaluator if evaluator is not None else Evaluator(point)
        out = np.empty(self.comps.shape, dtype=complex)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = complex(ev(self.comps[idx]))
        return out

    def _coord_axes(self) -> range:
        first = 1 if self.set_indexed else 0
        return range(first, first + self.rank)

    def _slot_axis(self, slot: int) -> int:
        """Validate a component-array axis referring to a coordinate index."""
        if self.set_indexed and slot == 0:
            raise SetAxisError(
                "the set-enumeration index is excluded from index operations")
        if slot not in self._coord_axes():
            raise TensorError(f"slot {slot} out of range")
        return slot

    def _slot_variance_pos(self, slot: int) -> int:
        return slot - (1 if self.set_indexed else 0)


# ---------------------------------------------------------------------------
# set product
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghjklmnopqrstuvwxy"   # coordinate slots; 'i' set, 'z' summed


def set_product(a: Tensor, b: Tensor) -> Tensor:
    """Contract the set-enumeration axis between two set-indexed tensors."""
    if not (a.set_indexed and b.set_indexed):
        raise SetAxisError("set product needs two set-indexed tensors")
    if a.chart != b.chart:
        raise ChartError("set product operands live on different charts")
    if a.set_extent != b.set_extent:
        raise TensorError(
            f"set extents differ: {a.set_extent} vs {b.set_extent}")
    sa, sb = _LETTERS[:a.rank], _LETTERS[a.rank:a.rank + b.rank]
    comps = einsum(f"i{sa},i{sb}->{sa}{sb}", a.comps, b.comps)
    return Tensor(a.chart, comps, a.variance + b.variance)


# ---------------------------------------------------------------------------
# index raising / lowering / contraction
# ---------------------------------------------------------------------------

def _axis_letters(t: Tensor) -> str:
    return ("i" if t.set_indexed else "") + _LETTERS[:t.rank]


def _apply_metric(t: Tensor, slot: int, metric_comps: np.ndarray,
                  new_variance_char: str) -> Tensor:
    axis = t._slot_axis(slot)
    letters = _axis_letters(t)
    summed = letters[:axis] + "z" + letters[axis + 1:]
    out = einsum(f"{letters[axis]}z,{summed}->{letters}", metric_comps,
                 t.comps)
    pos = t._slot_variance_pos(slot)
    variance = t.variance[:pos] + (new_variance_char,) + t.variance[pos + 1:]
    return Tensor(t.chart, out, variance, t.set_indexed)


def raise_index(t: Tensor, slot: int, g_inv: Tensor) -> Tensor:
    """Contract a lower slot with the inverse metric."""
    pos = t._slot_variance_pos(t._slot_axis(slot))
    if t.variance[pos] != "l":
        raise VarianceError(f"slot {slot} is already upper")
    return _apply_metric(t, slot, g_inv.comps, "u")


def lower_index(t: Tensor, slot: int, g: "MetricField") -> Tensor:
    """Contract an upper slot with the metric."""
    pos = t._slot_variance_pos(t._slot_axis(slot))
    if t.variance[pos] != "u":
        raise VarianceError(f"slot {slot} is already lower")
    return _apply_metric(t, slot, g.tensor.comps, "l")


def contract(t: Tensor, slot_a: int, slot_b: int) -> Tensor:
    """Trace over one upper and one lower coordinate slot."""
    axis_a, axis_b = t._slot_axis(slot_a), t._slot_axis(slot_b)
    if axis_a == axis_b:
        raise TensorError("cannot contract a slot with itself")
    va = t.variance[t._slot_variance_pos(axis_a)]
    vb = t.variance[t._slot_variance_pos(axis_b)]
    if {va, vb} != {"l", "u"}:
        raise VarianceError("contraction pairs one upper with one lower index")
    letters = _axis_letters(t)
    traced = "".join("z" if ax in (axis_a, axis_b) else c
                     for ax, c in enumerate(letters))
    comps = einsum(f"{traced}->{traced.replace('z', '')}", t.comps)
    variance = tuple(v for k, v in enumerate(t.variance)
                     if k not in (t._slot_variance_pos(axis_a),
                                  t._slot_variance_pos(axis_b)))
    return Tensor(t.chart, comps, variance, t.set_indexed)


# ---------------------------------------------------------------------------
# (anti)symmetrization over a pair of coordinate slots
# ---------------------------------------------------------------------------

def _pair_mix(t: Tensor, slots: tuple[int, int], sign: int) -> Tensor:
    axis_a, axis_b = (t._slot_axis(s) for s in slots)
    if axis_a == axis_b:
        raise TensorError("symmetrization slots must differ")
    if t.variance[t._slot_variance_pos(axis_a)] != \
            t.variance[t._slot_variance_pos(axis_b)]:
        raise VarianceError("symmetrization slots must share variance")
    swapped = np.swapaxes(t.comps, axis_a, axis_b)
    mixed = t.comps + swapped if sign > 0 else t.comps - swapped
    return Tensor(t.chart, mixed * ex.HALF, t.variance, t.set_indexed)


def symmetrize(t: Tensor, slots: tuple[int, int]) -> Tensor:
    return _pair_mix(t, slots, +1)


def antisymmetrize(t: Tensor, slots: tuple[int, int]) -> Tensor:
    return _pair_mix(t, slots, -1)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Symmetric rank-2 field of expressions over a chart."""

    def __init__(self, chart: Chart, comps: np.ndarray):
        comps = np.asarray(comps, dtype=object)
        n = chart.dim
        if comps.shape != (n, n):
            raise TensorError(f"metric shape {comps.shape} on a "
                              f"{n}-dimensional chart")
        # mirror the upper triangle so g[a,b] and g[b,a] share one tree
        stored = mirror(comps.copy(), (0, 1, +1))
        self.chart = chart
        self.tensor = Tensor(chart, stored, ("l", "l"))

    @property
    def comps(self) -> np.ndarray:
        return self.tensor.comps

    def component(self, a: int, b: int) -> Expr:
        return self.tensor.comps[a, b]

    def is_diagonal(self) -> bool:
        n = self.chart.dim
        return all(ex._is_zero(ex.simplify(self.comps[a, b]))
                   for a in range(n) for b in range(a + 1, n))

    def det(self) -> Expr:
        return _determinant(self.comps)

    def evaluate(self, point: dict[str, float]) -> np.ndarray:
        return real_metric(self.tensor.evaluate(point))

    def numeric_inverse(self, point: dict[str, float]) -> np.ndarray:
        """Pointwise fallback for dimensions without a symbolic inverse."""
        g = self.evaluate(point)
        if abs(np.linalg.det(g)) < 1e-12:
            raise SingularMetricError(point)
        return np.linalg.inv(g)


def _determinant(m: np.ndarray) -> Expr:
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    terms = []
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = ex.mul(m[0, j], _determinant(minor))
        terms.append(term if j % 2 == 0 else ex.neg(term))
    return ex.add(*terms)


def invert_metric(g: MetricField) -> Tensor:
    """Symbolic inverse: reciprocal diagonal when the metric is diagonal,
    cofactor expansion otherwise (n <= 4).  Verified by multiplying back
    at a few seeded sample points; a singular point raises."""
    chart = g.chart
    n = chart.dim
    comps = np.empty((n, n), dtype=object)
    if g.is_diagonal():
        for a in range(n):
            for b in range(n):
                comps[a, b] = ex.div(ex.ONE, g.comps[a, a]) if a == b else ex.ZERO
    elif n <= 4:
        det = ex.simplify(g.det())
        for a in range(n):
            for b in range(a, n):
                minor = np.delete(np.delete(g.comps, b, axis=0), a, axis=1)
                cof = ex.simplify(_determinant(minor))
                signed = cof if (a + b) % 2 == 0 else ex.neg(cof)
                comps[a, b] = comps[b, a] = ex.div(signed, det)
    else:
        raise TensorError(
            "symbolic inverse implemented for n <= 4 only; use "
            "MetricField.numeric_inverse per point")
    inv = Tensor(chart, comps, ("u", "u"))
    for point in chart.sample_points(3, seed=1404):
        gv = g.evaluate(point)
        # non-finite values fail the comparisons, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            if abs(np.linalg.det(gv)) < 1e-12:
                raise SingularMetricError(point)
            err = np.max(np.abs(gv @ inv.evaluate(point) - np.eye(n)))
            if not (err <= 1e-10):
                raise SingularMetricError(point)
    return inv


# ---------------------------------------------------------------------------
# numeric helpers used by verification code
# ---------------------------------------------------------------------------

def max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def max_imag(values: np.ndarray) -> float:
    return float(np.max(np.abs(values.imag))) if values.size else 0.0


def real_metric(vals: np.ndarray) -> np.ndarray:
    """Real part of evaluated metric components, or TensorError if the
    metric is not real there."""
    if max_imag(vals) > 1e-12:
        raise TensorError("metric evaluated to a non-real matrix")
    return vals.real


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
