"""Dense tensors of symbolic components, with an optional set-enumeration axis.

Components are expression trees; every verification downstream contracts
them to numbers at sampled points.  Coordinate indices carry a variance
('l' lower / 'u' upper).  The set-enumeration axis, when present, is the
leading axis and has no variance: it never takes part in contraction,
raising, or (anti)symmetrization.  The set product contracts it between
two set-indexed tensors:

    (A (.) B)[a..., b...] = sum_I A[I, a...] * B[I, b...]
"""

from __future__ import annotations

import itertools

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
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = f(self.comps[idx])
        return Tensor(self.chart, out, self.variance, self.set_indexed)

    def _check_same_shape(self, other: "Tensor"):
        if (self.chart is not other.chart and self.chart != other.chart) or \
                self.variance != other.variance or \
                self.set_indexed != other.set_indexed or \
                self.comps.shape != other.comps.shape:
            raise TensorError("tensor layouts differ")

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = ex.add(self.comps[idx], other.comps[idx])
        return Tensor(self.chart, out, self.variance, self.set_indexed)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(self.comps.shape):
            out[idx] = ex.sub(self.comps[idx], other.comps[idx])
        return Tensor(self.chart, out, self.variance, self.set_indexed)

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


def zeros(chart: Chart, variance: Variance, set_indexed: bool = False,
          set_extent: int | None = None) -> Tensor:
    shape = (((set_extent if set_extent is not None else chart.dim),)
             if set_indexed else ()) + (chart.dim,) * len(variance)
    comps = np.empty(shape, dtype=object)
    comps[...] = ex.ZERO
    return Tensor(chart, comps, variance, set_indexed)


def from_function(chart: Chart, variance: Variance, build,
                  set_indexed: bool = False,
                  set_extent: int | None = None) -> Tensor:
    t = zeros(chart, variance, set_indexed, set_extent)
    for idx in np.ndindex(t.comps.shape):
        t.comps[idx] = build(*idx)
    return t


# ---------------------------------------------------------------------------
# set product
# ---------------------------------------------------------------------------

def set_product(a: Tensor, b: Tensor) -> Tensor:
    """Contract the set-enumeration axis between two set-indexed tensors."""
    if not (a.set_indexed and b.set_indexed):
        raise SetAxisError("set product needs two set-indexed tensors")
    if a.chart != b.chart:
        raise ChartError("set product operands live on different charts")
    if a.set_extent != b.set_extent:
        raise TensorError(
            f"set extents differ: {a.set_extent} vs {b.set_extent}")
    m = a.set_extent
    n = a.chart.dim
    out_shape = (n,) * (a.rank + b.rank)
    comps = np.empty(out_shape, dtype=object)
    for idx in np.ndindex(out_shape):
        ia, ib = idx[:a.rank], idx[a.rank:]
        comps[idx] = ex.add(*[
            ex.mul(a.comps[(i,) + ia], b.comps[(i,) + ib])
            for i in range(m)])
    return Tensor(a.chart, comps, a.variance + b.variance)


# ---------------------------------------------------------------------------
# index raising / lowering / contraction
# ---------------------------------------------------------------------------

def _apply_metric(t: Tensor, slot: int, metric_comps: np.ndarray,
                  new_variance_char: str) -> Tensor:
    axis = t._slot_axis(slot)
    n = t.chart.dim
    out = np.empty(t.comps.shape, dtype=object)
    for idx in np.ndindex(t.comps.shape):
        terms = []
        for d in range(n):
            src = list(idx)
            src[axis] = d
            terms.append(ex.mul(metric_comps[idx[axis], d],
                                t.comps[tuple(src)]))
        out[idx] = ex.add(*terms)
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
    n = t.chart.dim
    keep = [ax for ax in range(t.comps.ndim) if ax not in (axis_a, axis_b)]
    out_shape = tuple(t.comps.shape[ax] for ax in keep)
    comps = np.empty(out_shape, dtype=object)
    for idx in np.ndindex(out_shape):
        full = [0] * t.comps.ndim
        for ax, v in zip(keep, idx):
            full[ax] = v
        terms = []
        for d in range(n):
            full[axis_a] = d
            full[axis_b] = d
            terms.append(t.comps[tuple(full)])
        comps[idx] = ex.add(*terms)
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
    out = np.empty(t.comps.shape, dtype=object)
    for idx in np.ndindex(t.comps.shape):
        swapped = list(idx)
        swapped[axis_a], swapped[axis_b] = idx[axis_b], idx[axis_a]
        other = t.comps[tuple(swapped)]
        if sign > 0:
            out[idx] = ex.mul(ex.HALF, ex.add(t.comps[idx], other))
        else:
            out[idx] = ex.mul(ex.HALF, ex.sub(t.comps[idx], other))
    return Tensor(t.chart, out, t.variance, t.set_indexed)


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
        stored = np.empty((n, n), dtype=object)
        for a in range(n):
            for b in range(a, n):
                stored[a, b] = stored[b, a] = comps[a, b]
        self.chart = chart
        self.tensor = Tensor(chart, stored, ("l", "l"))
        self._inverse: Tensor | None = None

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

    def evaluate(self, point: dict[str, float],
                 evaluator: Evaluator | None = None) -> np.ndarray:
        vals = self.tensor.evaluate(point, evaluator)
        if np.max(np.abs(vals.imag)) > 1e-12:
            raise TensorError("metric evaluated to a non-real matrix")
        return vals.real

    def inverse(self) -> Tensor:
        if self._inverse is None:
            self._inverse = invert_metric(self)
        return self._inverse

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
        if abs(np.linalg.det(gv)) < 1e-12:
            raise SingularMetricError(point)
        iv = inv.evaluate(point)
        if np.max(np.abs(gv @ iv - np.eye(n))) > 1e-10:
            raise SingularMetricError(point)
    return inv


# ---------------------------------------------------------------------------
# numeric helpers used by verification code
# ---------------------------------------------------------------------------

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
