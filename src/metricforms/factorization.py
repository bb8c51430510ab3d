"""Factor a metric field into a set of 1-forms V with V Vt = g.

Three strategies produce the form set A, stored row-wise as A[I, a] so
that sum_I A[I, a] A[I, b] = g[a, b]:

* ``diagonal`` - componentwise symbolic square roots of a diagonal metric;
  negative components get +i times the real root.
* ``ldl`` - symbolic unit-lower-triangular L and diagonal D with
  L D Lt = g, then V = L sqrt(D); a symmetric pivot permutation is tried
  when a leading pivot vanishes identically.
* ``numeric`` - pointwise real eigendecomposition g = Q L Qt giving
  V = Q sqrt(L); supports evaluation-only work (no derivatives).

Which member of the orthogonal family {V O : O Ot = 1} comes out is a
convention of each strategy and is recorded in ``FormSet.choice``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import Chart
from .errors import (
    FactorizationError,
    NonDiagonalMetricError,
    NumericFaultError,
    SingularMetricError,
    ZeroPivotError,
)
from . import expr as ex
from .expr import Expr
from .tensor import MetricField, Tensor, max_abs

STRATEGIES = ("diagonal", "ldl", "numeric")


@dataclass
class FormSet:
    """n linearly independent (possibly complex) 1-forms factoring a metric."""

    chart: Chart
    strategy: str
    comps: np.ndarray | None = None            # (m, n) Expr array, A[I, a]
    point_factory: Callable[[dict], np.ndarray] | None = None
    choice: str = ""                            # orthogonal-family convention
    permutation: tuple[int, ...] | None = None  # ldl pivot order, if applied

    @property
    def set_extent(self) -> int:
        if self.comps is not None:
            return self.comps.shape[0]
        return self.chart.dim

    @property
    def symbolic(self) -> bool:
        return self.comps is not None

    def as_tensor(self) -> Tensor:
        if self.comps is None:
            raise FactorizationError(
                "the numeric strategy has no symbolic components; "
                "derivative-based operations need 'diagonal' or 'ldl'")
        return Tensor(self.chart, self.comps, ("l",), set_indexed=True)

    def components_at(self, point: dict[str, float]) -> np.ndarray:
        """Numeric (m, n) matrix of form components at a point."""
        if self.comps is not None:
            return self.as_tensor().evaluate(point)
        return self.point_factory(point)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def factor_diagonal(g: MetricField) -> FormSet:
    """A[I, a] = delta_Ia sqrt(g[a, a]) for a symbolically diagonal metric."""
    if not g.is_diagonal():
        raise NonDiagonalMetricError(
            "the diagonal strategy requires a symbolically diagonal metric")
    n = g.chart.dim
    comps = np.empty((n, n), dtype=object)
    comps[...] = ex.ZERO
    for a in range(n):
        comps[a, a] = ex.fn("sqrt", ex.simplify(g.comps[a, a]))
    return FormSet(g.chart, "diagonal", comps=comps,
                   choice="principal square root per axis")


def _try_ldl(work: np.ndarray, n: int):
    """One LDL pass; returns (L, D) or the index of an identically zero pivot."""
    L = np.empty((n, n), dtype=object)
    L[...] = ex.ZERO
    D = [ex.ZERO] * n
    for j in range(n):
        acc = [work[j, j]]
        for k in range(j):
            acc.append(ex.neg(ex.mul(L[j, k], L[j, k], D[k])))
        pivot = ex.simplify(ex.add(*acc))
        if isinstance(pivot, ex.Const) and pivot.value == 0:
            return None, None, j
        D[j] = pivot
        L[j, j] = ex.ONE
        for i in range(j + 1, n):
            acc = [work[i, j]]
            for k in range(j):
                acc.append(ex.neg(ex.mul(L[i, k], L[j, k], D[k])))
            L[i, j] = ex.simplify(ex.div(ex.add(*acc), pivot))
    return L, D, None


def factor_ldl(g: MetricField) -> FormSet:
    """Symbolic L D Lt = g with unit-lower-triangular L, V = L sqrt(D).

    An identically zero pivot triggers a symmetric reordering of the
    coordinates; the permutation used is recorded.  If no reordering
    clears the pivot, the factorization fails.
    """
    n = g.chart.dim
    order = list(range(n))
    first_failure = None
    for attempt in range(n):
        work = g.comps[np.ix_(order, order)]
        L, D, bad = _try_ldl(work, n)
        if bad is None:
            break
        if first_failure is None:
            first_failure = bad
        # move a later coordinate with a nonzero diagonal entry up front
        swapped = False
        for k in range(bad + 1, n):
            cand = ex.simplify(work[k, k])
            if not (isinstance(cand, ex.Const) and cand.value == 0):
                order[bad], order[k] = order[k], order[bad]
                swapped = True
                break
        if not swapped:
            raise ZeroPivotError(first_failure, tried_permutations=True)
    else:
        raise ZeroPivotError(first_failure, tried_permutations=True)

    # V[a, I] in original coordinates: row order[i] of V is row i of L sqrt(D)
    comps = np.empty((n, n), dtype=object)
    comps[...] = ex.ZERO
    roots = [ex.fn("sqrt", D[i]) for i in range(n)]
    for i in range(n):
        for I in range(n):
            comps[I, order[i]] = ex.simplify(ex.mul(L[i, I], roots[I]))
    perm = tuple(order) if order != list(range(n)) else None
    return FormSet(g.chart, "ldl", comps=comps,
                   choice="unit lower-triangular factor, pivots in "
                          "coordinate order",
                   permutation=perm)


def factor_takagi_numeric(g: MetricField, point: dict[str, float]) -> np.ndarray:
    """Pointwise factor V with V Vt = g(point), from the real
    eigendecomposition g = Q L Qt; V = Q diag(sqrt(L)).

    The singular values of V equal sqrt(|eigenvalues of g|).
    """
    gv = g.evaluate(point)
    if abs(np.linalg.det(gv)) < 1e-12:
        raise SingularMetricError(point)
    try:
        eigenvalues, q = np.linalg.eigh(gv)
    except np.linalg.LinAlgError as exc:
        raise NumericFaultError(f"eigen-solver failed at {point}: {exc}") \
            from None
    roots = np.sqrt(eigenvalues.astype(complex))
    return q.astype(complex) * roots[np.newaxis, :]


def numeric_formset(g: MetricField) -> FormSet:
    """Per-point factory wrapper around the numeric strategy."""
    def factory(point):
        return factor_takagi_numeric(g, point).T  # A[I, a] = V[a, I]
    return FormSet(g.chart, "numeric", point_factory=factory,
                   choice="eigenvector columns in ascending eigenvalue order")


def make_formset(g: MetricField, strategy: str = "auto") -> FormSet:
    if strategy == "auto":
        strategy = "diagonal" if g.is_diagonal() else "ldl"
    if strategy == "diagonal":
        return factor_diagonal(g)
    if strategy == "ldl":
        return factor_ldl(g)
    if strategy == "numeric":
        return numeric_formset(g)
    raise FactorizationError(f"unknown strategy '{strategy}'")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class FactorizationCheck:
    max_residual: float          # max |sum_I A_Ia A_Ib - g_ab| over points
    min_abs_det: float           # row independence
    residual_tol: float
    det_bound: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.residual_tol
                    and self.min_abs_det > self.det_bound)


def verify_factorization(a_vals: np.ndarray, g_vals: np.ndarray,
                         residual_tol: float = 1e-10,
                         det_bound: float = 1e-12) -> FactorizationCheck:
    """Reconstruction residual and linear-independence bound over stacked
    form values A[p, I, a] and real metric values g[p, a, b]."""
    return FactorizationCheck(
        max_abs(np.swapaxes(a_vals, 1, 2) @ a_vals - g_vals),
        float(np.abs(np.linalg.det(a_vals)).min()), residual_tol, det_bound)


def orthogonality_residual(a_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """Max deviation of A_Ic A_J^c from the identity matrix over stacked
    form values and real metric values.  The inverse metric is taken
    numerically here, so the check does not lean on the symbolic one."""
    singular = np.flatnonzero(np.abs(np.linalg.det(g_vals)) < 1e-12)
    if singular.size:
        raise SingularMetricError(f"sample point {int(singular[0])}")
    gram = a_vals @ np.linalg.inv(g_vals) @ np.swapaxes(a_vals, 1, 2)
    return max_abs(gram - np.eye(a_vals.shape[1]))
