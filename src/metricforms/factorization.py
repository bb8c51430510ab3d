"""Factor a metric field into a set of 1-forms V with V Vt = g.

Two symbolic strategies produce the form set A, stored row-wise as
A[I, a] so that sum_I A[I, a] A[I, b] = g[a, b]:

* ``diagonal`` - componentwise symbolic square roots of a diagonal metric;
  negative components get +i times the real root.
* ``ldl`` - V = L sqrt(D) from the metric's symbolic L D Lt = g
  (``tensor.ldl``, which the inverse metric is built from as well); a
  symmetric pivot permutation is tried when a pivot vanishes identically.

Which member of the orthogonal family {V O : O Ot = 1} comes out is a
convention of each strategy and is recorded in ``FormSet.choice``.  The
numeric strategy is no form set: ``factor_takagi_numeric`` factors
g = Q L Qt at one point as V = Q sqrt(L), with nothing to differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart
from .errors import (
    FactorizationError,
    NonDiagonalMetricError,
    NumericFaultError,
)
from . import expr as ex
from .tensor import MetricField, Tensor, einsum, elementwise, max_abs

#: bound on |A (.) A - g|, a purely algebraic residual
TOL_RECONSTRUCTION = 1e-10
#: bound below which min |det A| calls the forms linearly dependent
FORM_DET_BOUND = 1e-12


class FormSet(Tensor):
    """n linearly independent (possibly complex) 1-forms A[I, a] factoring
    a metric, with the strategy's orthogonal-family convention and the
    ldl pivot order, if one was applied."""

    def __init__(self, chart: Chart, strategy: str, comps: np.ndarray,
                 choice: str = "",
                 permutation: tuple[int, ...] | None = None):
        super().__init__(comps)
        self.chart = chart
        self.strategy = strategy
        self.choice = choice
        self.permutation = permutation


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


def factor_ldl(g: MetricField) -> FormSet:
    """V = L sqrt(D) from the metric's symbolic L D Lt = g, with
    unit-lower-triangular L.

    An identically zero pivot triggers a symmetric reordering of the
    coordinates; the permutation used is recorded.  If no reordering
    clears the pivot, the factorization fails.
    """
    L, D, order = g.ldl
    roots = np.array([ex.fn("sqrt", d) for d in D], dtype=object)
    # V[a, I] in original coordinates: row order[i] of V is row i of L sqrt(D)
    comps = np.empty(L.shape, dtype=object)
    comps[:, order] = elementwise(ex.simplify, einsum("iI,I->Ii", L, roots))
    perm = order if order != tuple(range(len(order))) else None
    return FormSet(g.chart, "ldl", comps=comps,
                   choice="unit lower-triangular factor, pivots in "
                          "coordinate order",
                   permutation=perm)


def factor_takagi_numeric(g: MetricField, point: dict[str, float]) -> np.ndarray:
    """Pointwise factor V with V Vt = g(point), from the real
    eigendecomposition g = Q L Qt; V = Q diag(sqrt(L)).

    The singular values of V equal sqrt(|eigenvalues of g|).  A singular
    g(point) raises SingularMetricError from ``MetricField.values``.
    """
    gv = g.evaluate(point)
    try:
        eigenvalues, q = np.linalg.eigh(gv)
    except np.linalg.LinAlgError as exc:
        raise NumericFaultError(f"eigen-solver failed at {point}: {exc}") \
            from None
    roots = np.sqrt(eigenvalues.astype(complex))
    return q.astype(complex) * roots[np.newaxis, :]


def make_formset(g: MetricField, strategy: str = "auto") -> FormSet:
    if strategy == "auto":
        strategy = "diagonal" if g.is_diagonal() else "ldl"
    if strategy == "diagonal":
        return factor_diagonal(g)
    if strategy == "ldl":
        return factor_ldl(g)
    if strategy == "numeric":
        raise FactorizationError(
            "a full analysis differentiates the form components; the "
            "numeric strategy only supports factor/verify")
    raise FactorizationError(f"unknown strategy '{strategy}'")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class FactorizationCheck:
    max_residual: float          # max |sum_I A_Ia A_Ib - g_ab| over points
    min_abs_det: float           # row independence
    residual_tol: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.residual_tol
                    and self.min_abs_det > FORM_DET_BOUND)


def verify_factorization(a_vals: np.ndarray, g_vals: np.ndarray,
                         residual_tol: float = TOL_RECONSTRUCTION
                         ) -> FactorizationCheck:
    """Reconstruction residual and linear-independence bound over stacked
    form values A[p, I, a] and real metric values g[p, a, b].  A
    determinant too large for a float is a numeric fault: a report
    cannot hold inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        min_abs_det = float(np.abs(np.linalg.det(a_vals)).min())
    if not np.isfinite(min_abs_det):
        raise NumericFaultError(
            f"min |det A| over the sample points is {min_abs_det}: the form "
            "determinant overflows")
    return FactorizationCheck(
        max_abs(np.swapaxes(a_vals, 1, 2) @ a_vals - g_vals),
        min_abs_det, residual_tol)


def orthogonality_residual(a_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """Max deviation of A_Ic A_J^c from the identity matrix over stacked
    form values and regular metric values (``MetricField.values``).  The
    inverse metric is taken numerically here, so the check does not lean
    on the symbolic one."""
    gram = a_vals @ np.linalg.inv(g_vals) @ np.swapaxes(a_vals, 1, 2)
    return max_abs(gram - np.eye(a_vals.shape[1]))
