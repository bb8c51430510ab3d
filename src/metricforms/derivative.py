"""Partial derivatives of expressions: symbolic and at points.

``Differentiator`` builds the exact derivative of an expression along one
coordinate, as an expression.  ``tangents`` computes the derivatives of
expressions at sample points with numpy, by forward-mode differentiation
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 3), with no derivative expression built.  Both follow the chain rules
of one table, ``_RULE_SOURCE``, through one driver, ``_chain``, so the
symbolic and the numeric derivative cannot drift.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import MetricFormsError, UnknownCoordinateError
from .expr import (
    _FUNCTION,
    FUNCTIONS,
    ONE,
    ZERO,
    Add,
    Const,
    Div,
    Expr,
    Fun,
    Mul,
    Neg,
    Number,
    Pow,
    Sym,
    _fault,
    _is_zero,
    _pow_value,
    _tame,
    add,
    fn,
    mul,
    neg,
    pow_,
    walk,
)

# The chain rules of a function node, a power and a quotient: the
# derivative as an expression in the operands' values ``u``, ``v`` and
# their derivatives ``du``, ``dv``, with ``pow(a, p)`` a power and ``q`` a
# power's exponent as a float.  ``Differentiator`` reads each over
# expressions and ``tangents`` over arrays of values at points, so the
# symbolic and the numeric derivative cannot drift.
_RULE_SOURCE = {
    "sin": "cos(u) * du",
    "cos": "-sin(u) * du",
    "tan": "(1 + pow(tan(u), 2)) * du",
    "exp": "exp(u) * du",
    "sinh": "cosh(u) * du",
    "cosh": "sinh(u) * du",
    "log": "du / u",
    "sqrt": "du / (2 * sqrt(u))",
    "pow": "q * pow(u, p) * du",
    # v is a denominator; dv is zero in the second
    "quotient": "(v * du - u * dv) / pow(v, 2)",
    "over": "du / v",
}


@functools.cache
def _rules(algebra: str) -> dict:
    """Each rule of ``_RULE_SOURCE`` as a function of keyword operands,
    compiled on first use: over expressions for the "symbolic" algebra,
    over arrays of values at points for the "numeric" one."""
    if algebra == "symbolic":
        namespace = {"pow": pow_, **{name: functools.partial(fn, name)
                                     for name in FUNCTIONS}}
    else:
        # an integer power has no branch cut, so numpy's power serves; a
        # fractional one takes the walk's principal branch point by point
        fractional = _array_of(_pow_value)
        namespace = {"pow": lambda a, q: (a ** int(q) if q == int(q)
                                          else fractional(a, q)),
                     **{name: _array_of(_FUNCTION[name])
                        for name in FUNCTIONS}}
    return {name: eval(f"lambda u=None, du=None, v=None, dv=None, q=None, "
                       f"p=None: {source}", namespace)
            for name, source in _RULE_SOURCE.items()}


def _array_of(f):
    """``f`` of each value of an array, as the walk computes it."""
    return lambda a, *args: np.array([f(x, *args) for x in a.tolist()],
                                     dtype=complex)


def _chain(e: Expr, alg):
    """The derivative of a non-leaf node ``e`` in the algebra ``alg``:
    ``alg.d(x)`` is an operand's derivative, ``alg.v(x)`` its value,
    ``alg.add``, ``alg.mul`` and ``alg.neg`` combine them, ``alg.is_zero``
    tells a zero derivative, and ``alg.apply(rule, ...)`` applies a rule
    of ``_RULE_SOURCE``."""
    t = type(e)
    d, v = alg.d, alg.v
    if t is Add:
        return alg.add(*map(d, e.terms))
    if t is Mul:
        fs = e.factors
        parts = []
        for i, f in enumerate(fs):
            dfi = d(f)
            if not alg.is_zero(dfi):
                parts.append(alg.mul(*map(v, fs[:i]), dfi,
                                     *map(v, fs[i + 1:])))
        return alg.add(*parts)
    if t is Neg:
        return alg.neg(d(e.arg))
    if t is Div:
        du, dv = d(e.num), d(e.den)
        if alg.is_zero(dv):
            return alg.apply("over", du=du, v=v(e.den))
        return alg.apply("quotient", u=v(e.num), du=du, v=v(e.den), dv=dv)
    if t is Pow:
        q = e.exponent
        return alg.apply("pow", u=v(e.base), du=d(e.base),
                         q=q.numerator / q.denominator, p=q - 1)
    if t is Fun:
        du = d(e.arg)
        if alg.is_zero(du):
            return alg.zero
        return alg.apply(e.name, u=v(e.arg), du=du)
    raise TypeError(f"cannot differentiate {t.__name__}")


class Differentiator:
    """Partial differentiation with a per-node cache, so every distinct
    subtree is differentiated once and derivatives share structure.  It
    is the symbolic algebra of ``_chain``."""

    zero = ZERO
    is_zero = staticmethod(_is_zero)
    add, mul, neg = staticmethod(add), staticmethod(mul), staticmethod(neg)

    def __init__(self, coord: str):
        self.coord = coord
        self._cache: dict[Expr, Expr] = {}

    def __call__(self, e: Expr) -> Expr:
        if type(e) is Const:
            return ZERO
        got = self._cache.get(e)
        if got is None:
            got = self._cache[e] = self._diff(e)
        return got

    @property
    def d(self):
        """An operand's derivative: by this differentiator."""
        return self

    @staticmethod
    def v(e: Expr) -> Expr:
        return e

    @staticmethod
    def apply(rule: str, **operands) -> Expr:
        return _rules("symbolic")[rule](**operands)

    def _diff(self, e: Expr) -> Expr:
        if type(e) is Sym:
            return ONE if e.name == self.coord else ZERO
        return _chain(e, self)


class _Forward:
    """The numeric algebra of ``_chain``: each node's values at the points
    as a complex array of the walk's values in ``memo``, and its gradient
    as a (coordinates, points) array, or None where it has none."""

    is_zero = staticmethod(lambda x: x is None)
    zero = None

    def __init__(self, memo: dict, coords, n_points: int):
        self.memo = memo
        self.values: dict[Expr, np.ndarray] = {}
        self.grads: dict[Expr, np.ndarray | None] = {}
        units = np.eye(len(coords), dtype=complex)[:, :, None]
        self.units = {c: np.broadcast_to(units[i], (len(coords), n_points))
                      for i, c in enumerate(coords)}
        self.zeros = np.zeros((len(coords), n_points), dtype=complex)

    def v(self, e: Expr):
        if type(e) is Const:
            return complex(e.value)
        got = self.values.get(e)
        if got is None:
            got = self.values[e] = np.array(self.memo[e], dtype=complex)
        return got

    def d(self, e: Expr):
        t = type(e)
        if t is Const:
            if not _tame(e.value):
                # folding it into the symbolic derivative may refuse, and
                # leave an inf or nan where this algebra has a zero
                raise OverflowError("a constant beyond TAME_BOUND")
            return None
        if t is Sym:
            return self.units.get(e.name)
        got = self.grads.get(e, self)
        if got is self:
            got = self.grads[e] = _chain(e, self)
        return got

    @staticmethod
    def add(*terms):
        terms = [t for t in terms if t is not None]
        return functools.reduce(operator.add, terms) if terms else None

    @staticmethod
    def mul(*factors):
        # the product rule passes one nonzero derivative among values
        return functools.reduce(operator.mul, factors)

    @staticmethod
    def neg(x):
        return None if x is None else -x

    def apply(self, rule: str, du=None, dv=None, **values):
        if du is None and dv is None:
            return None
        zeros = self.zeros
        return _rules("numeric")[rule](
            du=zeros if du is None else du, dv=zeros if dv is None else dv,
            **values)


def tangents(roots, points: list[dict[str, Number]], coords,
             known: dict | None = None) -> np.ndarray:
    """The partial derivatives of ``roots`` along ``coords`` at ``points``,
    a complex array indexed (root, coordinate, point): forward-mode
    differentiation, with no derivative expression built.

    Values come from ``walk`` (``known`` seeds its memo, and the walk adds
    the nodes it computes), so each keeps its bits; each node's gradient
    over the coordinates follows the chain rules of ``_chain`` with numpy,
    at all points at once.  The result is what a walk of the symbolic
    derivatives gives, to rounding.  Where computing it faults, or a
    gradient is not finite, the symbolic derivatives are walked instead,
    root by root and each along ``coords`` in order, and what that walk
    raises is raised, naming its node; else its values are returned.
    """
    roots, coords = list(roots), tuple(coords)
    memo = {} if known is None else known
    try:
        walk(roots, points, memo)
        with np.errstate(all="ignore"):
            forward = _Forward(memo, coords, len(points))
            grads = np.array([forward.zeros if g is None else g
                              for g in map(forward.d, roots)])
        if np.isfinite(grads).all():
            return grads.reshape(len(roots), len(coords), len(points))
    except (MetricFormsError, ArithmeticError, ValueError):
        pass
    diffs = [Differentiator(c) for c in coords]
    nodes = [d(e) for e in roots for d in diffs]
    values = walk(nodes, points)
    try:
        grads = np.array(values, dtype=complex)
    except OverflowError:
        # an exact integer beyond the float range
        for node, vals in zip(nodes, values):
            try:
                np.array(vals, dtype=complex)
            except OverflowError:
                raise _fault("overflow", node) from None
        raise
    return grads.reshape(len(roots), len(coords), len(points))


def differentiate(e: Expr, coord: str, chart=None) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``coord``.

    When a chart is given, ``coord`` must be one of its coordinates.
    """
    if chart is not None and coord not in chart.coords:
        raise UnknownCoordinateError(coord)
    return Differentiator(coord)(e)
