"""Exception types shared across the package."""


class MetricFormsError(Exception):
    """Base class for all package errors."""


class ExprError(MetricFormsError):
    pass


class ParseError(ExprError):
    """Source text does not conform to the expression grammar.

    ``offset`` is the 0-based byte position of the offending input;
    errors at end of input point at the last byte.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownSymbolError(ParseError):
    def __init__(self, symbol, offset):
        ParseError.__init__(self, f"unknown symbol '{symbol}'", offset)
        self.symbol = symbol


class UnknownCoordinateError(ExprError):
    def __init__(self, coord):
        super().__init__(f"unknown coordinate '{coord}'")
        self.coord = coord


class UnboundSymbolError(ExprError):
    def __init__(self, symbol):
        super().__init__(f"symbol '{symbol}' has no value at this point")
        self.symbol = symbol


class EvalDomainError(ExprError):
    """Numeric evaluation left the function domain (log of a non-positive
    real, division by zero, overflow, a non-finite value).  Carries the
    offending subtree, or None when the fault is in a numeric product
    rather than in one expression."""

    def __init__(self, message, subexpr):
        super().__init__(message)
        self.subexpr = subexpr


class ChartError(MetricFormsError):
    pass


class TensorError(MetricFormsError):
    pass


class VarianceError(TensorError):
    pass


class SetAxisError(TensorError):
    """An operation was asked to act on the set-enumeration axis."""


class FactorizationError(MetricFormsError):
    pass


class NonDiagonalMetricError(FactorizationError):
    pass


class ZeroPivotError(FactorizationError):
    def __init__(self, index, tried_permutations=False):
        extra = " (no pivot permutation fixes it)" if tried_permutations else ""
        super().__init__(f"zero pivot at index {index}{extra}")
        self.index = index


class SingularMetricError(MetricFormsError):
    def __init__(self, point):
        super().__init__(f"metric is singular at {point}")
        self.point = point


class NumericFaultError(MetricFormsError):
    pass


class ManifoldFormatError(MetricFormsError):
    """Bad metric definition file.  ``line`` is 1-based."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
