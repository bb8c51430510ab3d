import cmath
import copy
import gc
import math
import operator
import pickle
import re
import struct
import sys
import threading
import tokenize
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from metricforms import (
    Chart,
    differentiate,
    evaluate,
    get_manifold,
    load_catalog,
    parse_expr,
    simplify,
    to_source,
)
from metricforms.errors import (
    EvalDomainError,
    ParseError,
    UnboundSymbolError,
    UnknownCoordinateError,
    UnknownSymbolError,
)
from metricforms import expr as ex
from metricforms.derivative import tangents
from metricforms.tape import TAPE_CHAIN, Tape
from metricforms.tensor import Tensor, require_finite, values_at

import oracles

ROOT = Path(__file__).resolve().parents[1]
METRIC_FILES = sorted([*(ROOT / "tests" / "data").glob("*.metric"),
                       *(ROOT / "bench" / "metrics").glob("*.metric")])
# a name token, and not the exponent of a number literal such as 2e5
_NAME_TOKEN = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _with_literals(source, values):
    """``source`` with each name of ``values`` spelled as its literal."""
    return _NAME_TOKEN.sub(lambda m: (f"({values[m.group()]!r})"
                                      if m.group() in values else m.group()),
                           source)


@pytest.fixture
def polar():
    return Chart(("r", "theta"), (2, 0), ((0.5, 3.0), (0.4, 2.7)))


class TestOperators:
    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    def test_array_operand_works_from_either_side(self, polar, op):
        arr = np.array([parse_expr(s, polar) for s in ("r", "sin(theta)", "2")],
                       dtype=object)
        left, right = op(ex.HALF, arr), op(arr, ex.HALF)
        for k, e in enumerate(arr):
            assert left[k] is op(ex.HALF, e)
            assert right[k] is op(e, ex.HALF)

    def test_mul_by_array_is_commutative_elementwise(self, polar):
        arr = np.array([parse_expr(s, polar) for s in ("r", "r * theta")],
                       dtype=object)
        assert all(a is b for a, b in zip(ex.HALF * arr, arr * ex.HALF))

    def test_non_numeric_operand_still_raises(self, polar):
        r = parse_expr("r", polar)
        with pytest.raises(TypeError):
            r + "s"
        with pytest.raises(TypeError):
            "s" * r


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_product_tree(self, polar):
        e = parse_expr("r^2 * sin(theta)^2", polar)
        assert isinstance(e, ex.Mul)
        assert evaluate(e, {"r": 2.0, "theta": math.pi / 2}) \
            == pytest.approx(4.0)

    def test_constant_reads_as_its_literal(self):
        # every metric entry and reference of the catalog and of the
        # metric files, read with its constants bound, is the very node
        # its text gives with each constant spelled as its literal
        bound = set()
        for spec in [*load_catalog(),
                     *(get_manifold(str(path)) for path in METRIC_FILES)]:
            sources = [*spec.metric_source.values(),
                       *(ref.value_source for ref in spec.references)]
            for source in sources:
                assert parse_expr(source, spec.chart, spec.constants) \
                    is parse_expr(_with_literals(source, spec.constants),
                                  spec.chart)
            bound |= {(spec.name, c) for c in spec.constants}
        assert bound == {("sphere2", "r"), ("schwarzschild", "M"),
                         ("painleve-gullstrand", "M"),
                         ("kerr-boyer-lindquist", "M"),
                         ("kerr-boyer-lindquist", "a")}

    def test_constant_folds_in_a_sum_as_its_literal(self, polar):
        # the sum folds its literals left to right, the bound M among them
        e = parse_expr("0.259 + M + r + M", polar, {"M": 0.234})
        assert e is parse_expr("0.259 + (0.234) + r + (0.234)", polar)
        assert to_source(e) == "r + 0.727"
        assert oracles.free_symbols(e) == {"r"}

    def test_unbalanced_paren_offset(self):
        chart = Chart(("r", "phi"), (2, 0), ((0.5, 3.0), (0.0, 7.0)))
        with pytest.raises(ParseError) as err:
            parse_expr("r^2 * sin(phi", chart)
        assert err.value.offset == 12

    def test_unknown_symbol_named(self, polar):
        with pytest.raises(UnknownSymbolError) as err:
            parse_expr("r + q", polar)
        assert err.value.symbol == "q"
        assert err.value.offset == 4

    def test_unknown_function(self, polar):
        with pytest.raises(ParseError):
            parse_expr("frob(r)", polar)

    def test_imaginary_suffix(self, polar):
        e = parse_expr("2i * r", polar)
        assert evaluate(e, {"r": 3.0, "theta": 1.0}) == 6j

    def test_rational_exponent_forms(self, polar):
        e = parse_expr("r^(1/2)", polar)
        assert evaluate(e, {"r": 4.0, "theta": 1.0}) == pytest.approx(2.0)
        # an unparenthesized slash is division, not part of the exponent
        e = parse_expr("r^2/3", polar)
        assert evaluate(e, {"r": 3.0, "theta": 1.0}) == pytest.approx(3.0)
        for src in ("r^-2", "r^(-2)"):
            e = parse_expr(src, polar)
            assert evaluate(e, {"r": 2.0, "theta": 1.0}) \
                == pytest.approx(0.25)

    def test_unary_minus_binds_below_power(self, polar):
        # -r^2 is -(r^2), the square that binary minus subtracts
        env = {"r": 2.0, "theta": 1.0}
        assert evaluate(parse_expr("5 - r^2 + -r^2", polar), env) == -3.0
        assert evaluate(parse_expr("2*-r^2", polar), env) \
            == evaluate(parse_expr("-2*r^2", polar), env) == -8.0
        square = parse_expr("r^2", polar)
        assert parse_expr("-r^2", polar) is ex.neg(square)
        assert parse_expr("--r^2", polar) is square
        assert parse_expr("(-r)^2", polar) is ex.pow_(ex.neg(ex.sym("r")), 2)
        assert evaluate(parse_expr("-2^2", polar), env) == -4

    def test_float_exponent_rejected(self, polar):
        with pytest.raises(ParseError):
            parse_expr("r^2.5", polar)

    def test_trailing_garbage(self, polar):
        with pytest.raises(ParseError):
            parse_expr("r r", polar)

    def test_unexpected_character(self, polar):
        with pytest.raises(ParseError) as err:
            parse_expr("r @ 2", polar)
        assert err.value.offset == 2

    def test_overlong_integer_literal(self, polar):
        # more digits than Python converts to an int
        with pytest.raises(ParseError) as err:
            parse_expr("r + " + "7" * 5001, polar)
        assert err.value.offset == 4
        assert "5001 digits" in str(err.value)

    @pytest.mark.parametrize("literal", ["1e999", "1.5e400i", "2e308"])
    def test_float_literal_out_of_range(self, polar, literal):
        with pytest.raises(ParseError) as err:
            parse_expr("r * " + literal, polar)
        assert err.value.offset == 4
        assert "number literal out of range" in str(err.value)

    @pytest.mark.parametrize("left,right", [("(", ")"), ("sin(", ")"),
                                            ("-", "")])
    def test_nesting_bound(self, polar, left, right):
        # each '(', call and unary '-' is one level; the level past the
        # bound is named by its offset
        def nested(depth):
            return left * depth + "r" + right * depth

        parse_expr(nested(ex.MAX_NESTING), polar)
        with pytest.raises(ParseError) as err:
            parse_expr(nested(ex.MAX_NESTING + 1), polar)
        assert err.value.offset == len(left) * ex.MAX_NESTING
        assert f"nested deeper than {ex.MAX_NESTING} levels" \
            in str(err.value)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestExactIntegerBound:
    def test_power_within_bound_folds_exactly(self):
        assert ex.pow_(ex.const(10), 400).value == 10 ** 400
        assert ex.pow_(ex.const(4), Fraction(801, 2)).value == 2 ** 801

    @pytest.mark.parametrize("exponent", [20000, 10 ** 11, 10 ** 100,
                                          Fraction(2 * 10 ** 11 + 1, 2)])
    def test_wider_power_stays_unfolded_and_overflows(self, exponent):
        # computed exactly, 2^(10^11) would take unbounded time and memory
        e = ex.pow_(ex.const(2), exponent)
        assert isinstance(e, ex.Pow)
        with pytest.raises(EvalDomainError, match="overflow in '2\\^"):
            evaluate(e, {})

    def test_wider_product_and_sum_stay_unfolded(self):
        big = ex.const(2 ** 4000)
        product = ex.mul(big, big, ex.sym("x"))
        assert [f.value for f in product.factors[:2]] == [2 ** 4000] * 2
        assert ex.add(big, big).value == 2 ** 4001
        total = ex.add(ex.const(2 ** 4096), ex.const(2 ** 4096))
        assert isinstance(total, ex.Add)
        assert simplify(total) is total


class TestNonFiniteFolding:
    """Folding never makes an inf or nan constant, which the grammar
    cannot spell: the operation stays as written."""

    _X = ex.sym("x")
    CASES = {
        "product": (ex.mul(1e200, 1e200, _X), "1e+200 * 1e+200 * x"),
        "sum": (ex.add(1e308, 1e308, _X), "1e+308 + 1e+308 + x"),
        "quotient": (ex.div(1e300, 1e-300), "1e+300 / 1e-300"),
        "power": (ex.pow_(ex.const(1e300), Fraction(3, 2)),
                  "1e+300^(3/2)"),
        # the product of the constants is nan, and the zero does not
        # cancel the factors before it
        "times zero": (ex.add(1, ex.mul(1e200, 1e200, _X, 0)),
                       "1e+200 * 1e+200 * x * 0 + 1"),
        "collected": (simplify(ex.add(ex.mul(1e308, _X), ex.mul(1e308, _X))),
                      "1e+308 * x + 1e+308 * x"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_prints_parses_back_and_faults_when_evaluated(self, case):
        e, source = self.CASES[case]
        assert to_source(e) == source
        assert parse_expr(source, _chart) is e
        point = {"x": 1.0, "y": 0.0}
        vals = Tensor(np.array([e], dtype=object)).evaluate(point)
        with pytest.raises(EvalDomainError, match="non-finite value") as err:
            require_finite(vals[np.newaxis], np.array([e], dtype=object),
                           "case", [point])
        assert err.value.subexpr is e
        assert f"'{source}'" in str(err.value)

    def test_non_finite_constant_is_not_folded_further(self):
        inf = ex.const(math.inf)
        assert isinstance(ex.neg(inf), ex.Neg)
        assert isinstance(ex.fn("sqrt", inf), ex.Fun)
        assert isinstance(ex.fn("exp", inf), ex.Fun)
        assert isinstance(ex.div(inf, 2), ex.Div)
        assert ex.mul(inf, ex.sym("x")).factors[0] is inf
        assert ex.add(inf, -inf).terms == (inf, ex.neg(inf))
        # finite folds are unchanged
        assert ex.mul(1e200, 1e-200).value == 1e200 * 1e-200
        assert ex.fn("exp", ex.const(700.0)).value == math.exp(700.0)


class TestEval:
    def test_closed_form(self, polar):
        e = parse_expr("r^2 * sin(theta)^2", polar)
        assert evaluate(e, {"r": 2.0, "theta": math.pi / 2}) \
            == pytest.approx(4.0)

    def test_principal_sqrt_of_negative(self, polar):
        e = parse_expr("sqrt(0 - 1)", polar)
        assert evaluate(e, {"r": 1.0, "theta": 1.0}) == 1j

    def test_division_by_zero_names_subexpr(self, polar):
        e = parse_expr("1/(r - 2*M)", polar, {"M": 1.0})
        with pytest.raises(EvalDomainError) as err:
            evaluate(e, {"r": 2.0, "theta": 1.0})
        assert "r" in str(err.value)

    def test_log_of_nonpositive_real(self, polar):
        e = parse_expr("log(r - 3)", polar)
        with pytest.raises(EvalDomainError):
            evaluate(e, {"r": 2.0, "theta": 1.0})

    def test_unbound_symbol(self, polar):
        e = parse_expr("r + theta", polar)
        with pytest.raises(UnboundSymbolError):
            evaluate(e, {"r": 1.0})

    def test_deterministic(self, polar):
        e = parse_expr("exp(sin(r) * cos(theta)) + r^(3/2)", polar)
        env = {"r": 1.7, "theta": 0.9}
        assert evaluate(e, env) == evaluate(e, env)

    def test_concurrent_evaluation(self, polar):
        # trees are immutable; sharing across threads is safe
        from concurrent.futures import ThreadPoolExecutor

        e = parse_expr("exp(sin(r) * cos(theta)) + r^(3/2) / (theta + 1)",
                       polar)
        envs = [{"r": 0.6 + 0.01 * k, "theta": 0.5 + 0.02 * k}
                for k in range(64)]
        expected = [evaluate(e, env) for env in envs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda env: evaluate(e, env), envs))
        assert got == expected

    def test_half_powers_match_principal_branch(self):
        chart = Chart(("x",), (1, 0), ((-3.0, 3.0),))
        e = parse_expr("x^(3/2)", chart)
        v = evaluate(e, {"x": -4.0})
        assert v == pytest.approx(cmath.exp(1.5 * cmath.log(-4 + 0j)))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

class TestDifferentiate:
    def test_chain_rule(self, polar):
        e = parse_expr("r^2 * sin(theta)^2", polar)
        d = differentiate(e, "theta")
        env = {"r": 1.3, "theta": 0.8}
        expected = 2 * 1.3**2 * math.sin(0.8) * math.cos(0.8)
        assert evaluate(d, env) == pytest.approx(expected, rel=1e-14)

    def test_constant_derivative_zero(self, polar):
        e = parse_expr("3.5", polar)
        assert differentiate(e, "r") is ex.ZERO

    def test_schwarzschild_component_vs_fd(self, polar):
        e = parse_expr("1 - 2*M/r", polar, {"M": 1.0})
        env = {"r": 4.0, "theta": 1.0}
        sym = evaluate(differentiate(e, "r"), env)
        fd = oracles.fd_partial(lambda p: evaluate(e, p), env, "r")
        assert abs(sym - fd) / (1 + abs(fd)) <= 1e-6

    def test_unknown_coordinate(self, polar):
        e = parse_expr("r", polar)
        with pytest.raises(UnknownCoordinateError):
            differentiate(e, "q", polar)

    @pytest.mark.parametrize("src,coord", [
        ("sqrt(1 - 2/r)", "r"),
        ("tan(theta) + sinh(r) * cosh(theta)", "theta"),
        ("log(r^2 + 1) / (theta + 4)", "theta"),
        ("exp(0 - r) * sin(theta)^3", "r"),
        ("r^(5/2) + r^(-1/2)", "r"),
    ])
    def test_rules_vs_fd(self, polar, src, coord):
        e = parse_expr(src, polar)
        env = {"r": 2.1, "theta": 1.2}
        sym = evaluate(differentiate(e, coord), env)
        fd = oracles.fd_partial(lambda p: complex(evaluate(e, p)), env, coord)
        assert abs(sym - fd) / (1 + abs(fd)) <= 1e-6


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

class TestSimplify:
    def test_annihilator_and_identity(self, polar):
        x, y = ex.sym("r"), ex.sym("theta")
        assert simplify(ex.add(ex.mul(ex.ZERO, x), y)) == y

    def test_like_terms(self):
        x = ex.sym("x")
        assert simplify(ex.Add((x, x))) == ex.mul(2, x)

    def test_composite(self, polar):
        e = parse_expr("(r^2 * sin(theta) * cos(theta)) * 0 + r^2", polar)
        assert to_source(simplify(e)) == "r^2"

    def test_never_grows(self, polar):
        for src in ("r + r + theta", "r * r * r", "sin(theta) - sin(theta)",
                    "(1 + r)^2 / (1 + r)^2"):
            e = parse_expr(src, polar)
            assert simplify(e).size() <= e.size()

    def test_power_collection(self):
        x = ex.sym("x")
        collected = simplify(ex.Mul((x, ex.pow_(x, Fraction(1, 2)))))
        assert collected == ex.pow_(x, Fraction(3, 2))


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "r^2 * sin(theta)^2",
    "1 - 2*m/r",
    "-r^2",
    "-(r^2)",
    "2i * r + (1.5 - 2i)",
    "r^(3/2) + r^(-2) * theta",
    "sqrt(r) / (theta + 3) - sinh(r)",
    "r / theta / 2",
    "(r + theta)^2",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_value_identical(src):
    chart = Chart(("r", "theta", "m"), (3, 0),
                  ((0.5, 3.0), (0.4, 2.7), (0.5, 2.0)))
    e = parse_expr(src, chart)
    back = parse_expr(to_source(e), chart)
    for env in ({"r": 1.1, "theta": 0.9, "m": 0.7},
                {"r": 2.4, "theta": 2.1, "m": 1.9}):
        v1, v2 = complex(evaluate(e, env)), complex(evaluate(back, env))
        assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_chart = Chart(("x", "y"), (2, 0), ((-1.5, 1.5), (-1.5, 1.5)))


def _exprs():
    leaves = st.one_of(
        st.floats(-3, 3, allow_nan=False).map(ex.const),
        st.sampled_from([ex.sym("x"), ex.sym("y"), ex.const(2.0),
                         ex.const(1.5j)]),
    )

    def extend(children):
        unary = children.map(ex.neg) | children.map(
            lambda e: ex.fn("sin", e)) | children.map(
            lambda e: ex.fn("cos", e))
        binary = st.tuples(children, children).map(
            lambda ab: ex.add(*ab)) | st.tuples(children, children).map(
            lambda ab: ex.mul(*ab))
        guarded = children.map(
            lambda e: ex.div(e, ex.add(ex.const(2), ex.mul(e, e))))
        powers = children.map(lambda e: ex.pow_(
            ex.add(ex.const(1), ex.mul(e, e)), Fraction(1, 2)))
        return unary | binary | guarded | powers

    return st.recursive(leaves, extend, max_leaves=12)


_points = st.fixed_dictionaries({
    "x": st.floats(-1.4, 1.4, allow_nan=False),
    "y": st.floats(-1.4, 1.4, allow_nan=False),
})


def _value_in_domain(e, env):
    """``complex(evaluate(e, env))``, or None where evaluation leaves the
    function domain, as for the constant ``cos(sin(sin(2 * 1.5i)))``,
    which overflows and which folding therefore leaves unfolded.  The
    properties hold on the domain only."""
    try:
        return complex(evaluate(e, env))
    except EvalDomainError:
        return None


# sin(sin(2 * 1.5i)) folds to 11211.86i, whose cos and sin overflow
_OVERFLOWING_SIN = ex.fn("sin", ex.fn("sin", ex.mul(ex.const(2.0),
                                                    ex.const(1.5j))))
_ORIGIN = {"x": 0.0, "y": 0.0}


@given(_exprs(), _points)
@example(ex.fn("cos", _OVERFLOWING_SIN), _ORIGIN)
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip_property(e, env):
    v = _value_in_domain(e, env)
    assume(v is not None and abs(v) < 1e9)
    back = parse_expr(to_source(e), _chart)
    v2 = complex(evaluate(back, env))
    assert abs(v - v2) <= 1e-12 * (1 + abs(v))


@given(_exprs(), _points)
@example(ex.fn("cos", _OVERFLOWING_SIN), _ORIGIN)
@settings(max_examples=120, deadline=None)
def test_simplify_preserves_value_property(e, env):
    v = _value_in_domain(e, env)
    assume(v is not None and abs(v) < 1e9)
    s = simplify(e)
    vs = complex(evaluate(s, env))
    assert abs(v - vs) <= 1e-12 * (1 + abs(v))
    assert s.size() <= e.size()


def _straddles_branch_cut(e, env, coord):
    """True when the stencil of ``oracles.fd_partial`` crosses the
    principal branch cut, the negative real axis, of a sqrt, log or
    fractional power in ``e``: its argument has a negative real part and
    an imaginary part that changes sign between the two stencil points,
    so the central difference measures the jump, not the derivative."""
    h = oracles.fd_step(env[coord])
    sides = [dict(env, **{coord: env[coord] + step}) for step in (-h, h)]
    stack = [e]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if isinstance(node, ex.Fun) and node.name in ("sqrt", "log"):
            arg = node.arg
        elif isinstance(node, ex.Pow) and node.exponent.denominator != 1:
            arg = node.base
        else:
            continue
        lo, hi = (complex(evaluate(arg, p)) for p in sides)
        if min(lo.real, hi.real) < 0 and \
                math.copysign(1, lo.imag) != math.copysign(1, hi.imag):
            return True
    return False


def test_branch_cut_detector():
    x = ex.sym("x")
    env = {"x": 0.0, "y": 0.0}

    def root(e):
        # the `powers` case of _exprs
        return ex.pow_(ex.add(ex.const(1), ex.mul(e, e)), Fraction(1, 2))

    # sin(sqrt(1 + (x + 1.5i)^2)) at x = 0: the argument is -1.25 + 3x i
    cut = ex.fn("sin", root(ex.add(x, ex.const(1.5j))))
    assert _straddles_branch_cut(cut, env, "x")
    fd = oracles.fd_partial(lambda p: complex(evaluate(cut, p)), env, "x")
    assert abs(fd - complex(evaluate(differentiate(cut, "x"), env))) > 1e3
    assert not _straddles_branch_cut(ex.fn("sin", root(x)), env, "x")
    # a negative real part alone is no crossing
    assert not _straddles_branch_cut(
        root(ex.add(x, ex.const(2.5j))), {"x": 0.3, "y": 0.0}, "x")


@given(_exprs(), _points, st.sampled_from(["x", "y"]))
@example(ex.fn("sin", _OVERFLOWING_SIN), _ORIGIN, "x")
@settings(max_examples=80, deadline=None)
def test_derivative_matches_fd_property(e, env, coord):
    # keep the finite-difference oracle in its comfort zone
    v = _value_in_domain(e, env)
    assume(v is not None and abs(v) < 1e4)
    sym = complex(evaluate(differentiate(e, coord), env))
    assume(abs(sym) < 1e4)
    assume(not _straddles_branch_cut(e, env, coord))
    fd = oracles.fd_partial(lambda p: complex(evaluate(e, p)), env, coord)
    assert abs(sym - fd) / (1 + abs(fd)) <= 1e-5


# ---------------------------------------------------------------------------
# the tape against the tree walk
# ---------------------------------------------------------------------------

def _faulty_exprs():
    """Expressions that reach every fault evaluation names: zero
    denominators (``x - x``), exact integers beyond the float range,
    float overflow, functions of inf, logs of non-positive reals,
    negative powers of zero, and the unbound symbol ``z``."""
    x, y, z = ex.sym("x"), ex.sym("y"), ex.sym("z")
    leaves = st.one_of(
        st.sampled_from([x, y, z, ex.const(0), ex.const(-0.0),
                         ex.const(2), ex.const(1.5j), ex.const(1e300),
                         ex.const(float("inf")), ex.const(10 ** 400)]),
        st.floats(-3, 3, allow_nan=False).map(ex.const))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ex.FUNCTIONS), children)
            .map(lambda t: ex.fn(*t)),
            children.map(ex.neg),
            st.tuples(st.sampled_from([ex.add, ex.sub, ex.mul, ex.div]),
                      children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, st.sampled_from(
                [2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2),
                 Fraction(1, 3)])).map(lambda t: ex.pow_(*t)))

    return st.recursive(leaves, extend, max_leaves=10)


_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 710.0, 1e10, 1e-300,
                     complex(-1.0, 0.0), complex(-1.0, -0.0), 1j]),
    st.floats(-5, 5, allow_nan=False))
_fault_points = st.fixed_dictionaries(
    {"x": _coordinate, "y": _coordinate}, optional={"z": _coordinate})


def _outcome(compute):
    """The reprs of the values ``compute`` returns, or the class and
    message of what it raised."""
    try:
        return [repr(v) for v in compute()]
    except Exception as exc:
        return type(exc), str(exc)


def _tape_outcome(roots, env):
    """What a tape of ``roots`` over the symbols of ``env``, in order,
    returns or raises at ``env``."""
    tape = Tape(roots, env)
    return _outcome(lambda: tape(*env.values()))


@given(st.lists(_faulty_exprs(), min_size=1, max_size=4), _fault_points)
# the partial sum y + x overflows before the zero denominator is reached
@example([ex.add(ex.sym("y"), ex.sym("x"),
                 ex.div(ex.sym("x"), ex.sub(ex.sym("x"), ex.sym("x"))))],
         {"x": 1.0, "y": 10 ** 400})
@settings(max_examples=400, deadline=None)
def test_tape_matches_tree_walk_property(roots, env):
    # values bit for bit, and on a fault what the walk raises: the unbound
    # z, outside the tape's arguments when not drawn, faults at call time
    reference = oracles.TreeEvaluator(env)
    want = _outcome(lambda: [reference(e) for e in roots])
    assert _tape_outcome(roots, env) == want


@given(st.lists(_faulty_exprs(), min_size=1, max_size=4),
       st.lists(_fault_points, min_size=1, max_size=4))
@example([ex.const(10 ** 400), ex.add(ex.sym("x"), ex.const(10 ** 400))],
         [{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 1.0}])
# the first point faults at a node that the walk reaches after the one the
# second point faults at
@example([ex.fn("log", ex.sym("x")), ex.div(ex.ONE, ex.sym("y"))],
         [{"x": 1.0, "y": 0.0}, {"x": -1.0, "y": 1.0}])
# exact integers beyond floats in different components at different points
@example([ex.sym("x"), ex.sym("y")],
         [{"x": 1.0, "y": 10 ** 400}, {"x": 10 ** 400, "y": 1.0}])
@settings(max_examples=300, deadline=None)
def test_walk_at_all_points_matches_one_point_walks(roots, points):
    # each value is the one-point walk's, compared by repr: real and
    # complex branches, signed zeros and exact integers; where a point
    # faults, the fault of the one-point walk at the first such point
    def at_each_point():
        return [v for p in points for [v] in ex.walk(roots, [p])]

    def at_once():
        per_root = ex.walk(roots, points)
        return [vals[k] for k in range(len(points)) for vals in per_root]

    want = _outcome(at_each_point)
    assert _outcome(at_once) == want
    if not isinstance(want, list):
        return
    # the one-point walk is the reference tree walk
    assert want == _outcome(lambda: [oracles.TreeEvaluator(p)(e)
                                     for p in points for e in roots])
    # converted to complex, an exact integer beyond the float range is an
    # overflow named at the first point and component that holds one
    comps = np.array(roots, dtype=object)
    assert _outcome(lambda: values_at(comps, points).ravel()) \
        == _outcome(lambda: np.concatenate(
            [values_at(comps, [p]).ravel() for p in points]))


# ---------------------------------------------------------------------------
# tangents against a walk of the symbolic derivative
# ---------------------------------------------------------------------------

def _symbolic_tangent(e, coord, points):
    """What a walk of the symbolic derivative of ``e`` along ``coord``
    gives at ``points``, as a complex array, or raises."""
    d = differentiate(e, coord)
    values = ex.walk([d], points)[0]
    try:
        return np.array(values, dtype=complex)
    except OverflowError:
        raise ex._fault("overflow", d) from None


def _fault_of(compute):
    """The class, message and node of what ``compute`` raises, or None."""
    try:
        compute()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "subexpr", None)
    return None


_x = ex.sym("x")


@given(_faulty_exprs(), st.lists(_fault_points, min_size=1, max_size=3),
       st.sampled_from(["x", "y"]))
# sqrt' and log' at 0, a negative power of 0, and a zero derivative of a
# constant whose folding is refused
@example(ex.fn("sqrt", _x), [{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 0.0}], "x")
@example(ex.fn("log", _x), [{"x": 0.0, "y": 0.0}], "x")
@example(ex.pow_(_x, Fraction(-3, 2)), [{"x": 0.0, "y": 1.0}], "x")
@example(ex.add(_x, ex.pow_(ex.const(float("inf")), 2)),
         [{"x": 1.0, "y": 0.0}], "x")
@settings(max_examples=400, deadline=None)
def test_tangents_match_walk_of_symbolic_derivative(e, points, coord):
    # where the symbolic derivative faults, the same class, message and
    # node; else the same values to rounding, where they are finite
    want = _fault_of(lambda: _symbolic_tangent(e, coord, points))
    got = _fault_of(lambda: tangents([e], points, [coord]))
    assert got == want
    if want is not None:
        return
    symbolic = _symbolic_tangent(e, coord, points)
    tangent = tangents([e], points, [coord])
    assert tangent.shape == (1, 1, len(points))
    for t, v in zip(tangent[0, 0], symbolic):
        if cmath.isfinite(v):
            assert abs(t - v) <= 1e-9 * (1 + abs(v))


@pytest.mark.parametrize("z", [{"z": 2.0}, {}], ids=["bound", "unbound"])
def test_tangents_of_several_roots_and_coordinates(z):
    # a constant and a symbol that is not a coordinate have none; where
    # the points do not bind that symbol, the values fault and the
    # symbolic derivatives, which do not read it, are walked instead
    x, y = ex.sym("x"), ex.sym("y")
    roots = [ex.mul(x, ex.fn("sin", y)), ex.div(y, ex.add(x, ex.const(2))),
             ex.const(3), ex.sym("z")]
    points = [{"x": 0.5, "y": 1.5, **z}, {"x": -1.0, "y": 0.25, **z}]
    got = tangents(roots, points, ("x", "y"))
    want = [[ex.walk([differentiate(e, c)], points)[0] for c in ("x", "y")]
            for e in roots[:2]]
    assert got.shape == (4, 2, 2)
    assert np.allclose(got[:2], want, rtol=1e-15, atol=0)
    assert not got[2:].any()


def test_tangent_fault_names_the_symbolic_node_without_numpy_warning():
    # 1 / (x * x) at x = 1e-100 is 1e200, but the square of x * x in its
    # derivative underflows to 0: the symbolic derivative's walk divides
    # by zero there
    x = ex.sym("x")
    e = ex.div(ex.ONE, ex.mul(x, x))
    points = [{"x": 2.0}, {"x": 1e-100}]
    want = _fault_of(lambda: _symbolic_tangent(e, "x", points))
    assert want[1].startswith("division by zero in ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fault_of(lambda: tangents([e], points, ["x"])) == want
        known = {}
        tangents([e], points[:1], ["x"], known)
    # the walk adds the nodes it computes to the memo
    assert known[e] == [0.25]


@pytest.mark.parametrize("zero", [0.0, -0.0, 0j])
def test_integer_power_of_zero_names_the_fault(zero):
    # the walk raises the operator's fault for floats and complexes
    # under its own name, at the first point that faults
    e = ex.pow_(ex.sym("x"), -1)
    points = [{"x": 2.0}, {"x": zero}, {"x": complex(0.5, 1.0)}]
    for at in (points[1:2], points):
        with pytest.raises(EvalDomainError,
                           match=r"^zero raised to a negative power in "
                                 r"'x\^\(-1\)'$") as err:
            ex.walk([e], at)
        assert err.value.subexpr is e
    assert ex.walk([e], points[::2]) == [[0.5, 1 / complex(0.5, 1.0)]]


def test_integer_power_of_an_exact_integer_keeps_its_bound():
    # an exact integer among the floats keeps _int_pow's bound: 10^1000 to
    # the 5th has 16,610 bits, beyond EXACT_INT_BITS
    e = ex.pow_(ex.sym("x"), 5)
    points = [{"x": 1.5}, {"x": 10 ** 1000}]
    with pytest.raises(EvalDomainError, match=r"^overflow in 'x\^5'$") as err:
        ex.walk([e], points)
    assert err.value.subexpr is e
    assert ex.walk([e], [{"x": 1.5}, {"x": 10 ** 100}]) \
        == [[1.5 ** 5, 10 ** 500]]


def test_exact_integer_root_beyond_floats_is_an_overflow():
    big = ex.const(10 ** 400)
    assert ex.walk([big], [{}, {}]) == [[10 ** 400, 10 ** 400]]
    with pytest.raises(EvalDomainError, match=r"^overflow in '10*'$") as err:
        values_at(np.array([ex.ONE, big], dtype=object), [{}, {}])
    assert err.value.subexpr is big


def test_one_point_reads_compile_no_tape(monkeypatch, polar):
    def refuse(tape, roots, args):
        raise AssertionError("a one-point read compiled a tape")

    monkeypatch.setattr(Tape, "__init__", refuse)
    e = parse_expr("r * sin(theta) / (1 + r^2)", polar)
    env = {"r": 1.5, "theta": 0.5}
    assert evaluate(e, env) == oracles.TreeEvaluator(env)(e)
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(ex.div(e, ex.sub(e, e)), env)


_X = ex.sym("x")


@pytest.mark.parametrize("e,x,expected", [
    # the principal branch: a negative real gives +i
    (ex.fn("sqrt", ex.sub(_X, 1)), 0.0, "1j"),
    (ex.pow_(ex.sub(_X, 4), Fraction(3, 2)), 0.0, "(-0-8j)"),
    # off the real axis the sign of a zero imaginary part picks the side
    (ex.fn("sqrt", _X), complex(-4.0, 0.0), "2j"),
    (ex.fn("sqrt", _X), complex(-4.0, -0.0), "-2j"),
    (ex.neg(ex.mul(_X, ex.I_UNIT)), 0.0, "(-0-0j)"),
    # a zero imaginary part takes the real logarithm
    (ex.fn("log", ex.mul(_X, ex.I_UNIT)), complex(0.0, -1.0), "0.0"),
])
def test_tape_branches_and_signed_zeros(e, x, expected):
    env = {"x": x}
    assert repr(evaluate(e, env)) == expected
    assert repr(oracles.TreeEvaluator(env)(e)) == expected


def test_tape_reads_constant_argument_and_repeated_roots():
    # a constant root comes from the table and an argument root from its
    # parameter, with no statement; each repeat of a root is in the tuple
    x, y = ex.sym("x"), ex.sym("y")
    e = ex.mul(x, y)
    tape = Tape([ex.const(2.5), y, e, ex.ZERO, e], ("x", "y"))
    assert tape(3.0, -1.0) == (2.5, -1.0, -3.0, 0, -3.0)
    # a header and a try, the one statement, a return, and the three
    # lines of the fault path
    assert len(tape.source.splitlines()) == 2 + 1 + 1 + 3
    assert Tape([], ())() == ()


def test_tape_of_many_statements():
    x, y = ex.sym("x"), ex.sym("y")
    roots = [ex.fn("sin", ex.add(ex.mul(ex.const(k + 0.5), x), y))
             for k in range(150)]
    tape = Tape(roots, ("x", "y"))
    # a header and a try, one statement per node but the arguments, a
    # return, and the three lines of the fault path
    assert len(tape.source.splitlines()) == 2 + 3 * 150 + 1 + 3
    env = {"x": 0.7, "y": -1.3}
    reference = oracles.TreeEvaluator(env)
    assert [repr(v) for v in tape(0.7, -1.3)] \
        == [repr(reference(e)) for e in roots]
    # a fault in the last statement raises what the walk raises
    bad = ex.div(roots[-1], ex.sub(x, x))
    tape = Tape([*roots, bad], ("x", "y"))
    with pytest.raises(EvalDomainError, match="^division by zero in") as err:
        tape(0.7, -1.3)
    assert err.value.subexpr is bad
    assert _outcome(lambda: tape(0.7, -1.3)) \
        == _outcome(lambda: ex.walk([*roots, bad], [env]))


def test_tape_long_sum_and_product():
    # past a few thousand operators in one expression Python's compiler
    # gives up; a longer chain goes on in further statements, and both
    # keep their left-to-right order
    x = ex.sym("x")
    roots = [ex.add(*[ex.fn("sin", ex.mul(ex.const(k + 0.5), x))
                      for k in range(3500)]),
             ex.mul(*[ex.add(ex.ONE, ex.mul(ex.const(1e-4 * (k + 0.5)), x))
                      for k in range(3500)])]
    assert all(len(r.children()) == 3500 for r in roots)
    tape = Tape(roots, ("x",))
    reference = oracles.TreeEvaluator({"x": 0.3})
    assert [repr(v) for v in tape(0.3)] \
        == [repr(reference(e)) for e in roots]


# the names a tape's source may hold besides its parameters, variables and
# constants: Python keywords, the fault path, the helpers and builtins its
# statements call, and the math and cmath functions of _FUNCTION_SOURCE
_TAPE_NAMES = {"def", "_tape", "try", "return", "except", "Exception", "as",
               "exc", "fault", "_refault", "_pow", "_unbound", "if", "else",
               "isinstance", "complex", "float", "real", "imag", "x", "u",
               *ex.FUNCTIONS, *("c" + name for name in ex.FUNCTIONS)}


def test_tape_source_holds_no_user_text():
    # symbols are positional parameters and every other name a constant
    # of the tape's namespace, so symbol names that are Python code, or
    # that are the function's own names, appear nowhere in the source
    names = ["v0", "k0", "a0", "_pow", "x'); import os; ('", "theta"]
    syms = [ex.sym(n) for n in names]
    e = ex.add(*(ex.fn("sqrt", ex.div(ex.mul(s, ex.const(2.5)),
                                      ex.pow_(s, Fraction(-3, 2))))
                 for s in syms), ex.const(float("inf")))
    e = ex.add(e, ex.fn("log", ex.fn("exp", syms[-1])))
    # the first name is outside the second tape's arguments; the third is
    # a right-hand side of the state (x, u) = (the first three, the rest)
    tapes = [Tape([e], names), Tape([e], names[1:]),
             Tape([e], names, state=True)]
    for tape in tapes:
        for tok in tokenize.generate_tokens(
                iter(tape.source.splitlines(True)).__next__):
            assert tok.type != tokenize.STRING
            if tok.type == tokenize.NAME:
                assert tok.string in _TAPE_NAMES \
                    or re.fullmatch(r"[avk][0-9]+", tok.string)
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit()
    env = {n: 4.0 for n in names}
    want = _outcome(lambda: [oracles.TreeEvaluator(env)(e)])
    assert _outcome(lambda: tapes[0](*env.values())) == want
    assert tapes[2].run((4.0,) * 3, (4.0,) * 3) \
        == tuple(float(v.real) for v in tapes[0](*env.values()))
    with pytest.raises(UnboundSymbolError, match="'v0'"):
        tapes[1](*[4.0] * 5)


def test_state_tape_returns_real_parts_and_else_the_original_fault():
    # run(x, u) binds the first half of the arguments to x and the rest to
    # u, and returns float(v.real) of each root: a bare argument, a
    # constant and a complex value; a fault the walk does not name, here
    # an exact integer beyond floats, is raised as it is
    x, y, p, q = map(ex.sym, ("x", "y", "p", "q"))
    roots = [q, ex.const(3), ex.fn("sqrt", ex.sub(x, p)), ex.mul(y, p)]
    run = Tape(roots, ("x", "y", "p", "q"), state=True).run
    got = run((1.0, 2.0), (5.0, -0.5))
    assert got == (-0.5, 3.0, 0.0, 10.0)
    assert list(map(type, got)) == [float] * 4
    big = Tape([ex.const(10 ** 400)], ("x", "p"), state=True).run
    assert ex.walk([ex.const(10 ** 400)], [{}]) == [[10 ** 400]]
    with pytest.raises(OverflowError, match="int too large"):
        big((1.0,), (0.0,))


# ---------------------------------------------------------------------------
# the typed state tape against the walk
# ---------------------------------------------------------------------------

_XS, _US = ex.sym("x"), ex.sym("u")


def _state_exprs():
    """Expressions over a position x and a velocity u, and the unbound z:
    signed zeros, int, float and complex constants, an int beyond exact
    floats and one beyond floats, sums, products and quotients built as
    they are, so a sum may start with -0.0 and a product with a complex
    factor, and every function and power, folded where constant."""
    leaves = st.sampled_from(
        [_XS, _US, ex.sym("z"), ex.const(0), ex.const(-0.0), ex.const(0.0),
         ex.const(2), ex.const(-3), ex.const(2 ** 60 + 128), ex.const(1.5),
         ex.const(1e300), ex.const(10 ** 400), ex.const(1.5j),
         ex.const(complex(-1.0, 0.5))])

    def extend(children):
        operands = st.lists(children, min_size=1, max_size=4).map(tuple)
        return st.one_of(
            st.tuples(st.sampled_from(ex.FUNCTIONS), children)
            .map(lambda t: ex.fn(*t)),
            children.map(ex.neg),
            operands.map(ex.Add), operands.map(ex.Mul),
            st.tuples(children, children).map(lambda t: ex.Div(*t)),
            # exponents of at most 2, so a chain of powers of an exact
            # integer grows slowly
            st.tuples(children, st.sampled_from(
                [2, -1, -2, Fraction(1, 2), Fraction(-3, 2),
                 Fraction(1, 3)])).map(lambda t: ex.pow_(*t)))

    return st.recursive(leaves, extend, max_leaves=12)


_state_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -4.0, 1e-300, 1e300, 710.0,
                     math.inf, -math.inf, math.nan]),
    st.floats(-5, 5))


def _bits(compute):
    """The types and the bytes of the floats ``compute`` returns, so that
    signed zeros and nans count, or the class and message of what it
    raised."""
    try:
        values = compute()
    except Exception as exc:
        return type(exc), str(exc)
    return list(map(type, values)), struct.pack(f"{len(values)}d", *values)


_LONG = [ex.neg(_XS), ex.const(-0.0), ex.mul(_XS, _US)] * (TAPE_CHAIN // 2)


@given(st.lists(_state_exprs(), min_size=1, max_size=4), _state_values,
       _state_values)
# sums of -0.0 terms, from a -0.0 constant and from a negated argument
@example([ex.Add((ex.neg(_XS), ex.neg(_US))), ex.Add((ex.const(-0.0), _XS)),
          ex.Mul((_XS, _US)), ex.neg(_XS)], -0.0, 0.0)
# square roots and logs of negative reals, of an argument and of a sum
@example([ex.fn("sqrt", _XS), ex.fn("sqrt", ex.Add((_XS, _US)))], -4.0, 1.0)
@example([ex.fn("log", ex.Add((_XS, _US)))], -4.0, 1.0)
# products whose first factor is complex, an int or an int beyond floats;
# 1.0 * z is not z for z = sqrt(-inf) = inf j, so the start shows
@example([ex.Mul((ex.const(1.5j), _XS)), ex.Mul((ex.const(2), _XS)),
          ex.Mul((ex.const(complex(-1.0, 0.5)), _US, ex.const(1.5j))),
          ex.Mul((ex.fn("sqrt", _XS), ex.const(1.5j)))],
         -math.inf, -0.0)
@example([ex.Add((ex.const(10 ** 400), _XS))], 1.0, 2.0)
@example([ex.Add((ex.const(2 ** 60 + 128), ex.const(2)))], 1.0, 2.0)
# chains longer than TAPE_CHAIN
@example([ex.Add(tuple(_LONG)), ex.Mul(tuple(_LONG[1:]))], 0.7, -1.3)
@settings(max_examples=500, deadline=None)
def test_state_tape_is_the_walk_bit_for_bit(roots, x, u):
    # float(v.real) of each value of the walk, or what the walk raises,
    # and else what the conversion raises
    run = Tape(roots, ("x", "u"), state=True).run
    env = {"x": x, "u": u}
    want = _bits(lambda: [float(v.real) for [v] in ex.walk(roots, [env])])
    assert _bits(lambda: run((x,), (u,))) == want


def test_state_tape_writes_real_operations_without_type_tests():
    # x + x * u is real: a function of it is its real branch, the sum
    # starts from 0.0 and the product of two reals has no start; a product
    # whose first factor is complex starts from 1.0 and a sum whose first
    # term is an int from 0; a root known to be a float is returned as it
    # is, a complex one or an int by its real part
    roots = [*(ex.fn(name, ex.Add((_XS, ex.Mul((_XS, _US)))))
               for name in ex.FUNCTIONS),
             ex.Mul((ex.const(1.5j), _XS)), ex.Add((ex.const(3), _XS)),
             ex.const(2)]
    tape = Tape(roots, ("x", "u"), state=True)
    assert "isinstance" not in tape.source
    assert not re.search(r"= [01] [+*]", tape.source)
    consts = tape.run.__globals__
    body = [re.sub(r"k[0-9]+", lambda m: repr(consts[m[0]]), line.strip())
            for line in tape.source.splitlines()[4:-3]]
    assert body == [
        "v0 = a0 * a1", "v1 = 0.0 + a0 + v0",
        "v2 = sin(v1)", "v3 = cos(v1)", "v4 = tan(v1)", "v5 = exp(v1)",
        "v6 = log(v1)", "v7 = sinh(v1)", "v8 = cosh(v1)",
        "v9 = sqrt(v1) if v1 >= 0 else complex(0, sqrt(-v1))",
        "v10 = 1.0 * 1.5j * a0", "v11 = 0 + 3 + a0",
        "return (v2, v3, v4, v5, v6, v7, v8, float(v9.real), "
        "float(v10.real), v11, float(2.real), )"]
    assert tape.run((0.5,), (-0.25,)) == tuple(
        float(v.real) for [v] in ex.walk(roots, [{"x": 0.5, "u": -0.25}]))


# real, complex (a numpy complex scalar among them), huge and infinite
# arguments: exp(1000) and cosh(1000) overflow, functions of inf either
# have a value or refuse it, and 10^400 has no float
_FUNCTION_ARGS = [2.5, -2.5, 0.0, -0.0, 3, 1000.0, -1000.0, 10 ** 400,
                  complex(0.5, -1.5), complex(-2.0, 0.0), complex(-2.0, -0.0),
                  np.complex128(0.5 - 1.5j), complex(1000.0, 1.0),
                  math.inf, -math.inf, complex(math.inf, 1.0)]


@pytest.mark.parametrize("name", ex.FUNCTIONS)
def test_tape_function_calls_match_tree_walk(name):
    e = ex.fn(name, ex.sym("x"))
    tape = Tape([e], ("x",))
    for x in _FUNCTION_ARGS:
        want = _outcome(lambda: [oracles.TreeEvaluator({"x": x})(e)])
        assert _outcome(lambda: tape(x)) == want, x


@pytest.mark.parametrize("source,x,message", [
    ("log(x)", -1.0, "log of non-positive real in 'log(x)'"),
    ("log(x)", 0.0, "log of non-positive real in 'log(x)'"),
    ("exp(x)", 1000.0, "overflow in 'exp(x)'"),
    ("cosh(x)", -1000.0, "overflow in 'cosh(x)'"),
    ("sin(x)", math.inf, "non-finite argument in 'sin(x)'"),
    ("sqrt(x)", 10 ** 400, "overflow in 'sqrt(x)'"),
    # the walk tests a denominator before it reaches the numerator, so
    # the zero denominator is named, not the overflow the tape meets first
    ("exp(1000 * x) / (x - x)", 1.0, "division by zero in"),
])
def test_tape_function_errors_name_the_node(source, x, message):
    e = parse_expr(source, _chart)
    for run in (lambda: evaluate(e, {"x": x}),
                lambda: oracles.TreeEvaluator({"x": x})(e)):
        with pytest.raises(EvalDomainError) as err:
            run()
        assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

def _recipes():
    """Nested tuples that ``_build`` turns into an expression, so the same
    expression can be built twice, independently."""
    leaves = st.one_of(
        st.tuples(st.just("const"), st.floats(-3, 3, allow_nan=False)
                  | st.integers(-3, 3) | st.just(1.5j)),
        st.tuples(st.just("sym"), st.sampled_from(["x", "y"])),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["neg", "sin", "cos", "sqrt"]),
                      children),
            st.tuples(st.sampled_from(["add", "mul", "div"]),
                      children, children),
            st.tuples(st.just("pow"), children,
                      st.sampled_from([2, -1, Fraction(1, 2),
                                       Fraction(-3, 2)])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _constants(e):
    stack, out = [e], []
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Const):
            out.append(node)
        stack.extend(node.children())
    return out


def _build(recipe):
    op, *args = recipe
    if op == "const":
        return ex.const(args[0])
    if op == "sym":
        return ex.sym(args[0])
    if op == "neg":
        return ex.neg(_build(args[0]))
    if op in ("sin", "cos", "sqrt"):
        return ex.fn(op, _build(args[0]))
    if op == "pow":
        return ex.pow_(_build(args[0]), args[1])
    a, b = _build(args[0]), _build(args[1])
    return {"add": ex.add, "mul": ex.mul, "div": ex.div}[op](a, b)


class TestInterning:
    @given(_recipes())
    @settings(max_examples=150, deadline=None)
    def test_same_structure_is_same_object(self, recipe):
        assert _build(recipe) is _build(recipe)

    @given(_recipes())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_returns_the_same_node(self, recipe):
        e = _build(recipe)
        # folding makes no inf or nan, which would have no text form
        assert all(cmath.isfinite(c.value) for c in _constants(e))
        assert parse_expr(to_source(e), _chart) is e

    def test_signed_zero_real_part_of_imaginary_constants_is_dropped(self):
        # "-1.5i" parses as -(0+1.5j) = (-0-1.5j); 1/(1.5j) folds to
        # (0-0.67j).  Both print the same, so they must be one node.
        assert ex.Const(complex(-0.0, -1.5)) is ex.Const(complex(0.0, -1.5))
        e = ex.div(1, ex.const(1.5j))
        assert parse_expr(to_source(e), _chart) is e

    @given(_recipes())
    @settings(max_examples=60, deadline=None)
    def test_copies_and_pickles_are_the_same_node(self, recipe):
        e = _build(recipe)
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_direct_construction_is_interned(self):
        x = ex.sym("x")
        assert ex.Add((x, x)) is ex.Add((x, x))
        assert ex.Mul((ex.const(2), x)) is ex.mul(2, x)
        assert ex.Pow(x, Fraction(1, 2)) is ex.pow_(x, Fraction(1, 2))
        assert ex.Fun("sin", x) is ex.fn("sin", x)

    def test_signed_zeros_stay_apart(self):
        assert ex.Const(0.0) is not ex.Const(-0.0)
        assert to_source(ex.Const(-0.0)) == "-0.0"
        assert to_source(ex.Const(0.0)) == "0.0"

    def test_value_equal_constants_keep_their_spelling(self):
        two, two_f = ex.Const(2), ex.Const(2.0)
        assert two == two_f and hash(two) == hash(two_f)
        assert two is not two_f
        assert to_source(two) == "2"
        assert to_source(two_f) == "2.0"
        assert ex.Const(2 + 0j) is two_f
        x = ex.sym("x")
        assert to_source(ex.mul(two_f, x)) == "2.0 * x"
        assert to_source(ex.mul(two, x)) == "2 * x"

    def test_concurrent_builders_get_one_node(self):
        # more threads than cores, switching often: a lost race would
        # leave two live nodes for one structure
        def build(base, out):
            x, y = ex.sym("x"), ex.sym("y")
            out.append([ex.add(ex.mul(ex.const(base + i), x),
                               ex.fn("sin", y)) for i in range(2000)])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                built: list[list] = []
                threads = [threading.Thread(
                    target=build, args=(1e6 * (round_ + 1), built))
                    for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(built) == 4
                for nodes in zip(*built):
                    assert all(n is nodes[0] for n in nodes)
        finally:
            sys.setswitchinterval(old)

    def test_table_holds_nodes_weakly(self, polar):
        gc.collect()
        before = len(ex._NODES)
        e = parse_expr("exp(r^7 * sin(theta)) / (r^5 + 17.25 * theta)",
                       polar)
        d = differentiate(differentiate(e, "r"), "theta")
        evaluate(d, {"r": 1.2, "theta": 0.7})
        assert len(ex._NODES) > before
        del e, d
        gc.collect()
        assert len(ex._NODES) == before

    def test_finished_analysis_leaves_no_nodes(self):
        from metricforms import get_manifold, run_analysis

        gc.collect()
        before = len(ex._NODES)
        report = run_analysis(get_manifold("sphere2"), seed=3, n_points=4)
        assert report.overall_pass
        del report
        gc.collect()
        assert len(ex._NODES) == before
