import cmath
import copy
import gc
import math
import operator
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from metricforms import (
    Chart,
    differentiate,
    evaluate,
    parse_expr,
    simplify,
    substitute,
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

import oracles


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

    def test_declared_constant(self, polar):
        e = parse_expr("1 - 2*M/r", polar, constants=("M",))
        assert e.free_symbols() == {"M", "r"}
        bound = substitute(e, {"M": 1.0})
        assert evaluate(bound, {"r": 4.0, "theta": 1.0}) == pytest.approx(0.5)

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


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEval:
    def test_closed_form(self, polar):
        e = parse_expr("r^2 * sin(theta)^2", polar)
        assert evaluate(e, {"r": 2.0, "theta": math.pi / 2}) \
            == pytest.approx(4.0)

    def test_principal_sqrt_of_negative(self, polar):
        e = parse_expr("sqrt(0 - 1)", polar)
        assert evaluate(e, {"r": 1.0, "theta": 1.0}) == 1j

    def test_division_by_zero_names_subexpr(self, polar):
        e = substitute(parse_expr("1/(r - 2*M)", polar, ("M",)), {"M": 1.0})
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
        e = substitute(parse_expr("1 - 2*M/r", polar, ("M",)), {"M": 1.0})
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


@given(_exprs(), _points)
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip_property(e, env):
    v = complex(evaluate(e, env))
    assume(abs(v) < 1e9)
    back = parse_expr(to_source(e), _chart)
    v2 = complex(evaluate(back, env))
    assert abs(v - v2) <= 1e-12 * (1 + abs(v))


@given(_exprs(), _points)
@settings(max_examples=120, deadline=None)
def test_simplify_preserves_value_property(e, env):
    v = complex(evaluate(e, env))
    assume(abs(v) < 1e9)
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
@settings(max_examples=80, deadline=None)
def test_derivative_matches_fd_property(e, env, coord):
    # keep the finite-difference oracle in its comfort zone
    v = complex(evaluate(e, env))
    assume(abs(v) < 1e4)
    sym = complex(evaluate(differentiate(e, coord), env))
    assume(abs(sym) < 1e4)
    assume(not _straddles_branch_cut(e, env, coord))
    fd = oracles.fd_partial(lambda p: complex(evaluate(e, p)), env, coord)
    assert abs(sym - fd) / (1 + abs(fd)) <= 1e-5


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
        # constant folding can overflow to inf, which has no text form
        assume(all(cmath.isfinite(c.value) for c in _constants(e)))
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
