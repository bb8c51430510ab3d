import ast
import functools
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricforms import (
    Chart,
    GeometrySession,
    MetricField,
    Tape,
    Tensor,
    einstein_tensor,
    invert_metric,
    parse_expr,
    ricci_from_mixed,
    riemann_classical,
    run_analysis,
    scalar_curvature,
)
from metricforms import factorization, geometry
from metricforms import tensor as tensor_module
from metricforms.cli import EXIT_OK, main
from metricforms.errors import (
    EvalDomainError,
    NumericFaultError,
    SingularMetricError,
    TensorError,
)
from metricforms import expr as ex
from metricforms.manifolds import CATALOG_NAMES, get_manifold, loads
from metricforms.tensor import (
    _PERM3,
    antisym_over_axes,
    einsum,
    max_abs,
    values_at,
)

import oracles
from conftest import NON_FINITE_FILE, sphere_metric

DATA = Path(__file__).parent / "data"

# a positive definite 5-D metric with three off-diagonal entries
FIVE_D_FILE = """
name five-d
dim 5
coords a b c d e
signature 5 0
domain a 0.1 0.9
domain b 0.1 0.9
domain c 0.1 0.9
domain d 0.1 0.9
domain e 0.1 0.9
g 1 1 = 2
g 1 2 = a
g 2 2 = 2 + e^2
g 2 3 = b * c / 2
g 3 3 = 2
g 4 4 = 2 + a
g 4 5 = sin(d) / 2
g 5 5 = 2
"""


def _const_tensor(values):
    arr = np.asarray(values, dtype=complex)
    comps = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        comps[idx] = ex.const(complex(arr[idx]))
    return Tensor(comps)


class TestInvertMetric:
    def test_diagonal_reciprocals(self):
        g = sphere_metric(1.0)
        inv = invert_metric(g)
        point = {"theta": 1.1, "phi": 0.5}
        gv = g.evaluate(point)
        assert np.allclose(inv.evaluate(point).real, np.linalg.inv(gv))

    def test_minkowski_self_inverse(self):
        chart = Chart(("x", "y", "z", "t"), (3, 1), (((-2.0, 2.0),) * 4))
        eta = np.diag([1.0, 1.0, 1.0, -1.0])
        g = MetricField(chart, _const_tensor(eta).comps)
        inv = invert_metric(g)
        assert np.allclose(inv.evaluate({}).real, eta)

    def test_schwarzschild_multiply_back(self):
        chart = Chart(("r", "theta", "phi", "t"), (3, 1),
                      ((2.6, 8.0), (0.4, 2.7), (0.0, 7.0), (-2.0, 2.0)))
        comps = np.empty((4, 4), dtype=object)
        comps[...] = ex.ZERO
        comps[0, 0] = parse_expr("1/(1 - 2/r)", chart)
        comps[1, 1] = parse_expr("r^2", chart)
        comps[2, 2] = parse_expr("r^2 * sin(theta)^2", chart)
        comps[3, 3] = parse_expr("-(1 - 2/r)", chart)
        g = MetricField(chart, comps)
        inv = invert_metric(g)
        for point in chart.sample_points(5, seed=9):
            prod = g.evaluate(point) @ inv.evaluate(point).real
            assert max_abs(prod - np.eye(4)) <= 1e-12

    def test_ldl_inverse_on_nondiagonal(self):
        chart = Chart(("a", "b"), (2, 0), ((0.2, 0.8), (0.2, 0.8)))
        comps = np.empty((2, 2), dtype=object)
        comps[0, 0] = parse_expr("1", chart)
        comps[0, 1] = comps[1, 0] = parse_expr("a", chart)
        comps[1, 1] = parse_expr("1 + a^2", chart)
        g = MetricField(chart, comps)
        inv = invert_metric(g)
        for point in chart.sample_points(5, seed=12):
            prod = g.evaluate(point) @ inv.evaluate(point).real
            assert max_abs(prod - np.eye(2)) <= 1e-10

    def test_singular_metric_reports_point(self):
        chart = Chart(("x", "y"), (2, 0), ((-1.0, 1.0), (-1.0, 1.0)))
        comps = np.empty((2, 2), dtype=object)
        comps[0, 0] = parse_expr("1", chart)
        comps[0, 1] = comps[1, 0] = parse_expr("1", chart)
        comps[1, 1] = parse_expr("1", chart)
        g = MetricField(chart, comps)
        with pytest.raises(SingularMetricError) as err:
            invert_metric(g)
        assert err.value.point

    def test_non_finite_metric_fails_multiply_back(self):
        # inf * 0 would put nan in g @ g_inv; the metric values at the
        # check points are tested first, so the message names the
        # non-finite component (EvalDomainError, exit 4 on the CLI)
        g = loads(NON_FINITE_FILE).metric()
        with pytest.raises(EvalDomainError,
                           match=r"non-finite value in metric component "
                                 r"\(1, 1\) '1e\+200 \* x \* y \* 1e\+150'"):
            invert_metric(g)

    def test_wrong_inverse_at_regular_point_is_numeric_fault(self):
        # a perturbed LDL factor gives a wrong inverse of a regular
        # metric: the multiply-back fails, and the metric is not singular
        g = get_manifold(str(DATA / "painleve-gullstrand.metric")).metric()
        L, D, order = g.ldl
        bad = L.copy()
        n = bad.shape[0]
        bad[n - 1, 0] = ex.mul(ex.Const(1.01), L[n - 1, 0])
        g.__dict__["ldl"] = (bad, D, order)
        with pytest.raises(NumericFaultError,
                           match=r"max \|g g\^-1 - 1\| = "):
            invert_metric(g)

    def test_reciprocal_diagonal_on_catalog_bit_for_bit(self, catalog):
        # the reciprocal diagonal the inverse was built from before it
        # came from the LDL factors, kept as the reference
        def reciprocal_diagonal(g):
            n = g.chart.dim
            comps = np.full((n, n), ex.ZERO, dtype=object)
            for a in range(n):
                comps[a, a] = ex.div(ex.ONE, g.comps[a, a])
            return comps

        for spec in catalog.values():
            g = spec.metric()
            inv = invert_metric(g)
            ref = reciprocal_diagonal(g)
            for point in g.chart.sample_points(20, seed=42):
                np.testing.assert_array_equal(inv.evaluate(point),
                                              oracles.tree_values(ref, point))

    def test_five_dimensional_nondiagonal(self, tmp_path, capsys):
        path = tmp_path / "five.metric"
        path.write_text(FIVE_D_FILE)
        g = loads(FIVE_D_FILE).metric()
        assert not g.is_diagonal()
        inv = invert_metric(g)
        for point in g.chart.sample_points(10, seed=2):
            assert max_abs(g.evaluate(point) @ inv.evaluate(point).real
                           - np.eye(5)) <= 1e-12
        assert main(["check", str(path)]) == EXIT_OK
        capsys.readouterr()


def _field(entries, dim=2):
    """Metric field on coordinates x0..x{dim-1} in (-1, 1) from source
    text per upper-triangle entry; every other entry is 0."""
    chart = Chart(tuple(f"x{k}" for k in range(dim)), (dim, 0),
                  ((-1.0, 1.0),) * dim)
    comps = np.full((dim, dim), ex.ZERO, dtype=object)
    for (a, b), text in entries.items():
        comps[a, b] = parse_expr(text, chart)
    return MetricField(chart, comps)


class TestMetricValues:
    """The one reader of the metric's numbers: finite, real and regular."""

    @pytest.mark.parametrize("scale", ["1e-8", "1e-4", "1", "1e4", "1e8"])
    def test_scaled_identity_is_regular(self, scale):
        g = _field({(a, a): scale for a in range(4)}, dim=4)
        points = g.chart.sample_points(3, seed=0)
        np.testing.assert_array_equal(g.values(points),
                                      np.stack([float(scale) * np.eye(4)] * 3))

    def test_painleve_gullstrand_is_regular(self):
        g = get_manifold(str(DATA / "painleve-gullstrand.metric")).metric()
        point = g.chart.sample_points(1, seed=0)[0]
        assert g.values([point]).shape == (1, 4, 4)

    def test_huge_entries_are_regular(self):
        # the determinant is 1e600, beyond a float: compared by logarithm
        g = _field({(0, 0): "1e300", (0, 1): "1e299", (1, 1): "1e300"})
        assert g.values([{"x0": 0.0, "x1": 0.0}])[0, 0, 0] == 1e300

    @pytest.mark.parametrize("entries,first", [
        ({(0, 0): "1", (0, 1): "1", (1, 1): "1"}, 0),
        ({(0, 0): "x0", (1, 1): "1"}, 1),
    ], ids=["rank-one", "diag-x0-1"])
    def test_first_singular_point_is_named(self, entries, first):
        g = _field(entries)
        points = [{"x0": 0.5, "x1": 0.5}, {"x0": 0.0, "x1": 0.5}]
        with pytest.raises(SingularMetricError) as err:
            g.values(points)
        assert str(err.value) == f"metric is singular at {points[first]}"

    def test_faults_are_decided_in_order(self):
        # non-finite, then non-real, then singular, at whichever points
        g = _field({(0, 0): "sqrt(x0)", (1, 1): "1e200 * x1 * 1e200"})
        singular = {"x0": 0.5, "x1": 0.0}
        non_real = {"x0": -0.5, "x1": 1e-300}
        non_finite = {"x0": 0.5, "x1": 0.5}
        with pytest.raises(TensorError, match="non-real"):
            g.values([singular, non_real])
        with pytest.raises(EvalDomainError, match=r"non-finite value in "
                                                  r"metric component \(1, 1\)"):
            g.values([singular, non_real, non_finite])

    def test_each_point_is_read_before_the_next(self):
        # an exact integer beyond floats fails its conversion at the first
        # point, before the zero denominator at the second is reached
        g = _field({(0, 0): "10^400", (1, 1): "1 / (x0 - 0.5)"})
        points = [{"x0": 0.0, "x1": 0.0}, {"x0": 0.5, "x1": 0.0}]
        with pytest.raises(EvalDomainError, match=r"^overflow in '10*'$"):
            g.values(points)
        with pytest.raises(EvalDomainError, match="division by zero"):
            g.values(points[::-1])


SRC = Path(__file__).resolve().parents[1] / "src" / "metricforms"


def _calls_by_function():
    """(function qualname, call node) for every call in src/, and the
    qualnames of every function defined there."""
    calls, functions = [], set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    functions.add(inner)
            elif isinstance(child, ast.Call):
                calls.append((scope, child))
            walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "")
    return calls, functions


def test_the_metric_is_judged_in_one_place():
    # finite, real and regular are decided by MetricField.values alone
    calls, functions = _calls_by_function()
    raisers = {scope for scope, call in calls
               if ast.unparse(call.func).endswith("SingularMetricError")}
    assert raisers == {"MetricField.values"}
    assert not {f for f in functions
                if f.rsplit(".", 1)[-1] in ("real_metric", "_checked_points")}
    dets = [(scope, ast.unparse(call.args[0])) for scope, call in calls
            if ast.unparse(call.func) == "np.linalg.det"]
    assert dets == [("verify_factorization", "a_vals")]


def test_tapes_are_compiled_only_where_they_run_many_times():
    # the two geodesic right-hand sides, called thousands of times, and the
    # norm monitor's read of the metric at every point of a trajectory;
    # every other read walks its points at once
    calls, functions = _calls_by_function()
    assert [(scope, len(call.args), [k.arg for k in call.keywords])
            for scope, call in calls
            if ast.unparse(call.func) in ("Tape", "ex.Tape")] \
        == [("_rhs", 2, ["state"]), ("_metric_norms", 2, [])]
    # a right-hand side is the state tape's compiled function itself, with
    # no Python function around it
    assert not {f for f in functions if f.startswith("_rhs.")}
    # source is compiled for a tape and for the RK4 loop of a dimension
    assert sorted(scope for scope, call in calls
                  if ast.unparse(call.func) == "compile") \
        == ["Tape.__init__", "_rk4_loop"]


def test_inverse_check_and_one_point_reads_compile_no_tape(monkeypatch):
    def refuse(tape, roots, args):
        raise AssertionError("a read that runs once compiled a tape")

    g = get_manifold(str(DATA / "painleve-gullstrand.metric")).metric()
    monkeypatch.setattr(Tape, "__init__", refuse)
    inv = invert_metric(g)
    point = g.chart.sample_points(1, seed=5)[0]
    np.testing.assert_array_equal(inv.evaluate(point),
                                  oracles.tree_values(inv.comps, point))
    np.testing.assert_array_equal(g.values([point])[0],
                                  oracles.tree_values(g.comps, point).real)


def _antisym_over_axes_loop(vals, axes):
    """Element-by-element reference for the vectorised antisymmetrization."""
    out = np.zeros_like(vals)
    for idx in np.ndindex(vals.shape):
        total = 0.0
        for perm, sign in _PERM3:
            j = list(idx)
            for k, ax in enumerate(axes):
                j[ax] = idx[axes[perm[k]]]
            total += sign * vals[tuple(j)]
        out[idx] = total / 6.0
    return out


@pytest.mark.parametrize("shape,axes", [
    ((4, 4, 4), (0, 1, 2)),
    ((3, 4, 4, 4), (1, 2, 3)),
    ((4, 4, 4, 4), (0, 2, 3)),
    ((4, 4, 4, 4), (3, 0, 2)),
    ((4, 2, 4, 4), (2, 0, 3)),
])
@pytest.mark.parametrize("dtype", [float, complex])
def test_antisym_over_axes_matches_loop(shape, axes, dtype):
    rng = np.random.default_rng(17)
    vals = rng.normal(size=shape)
    if dtype is complex:
        vals = vals + 1j * rng.normal(size=shape)
    # the transposes are summed in the loop's permutation order, so every
    # element sees the same operations in the same order
    np.testing.assert_array_equal(antisym_over_axes(vals, axes),
                                  _antisym_over_axes_loop(vals, axes))


def _const_array(values):
    return np.frompyfunc(ex.const, 1, 1)(np.asarray(values, dtype=float))


def _values(arr):
    return np.array([ex.evaluate(e, {}) for e in arr.flat],
                    dtype=complex).reshape(arr.shape)


class TestEinsum:
    # one spec per kind of contraction the geometry builds
    @pytest.mark.parametrize("spec,shapes", [
        ("ic,iab->cab", [(3, 4), (3, 4, 4)]),        # set-axis contraction
        ("ad,idab->ib", [(4, 4), (3, 4, 4, 4)]),     # double contraction
        ("iac,ibd->abcd", [(3, 4, 4), (3, 4, 4)]),   # outer product over I
        ("a,b->ab", [(4,), (4,)]),                   # outer product
        ("cacb->ab", [(4, 4, 4, 4)]),                # repeated-letter trace
        ("ab,ab->", [(4, 4), (4, 4)]),               # full contraction
    ])
    def test_agrees_with_numpy(self, spec, shapes):
        rng = np.random.default_rng(23)
        arrays = [rng.normal(size=shape) for shape in shapes]
        got = einsum(spec, *[_const_array(a) for a in arrays])
        np.testing.assert_allclose(_values(got),
                                   np.einsum(spec, *arrays),
                                   rtol=1e-13, atol=1e-13)

    def test_component_is_the_loop_sum(self, sphere_chart):
        x, y = (parse_expr(c, sphere_chart) for c in ("theta", "phi"))
        a = np.array([x, y, ex.mul(x, y)], dtype=object)
        b = np.array([ex.fn("sin", y), ex.ONE, x], dtype=object)
        assert einsum("i,i->", a, b)[()] is ex.add(
            *[ex.mul(a[i], b[i]) for i in range(3)])

    def test_summed_letters_nest_in_order_of_first_appearance(self):
        g = np.array([[ex.sym(f"g{a}{d}") for d in range(2)]
                      for a in range(2)], dtype=object)
        s = np.array([[[ex.sym(f"s{d}{a}{b}") for b in range(2)]
                       for a in range(2)] for d in range(2)], dtype=object)
        # a outermost: it appears first, as in "for a ...: for d ..."
        got = einsum("ad,dab->b", g, s)
        for b in range(2):
            assert got[b] is ex.add(*[ex.mul(g[a, d], s[d, a, b])
                                      for a in range(2) for d in range(2)])

    def test_negated_spec_keeps_flat_signed_terms(self, sphere_chart):
        x, y = (parse_expr(c, sphere_chart) for c in ("theta", "phi"))
        a = np.array([x, y], dtype=object)
        assert einsum("-i,i->", a, a)[()] is ex.add(
            ex.neg(ex.mul(x, x)), ex.neg(ex.mul(y, y)))

    def test_signed_sum_is_one_flat_add(self, sphere_chart):
        x, y = (parse_expr(c, sphere_chart) for c in ("theta", "phi"))
        a = np.array([x, y], dtype=object)
        b = np.array([[x, ex.ONE], [y, x]], dtype=object)
        got = einsum("a->a - ab,b->a + ,a->a", a, b, a, ex.HALF, a)
        for k in range(2):
            assert got[k] is ex.add(
                a[k], *[ex.neg(ex.mul(b[k, j], a[j])) for j in range(2)],
                ex.mul(ex.HALF, a[k]))

    def test_symmetric_pair_shares_mirrors(self, sphere_chart):
        x, y = (parse_expr(c, sphere_chart) for c in ("theta", "phi"))
        a = np.array([[x, y, ex.ONE], [y, x, x]], dtype=object)
        out = einsum("ia,ib->ab", a, a, pair=(0, 1, +1))
        for i, j in np.ndindex(out.shape):
            assert out[j, i] is out[i, j]
        assert out[0, 1] is ex.add(ex.mul(x, y), ex.mul(y, x))

    def test_antisymmetric_pair_negates_mirrors(self, sphere_chart):
        x, y = (parse_expr(c, sphere_chart) for c in ("theta", "phi"))
        a = np.array([[x, y, ex.ONE], [y, x, x]], dtype=object)
        b = np.array([[y, x, x], [ex.ONE, y, x]], dtype=object)
        out = einsum("ia,ib->ab", a, b, pair=(0, 1, -1))
        for i in range(3):
            assert out[i, i] is ex.ZERO
            for j in range(i + 1, 3):
                assert out[j, i] is ex.neg(out[i, j])
        assert out[0, 1] is ex.add(ex.mul(x, x), ex.mul(y, y))

    def test_empty_sum_is_zero(self):
        empty = np.empty((0, 2), dtype=object)
        out = einsum("ia,ib->ab", empty, empty)
        assert all(v is ex.ZERO for v in out.flat)

    @pytest.mark.parametrize("spec,shapes", [
        ("ab,bc->ac", [(2, 3), (2, 3)]),     # extent mismatch on b
        ("ab->ab", [(2,)]),                  # wrong number of letters
        ("ab,b->ab", [(2, 2)]),              # too few operands
        ("ab->c", [(2, 2)]),                 # output letter not in inputs
        ("ab->ab + ab->ba", [(2, 2), (2, 2)]),  # two different outputs
        ("ab->ab + ab->ab", [(2, 2), (3, 3)]),  # summands of different shapes
        ("ab->ab", [(2, 2), (2, 2)]),        # an operand left over
        ("", []),                            # no contraction
    ])
    def test_malformed_spec(self, spec, shapes):
        ops = [_const_array(np.ones(shape)) for shape in shapes]
        with pytest.raises(TensorError):
            einsum(spec, *ops)


# ---------------------------------------------------------------------------
# einsum builds no product that has a zero factor, and changes no node
# ---------------------------------------------------------------------------

def _built_tensors(spec, strategy):
    """The component arrays of every symbolic tensor a session builds."""
    s = GeometrySession(spec, strategy)
    riemann = riemann_classical(s.conn, s.diff)
    ricci = ricci_from_mixed(riemann)
    scalar = scalar_curvature(ricci, s.g_inv)
    tensors = [s.g_inv, s.forms, s.conn.lower, s.conn.mixed, s.curl,
               s.sym_partial, s.forms_raised, s.metric_jets.second, riemann,
               ricci, einstein_tensor(ricci, scalar, s.metric)]
    return [t.comps for t in tensors] + [np.array(scalar)]


_BUILD_TARGETS = [*[(name, strategy) for name in CATALOG_NAMES
                    for strategy in ("auto", "ldl")],
                  *[(str(DATA / f), "auto") for f in (
                      "painleve-gullstrand.metric",
                      "kerr-boyer-lindquist.metric", "dense-4d.metric")]]


@pytest.mark.parametrize("target,strategy", _BUILD_TARGETS,
                         ids=[f"{Path(t).stem}-{s}"
                              for t, s in _BUILD_TARGETS])
def test_session_tensors_are_the_nodes_of_the_full_einsum(monkeypatch,
                                                          target, strategy):
    spec = get_manifold(target)
    with monkeypatch.context() as patch:
        for module in (tensor_module, geometry, factorization):
            patch.setattr(module, "einsum", oracles.einsum)
        want = _built_tensors(spec, strategy)
    got = _built_tensors(spec, strategy)
    assert [c.shape for c in got] == [c.shape for c in want]
    for g, w in zip(got, want):
        assert all(a is b for a, b in zip(g.flat, w.flat))


def test_a_wild_constant_keeps_the_products_with_a_zero_factor():
    # 1e200 * 1e200 * 0 is nan, so ex.mul leaves that product unfolded,
    # and ex.add keeps it beside the other terms
    x = ex.sym("x")
    big = np.array([ex.const(1e200)] * 2, dtype=object)
    other = np.array([ex.ZERO, x], dtype=object)
    got = einsum("i,i,i->", big, big, other)[()]
    assert got is oracles.einsum("i,i,i->", big, big, other)[()]
    assert got.terms[0].factors == (big[0], big[0], ex.ZERO)
    # with tame constants the zero product is not built
    small = np.array([ex.const(2.0)] * 2, dtype=object)
    assert einsum("i,i,i->", small, small, other)[()] \
        is ex.mul(ex.const(4.0), x)


# ---------------------------------------------------------------------------
# einsum against the oracle that plans afresh and builds every product
# ---------------------------------------------------------------------------

_X, _Y = ex.sym("x"), ex.sym("y")
#: what the drawn arrays hold: zero constants of each spelling; tame
#: constants and expressions; and wild ones, a constant beyond
#: TAME_BOUND alone or inside a product (1e200 * 1e200 * y stays
#: unfolded, and so does its product with a zero)
_ZEROS = [ex.ZERO, ex.const(0.0), ex.const(-0.0)]
_TAME = [ex.const(2), ex.const(-1.5), ex.const(0.5 + 1j), _X, _Y,
         ex.mul(ex.const(3), _X), ex.add(_Y, ex.ONE), ex.neg(_X)]
_WILD = [ex.const(1e200), ex.const(2 ** 400), ex.mul(ex.const(1e150), _Y),
         ex.mul(ex.const(1e200), ex.const(1e200), _Y)]


def _drawn_array(shape, fill: str, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    pool = {"sparse": _ZEROS * 6 + _TAME, "dense": _TAME + _ZEROS[:1],
            "wild": _ZEROS * 3 + _TAME + _WILD}[fill]
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        arr[idx] = rng.choice(pool)
    return arr


@st.composite
def _contractions(draw):
    """(spec, operands, pair): a signed sum of one or two contractions of
    one to three operands over letters of one extent, 1 to 5, with
    repeated letters, scalar operands and operands passed twice."""
    n = draw(st.integers(1, 5))
    letters = "abcd"[:draw(st.integers(1, 4 if n < 5 else 3))]
    output = "".join(draw(st.permutations(letters))[:draw(
        st.integers(0, min(3, len(letters))))])
    fill = st.sampled_from(["sparse", "dense", "wild"])
    terms, operands, made = [], [], {}
    for k in range(draw(st.integers(1, 2))):
        inputs = [draw(st.text(letters, max_size=3))
                  for _ in range(draw(st.integers(1, 3)))]
        # every output letter appears in the contraction
        inputs[0] += "".join(c for c in output if c not in "".join(inputs))
        for spec_k in inputs:
            if not spec_k:
                operands.append(_drawn_array((), draw(fill),
                                             draw(st.integers()))[()])
            elif len(spec_k) in made and draw(st.booleans()):
                operands.append(made[len(spec_k)])
            else:
                made[len(spec_k)] = _drawn_array(
                    (n,) * len(spec_k), draw(fill), draw(st.integers()))
                operands.append(made[len(spec_k)])
        sign = draw(st.sampled_from(["+", "-"]))
        terms.append(f"{sign if k or sign == '-' else ''}"
                     f"{','.join(inputs)}->{output}")
    pair = None
    if len(output) >= 2 and draw(st.booleans()):
        i, j = sorted(draw(st.permutations(range(len(output))))[:2])
        pair = (i, j, draw(st.sampled_from([+1, -1])))
    return " ".join(terms), operands, pair


@settings(max_examples=400, deadline=None)
@given(_contractions())
def test_einsum_components_are_the_oracles(case):
    spec, operands, pair = case
    got = einsum(spec, *operands, pair=pair)
    want = oracles.einsum(spec, *operands, pair=pair)
    assert got.shape == want.shape
    assert all(a is b for a, b in zip(got.flat, want.flat))


def test_the_oracle_imports_nothing_of_the_planner():
    # the reference plans with numpy on its own; it shares no code with
    # the cached planner it checks
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "metricforms.tensor"
                for alias in node.names}
    assert imported == set()


def test_a_catalog_pass_plans_once_in_a_quarter_megabyte(catalog,
                                                         monkeypatch):
    # the second pass of the eight catalog analyses makes no plan, and the
    # plans of the first take 0.25 MB at most, counting every array
    made = []

    def planned(*key):
        made.append(plan(*key))
        return made[-1]

    def size(obj):
        inner = obj if isinstance(obj, tuple) else ()
        held = obj.nbytes if isinstance(obj, memoryview) else 0
        return sys.getsizeof(obj) + held + sum(map(size, inner))

    plan = tensor_module._plan.__wrapped__
    monkeypatch.setattr(tensor_module, "_plan", functools.lru_cache(
        maxsize=tensor_module.PLAN_CACHE_SIZE)(planned))
    for seed in (1, 2):
        for spec in catalog.values():
            run_analysis(spec, seed=seed, n_points=3)
        if seed == 1:
            first = len(made)
    assert len(made) == first <= tensor_module.PLAN_CACHE_SIZE
    assert sum(map(size, made)) <= 0.25 * 2 ** 20


# ---------------------------------------------------------------------------
# values_at walks and converts each distinct node once
# ---------------------------------------------------------------------------

_ELEVEN = [*CATALOG_NAMES, *(str(DATA / f"{name}.metric") for name in (
    "painleve-gullstrand", "kerr-boyer-lindquist", "dense-4d"))]


def _bits(vals):
    return vals.view(np.uint64)


@pytest.mark.parametrize("target", _ELEVEN, ids=lambda t: Path(t).stem)
def test_each_row_is_the_walk_of_its_component_alone(target):
    # mirrored and ZERO components repeat in these tensors: the row of
    # each, gathered from its node's one conversion, is bit for bit the
    # conversion of a walk of that component on its own
    s = GeometrySession(get_manifold(target), seed=42, n_points=4)
    memo: dict = {}
    riemann = riemann_classical(s.conn, s.diff)
    for tensor in (s.conn.lower, s.conn.mixed, riemann,
                   ricci_from_mixed(riemann), s.curl, s.sym_partial):
        comps = tensor.comps
        assert len(set(map(id, comps.flat))) < comps.size
        got = values_at(comps, s.points)
        for idx in np.ndindex(comps.shape):
            alone = np.array(ex.walk([comps[idx]], s.points, memo)[0],
                             dtype=complex)
            np.testing.assert_array_equal(_bits(got[(slice(None), *idx)]),
                                          _bits(alone))


@pytest.mark.parametrize("points,named", [
    # both points fault: at the first, (0, 1) is the first in flat order
    ([{"x": 10 ** 400, "y": 1.0, "z": 10 ** 400},
      {"x": 1.0, "y": 10 ** 400, "z": 1.0}], "x"),
    # the first point decides before the flat order does
    ([{"x": 1.0, "y": 1.0, "z": 10 ** 400},
      {"x": 10 ** 400, "y": 10 ** 400, "z": 1.0}], "z"),
], ids=["first-component", "first-point"])
def test_an_overflowing_mirrored_component_is_named_in_order(points, named):
    # an exact integer beyond the float range in the two mirrored
    # components of one node
    x, y, z = map(ex.sym, "xyz")
    comps = np.array([[y, x], [x, z]], dtype=object)
    with pytest.raises(EvalDomainError, match=rf"^overflow in '{named}'$") \
            as err:
        values_at(comps, points)
    assert err.value.subexpr is ex.sym(named)
