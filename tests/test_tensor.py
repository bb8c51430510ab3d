import ast
from pathlib import Path

import numpy as np
import pytest

from metricforms import Chart, MetricField, Tensor, invert_metric, parse_expr
from metricforms.cli import EXIT_OK, main
from metricforms.errors import (
    EvalDomainError,
    NumericFaultError,
    SingularMetricError,
    TensorError,
)
from metricforms import expr as ex
from metricforms.manifolds import get_manifold, loads
from metricforms.tensor import (
    _PERM3,
    antisym_over_axes,
    compiled,
    einsum,
    max_abs,
)

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


def test_adding_tensors_of_different_shapes_raises():
    a = _const_tensor(np.ones((2, 2)))
    assert np.array_equal((a + a).evaluate({}), 2 * np.ones((2, 2)))
    with pytest.raises(TensorError, match=r"\(2, 2\) and \(2, 3\)"):
        a + _const_tensor(np.ones((2, 3)))


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
                                              compiled(ref)(point))

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
