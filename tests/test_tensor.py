import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricforms import (
    Chart,
    MetricField,
    Tensor,
    antisymmetrize,
    contract,
    invert_metric,
    lower_index,
    parse_expr,
    raise_index,
    set_product,
    symmetrize,
)
from metricforms import exterior_derivative, factor_diagonal
from metricforms.errors import (
    SetAxisError,
    SingularMetricError,
    TensorError,
    VarianceError,
)
from metricforms import expr as ex
from metricforms.tensor import _PERM3, antisym_over_axes, max_abs

from conftest import sphere_metric


def _const_tensor(chart, values, variance, set_indexed=False):
    arr = np.asarray(values, dtype=complex)
    comps = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        comps[idx] = ex.const(complex(arr[idx]))
    return Tensor(chart, comps, variance, set_indexed)


@pytest.fixture
def chart3():
    return Chart(("x", "y", "z"), (3, 0),
                 ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)))


class TestSetProduct:
    def test_identity_factorization_reproduces_euclidean_metric(self, chart3):
        a = _const_tensor(chart3, np.eye(3), ("l",), set_indexed=True)
        g = set_product(a, a)
        vals = g.evaluate({})
        assert np.allclose(vals, np.eye(3))

    def test_distributivity(self, chart3):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = _const_tensor(chart3, rng.normal(size=(3, 3)), ("l",), True)
            b = _const_tensor(chart3, rng.normal(size=(3, 3)), ("l",), True)
            c = _const_tensor(chart3, rng.normal(size=(3, 3)), ("l",), True)
            lhs = set_product(a, b + c).evaluate({})
            rhs = set_product(a, b).evaluate({}) \
                + set_product(a, c).evaluate({})
            assert max_abs(lhs - rhs) <= 1e-12

    def test_operand_symmetry_but_tensor_asymmetry(self, chart3):
        rng = np.random.default_rng(11)
        a = _const_tensor(chart3, rng.normal(size=(3, 3)), ("l",), True)
        b = _const_tensor(chart3, rng.normal(size=(3, 3)), ("l",), True)
        ab = set_product(a, b).evaluate({})
        ba = set_product(b, a).evaluate({})
        # A_a (.) B_b == B_b (.) A_a ...
        assert max_abs(ab - ba.T) <= 1e-14
        # ... while swapping the tensor indices changes the result
        assert max_abs(ab - ab.T) > 1e-3

    def test_mismatched_set_extent(self, chart3):
        a = _const_tensor(chart3, np.eye(3), ("l",), True)
        b = Tensor(chart3, np.array(
            [[ex.ONE] * 3, [ex.ONE] * 3], dtype=object), ("l",), True)
        with pytest.raises(TensorError):
            set_product(a, b)

    def test_needs_set_axis(self, chart3):
        a = _const_tensor(chart3, np.eye(3), ("l", "l"))
        with pytest.raises(SetAxisError):
            set_product(a, a)


class TestRaiseLower:
    def test_euclidean_raising_is_identity(self, chart3):
        g = MetricField(chart3, _const_tensor(chart3, np.eye(3),
                                              ("l", "l")).comps)
        g_inv = invert_metric(g)
        w = _const_tensor(chart3, [1.0, 2.0, 3.0], ("l",))
        up = raise_index(w, 0, g_inv)
        assert np.allclose(up.evaluate({}), [1.0, 2.0, 3.0])

    def test_minkowski_signature_flip(self):
        chart = Chart(("x", "y", "z", "t"), (3, 1), (((-2.0, 2.0),) * 4))
        eta = np.diag([1.0, 1.0, 1.0, -1.0])
        g = MetricField(chart, _const_tensor(chart, eta, ("l", "l")).comps)
        g_inv = invert_metric(g)
        w = _const_tensor(chart, [0.0, 0.0, 0.0, 1.0], ("l",))
        up = raise_index(w, 0, g_inv)
        assert np.allclose(up.evaluate({}), [0.0, 0.0, 0.0, -1.0])

    def test_raise_lower_round_trip_on_sphere_curl(self):
        g = sphere_metric(1.3)
        g_inv = invert_metric(g)
        forms = factor_diagonal(g)
        f = exterior_derivative(forms)
        up = raise_index(f, 2, g_inv)
        back = lower_index(up, 2, g)
        point = g.chart.sample_points(1, seed=5)[0]
        assert max_abs(back.evaluate(point) - f.evaluate(point)) <= 1e-12

    def test_wrong_variance(self, chart3):
        g = MetricField(chart3, _const_tensor(chart3, np.eye(3),
                                              ("l", "l")).comps)
        w = _const_tensor(chart3, [1.0, 2.0, 3.0], ("u",))
        with pytest.raises(VarianceError):
            raise_index(w, 0, invert_metric(g))

    def test_slot_out_of_range(self, chart3):
        g = MetricField(chart3, _const_tensor(chart3, np.eye(3),
                                              ("l", "l")).comps)
        w = _const_tensor(chart3, [1.0, 2.0, 3.0], ("l",))
        with pytest.raises(TensorError):
            raise_index(w, 3, invert_metric(g))


class TestSymmetrize:
    def test_antisymmetrize_symmetric_is_zero(self, chart3):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 6.0], [3.0, 6.0, 9.0]])
        t = _const_tensor(chart3, m, ("l", "l"))
        vals = antisymmetrize(t, (0, 1)).evaluate({})
        assert max_abs(vals) == 0.0

    def test_sym_plus_antisym_reproduces(self, chart3):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3))
        t = _const_tensor(chart3, m, ("l", "l"))
        total = symmetrize(t, (0, 1)) + antisymmetrize(t, (0, 1))
        assert max_abs(total.evaluate({}) - m) <= 1e-14

    def test_set_axis_rejected(self):
        g = sphere_metric()
        f = exterior_derivative(factor_diagonal(g))
        with pytest.raises(SetAxisError):
            antisymmetrize(f, (0, 1))

    def test_mixed_variance_rejected(self, chart3):
        t = _const_tensor(chart3, np.eye(3), ("l", "u"))
        with pytest.raises(VarianceError):
            symmetrize(t, (0, 1))


class TestContract:
    def test_trace_of_identity(self, chart3):
        t = _const_tensor(chart3, np.eye(3), ("u", "l"))
        assert contract(t, 0, 1).evaluate({}) == pytest.approx(3.0)

    def test_requires_opposite_variance(self, chart3):
        t = _const_tensor(chart3, np.eye(3), ("l", "l"))
        with pytest.raises(VarianceError):
            contract(t, 0, 1)


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
        g = MetricField(chart, _const_tensor(chart, eta, ("l", "l")).comps)
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

    def test_cofactor_path_on_nondiagonal(self):
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

    def test_large_nondiagonal_uses_pointwise_fallback(self):
        names = tuple("abcde")
        chart = Chart(names, (5, 0), (((0.1, 0.9),) * 5))
        comps = np.empty((5, 5), dtype=object)
        comps[...] = ex.ZERO
        for k in range(5):
            comps[k, k] = parse_expr("2", chart)
        comps[0, 1] = comps[1, 0] = parse_expr("a", chart)
        g = MetricField(chart, comps)
        with pytest.raises(TensorError):
            invert_metric(g)
        point = chart.sample_points(1, seed=2)[0]
        inv = g.numeric_inverse(point)
        assert max_abs(g.evaluate(point) @ inv - np.eye(5)) <= 1e-12


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_sym_antisym_decomposition_property(seed):
    chart = Chart(("x", "y", "z"), (3, 0), (((-2.0, 2.0),) * 3))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t = _const_tensor(chart, m, ("l", "l"))
    total = symmetrize(t, (0, 1)) + antisymmetrize(t, (0, 1))
    assert max_abs(total.evaluate({}) - m) <= 1e-14


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
