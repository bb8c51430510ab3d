import math

import numpy as np
import pytest

from metricforms import (
    Chart,
    MetricField,
    factor_diagonal,
    factor_ldl,
    factor_takagi_numeric,
    make_formset,
    numeric_formset,
    orthogonality_residual,
    parse_expr,
    to_source,
    verify_factorization,
)
from metricforms.errors import (
    NonDiagonalMetricError,
    SingularMetricError,
    ZeroPivotError,
)
from metricforms import expr as ex
from metricforms.factorization import FormSet
from metricforms.tensor import max_abs

from conftest import form_metric_vals, sphere_metric


def _metric(chart, entries):
    comps = np.empty((chart.dim, chart.dim), dtype=object)
    comps[...] = ex.ZERO
    for (a, b), src in entries.items():
        comps[a, b] = parse_expr(src, chart)
    return MetricField(chart, comps)


class TestDiagonal:
    def test_sphere_forms(self):
        g = sphere_metric(1.0)
        forms = factor_diagonal(g)
        point = {"theta": 1.1, "phi": 2.0}
        a = forms.components_at(point)
        assert a[0, 0] == pytest.approx(1.0)
        assert a[1, 1] == pytest.approx(math.sin(1.1))
        assert a[0, 1] == a[1, 0] == 0

    def test_minkowski_imaginary_unit(self):
        chart = Chart(("x", "y", "z", "t"), (3, 1), (((-2.0, 2.0),) * 4))
        g = _metric(chart, {(0, 0): "1", (1, 1): "1", (2, 2): "1",
                            (3, 3): "-1"})
        forms = factor_diagonal(g)
        assert forms.comps[3, 3] == ex.const(1j)

    def test_euclidean_exact_forms(self):
        chart = Chart(("x", "y"), (2, 0), (((-2.0, 2.0),) * 2))
        g = _metric(chart, {(0, 0): "1", (1, 1): "1"})
        forms = factor_diagonal(g)
        assert forms.comps[0, 0] == ex.ONE
        assert forms.comps[1, 1] == ex.ONE

    def test_rejects_off_diagonal(self):
        chart = Chart(("a", "b"), (2, 0), ((0.2, 0.8), (0.2, 0.8)))
        g = _metric(chart, {(0, 0): "1", (0, 1): "a", (1, 1): "2"})
        with pytest.raises(NonDiagonalMetricError):
            factor_diagonal(g)


class TestLdl:
    def test_diagonal_degenerates_to_roots(self):
        g = sphere_metric(1.2)
        forms = factor_ldl(g)
        ref = factor_diagonal(g)
        point = {"theta": 0.9, "phi": 1.0}
        assert max_abs(forms.components_at(point)
                       - ref.components_at(point)) <= 1e-14

    def test_hand_worked_two_by_two(self):
        # g = [[1, a], [a, 1 + a^2]] factors with unit L = [[1,0],[a,1]]
        # and D = I, so the forms are A_1 = (1, a), A_2 = (0, 1)
        chart = Chart(("a", "b"), (2, 0), ((0.2, 0.8), (0.2, 0.8)))
        g = _metric(chart, {(0, 0): "1", (0, 1): "a", (1, 1): "1 + a^2"})
        forms = factor_ldl(g)
        assert to_source(forms.comps[0, 0]) == "1"
        assert to_source(forms.comps[0, 1]) == "a"
        assert to_source(forms.comps[1, 0]) == "0"
        assert to_source(forms.comps[1, 1]) == "1"
        points = chart.sample_points(20, seed=4)
        assert verify_factorization(
            *form_metric_vals(forms, g, points)).max_residual <= 1e-12

    def test_zero_pivot_error(self):
        chart = Chart(("c", "d"), (2, 0), ((0.5, 2.0), (0.5, 2.0)))
        g = _metric(chart, {(0, 1): "c"})
        with pytest.raises(ZeroPivotError) as err:
            factor_ldl(g)
        assert err.value.index == 0

    def test_pivot_permutation_recorded(self):
        chart = Chart(("c", "d"), (2, 0), ((0.5, 2.0), (0.5, 2.0)))
        g = _metric(chart, {(0, 1): "c", (1, 1): "1"})
        forms = factor_ldl(g)
        assert forms.permutation == (1, 0)
        points = chart.sample_points(20, seed=4)
        assert verify_factorization(
            *form_metric_vals(forms, g, points)).max_residual <= 1e-10

    def test_indefinite_metric_gets_imaginary_forms(self):
        chart = Chart(("x", "t"), (1, 1), (((-2.0, 2.0),) * 2))
        g = _metric(chart, {(0, 0): "1", (1, 1): "-1"})
        forms = factor_ldl(g)
        a = forms.components_at({"x": 0.1, "t": 0.2})
        assert abs(a[1, 1] - 1j) <= 1e-15


class TestTakagiNumeric:
    def test_identity(self):
        chart = Chart(("x", "y"), (2, 0), (((-2.0, 2.0),) * 2))
        g = _metric(chart, {(0, 0): "1", (1, 1): "1"})
        v = factor_takagi_numeric(g, {"x": 0.0, "y": 0.0})
        assert max_abs(v @ v.T - np.eye(2)) <= 1e-14

    def test_explicit_roots_up_to_orthogonal_factor(self):
        chart = Chart(("x", "y"), (1, 1), (((-2.0, 2.0),) * 2))
        g = _metric(chart, {(0, 0): "4", (1, 1): "-9"})
        point = {"x": 0.0, "y": 0.0}
        v = factor_takagi_numeric(g, point)
        assert max_abs(v @ v.T - np.diag([4.0, -9.0])) <= 1e-14
        singular = np.sort(np.linalg.svd(v, compute_uv=False))
        assert np.allclose(singular, [2.0, 3.0], atol=1e-13)

    def test_schwarzschild_multiply_back(self, catalog):
        spec = catalog["schwarzschild"]
        g = spec.metric()
        point = {"r": 4.0, "theta": math.pi / 3, "phi": 1.0, "t": 0.0}
        v = factor_takagi_numeric(g, point)
        assert max_abs(v @ v.T - g.evaluate(point)) <= 1e-10

    def test_singular_point_raises(self):
        chart = Chart(("x", "y"), (2, 0), (((-2.0, 2.0),) * 2))
        g = _metric(chart, {(0, 0): "x", (1, 1): "1"})
        with pytest.raises(SingularMetricError):
            factor_takagi_numeric(g, {"x": 0.0, "y": 1.0})

    def test_singular_values_match_eigenvalue_roots(self, catalog):
        spec = catalog["flrw-flat"]
        g = spec.metric()
        point = {"x": 0.3, "y": -0.2, "z": 1.0, "t": 1.7}
        v = factor_takagi_numeric(g, point)
        singular = np.sort(np.linalg.svd(v, compute_uv=False))
        roots = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(g.evaluate(point)))))
        assert max_abs(singular - roots) <= 1e-10


class TestVerify:
    def _sphere_setup(self):
        g = sphere_metric(1.0)
        forms = factor_diagonal(g)
        points = g.chart.sample_points(20, seed=42)
        return g, forms, points

    def test_catalog_diagonal_passes(self, catalog):
        for spec in catalog.values():
            g = spec.metric()
            points = spec.chart.sample_points(20, seed=42)
            check = verify_factorization(
                *form_metric_vals(make_formset(g), g, points))
            assert check.passed, spec.name

    def test_corrupted_component_fails_localized(self):
        g, forms, points = self._sphere_setup()
        bad = forms.comps.copy()
        bad[1, 1] = ex.mul(ex.const(1.01), bad[1, 1])
        corrupted = FormSet(g.chart, "diagonal", comps=bad)
        check = verify_factorization(*form_metric_vals(corrupted, g, points))
        assert not check.passed
        point = points[0]
        gv = g.evaluate(point)
        expected = abs(1.01 ** 2 - 1.0) * abs(gv[1, 1])
        a = corrupted.components_at(point)
        residual_matrix = np.abs(a.T @ a - gv)
        assert residual_matrix[1, 1] == pytest.approx(expected, rel=1e-9)
        # corruption does not leak into other entries
        residual_matrix[1, 1] = 0.0
        assert max_abs(residual_matrix) <= 1e-14

    def test_rank_deficient_rows_fail_det_bound(self):
        g, forms, points = self._sphere_setup()
        bad = forms.comps.copy()
        bad[1, :] = bad[0, :]
        degenerate = FormSet(g.chart, "diagonal", comps=bad)
        check = verify_factorization(*form_metric_vals(degenerate, g, points))
        assert check.min_abs_det <= 1e-12
        assert not check.passed


class TestOrthogonality:
    def test_catalog_diagonal_and_numeric(self, catalog):
        for spec in catalog.values():
            g = spec.metric()
            points = spec.chart.sample_points(10, seed=42)
            for forms in (make_formset(g), numeric_formset(g)):
                assert orthogonality_residual(
                    *form_metric_vals(forms, g, points)) <= 1e-9

    def test_holds_for_any_invertible_factor(self):
        # rows mixed by an invertible (not orthogonal) matrix still satisfy
        # A_Ic A_J^c = delta_IJ only when V V^T reproduces g; here we keep
        # V V^T = g by multiplying with an orthogonal factor on the right
        g = sphere_metric(1.0)
        forms = factor_diagonal(g)
        angle = 0.7
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        mixed = np.empty((2, 2), dtype=object)
        for i in range(2):
            for a in range(2):
                mixed[i, a] = ex.add(*[ex.mul(ex.const(rot[j, i]),
                                              forms.comps[j, a])
                                       for j in range(2)])
        rotated = FormSet(g.chart, "diagonal", comps=mixed)
        points = g.chart.sample_points(10, seed=8)
        vals = form_metric_vals(rotated, g, points)
        assert verify_factorization(*vals).max_residual <= 1e-12
        assert orthogonality_residual(*vals) <= 1e-12
