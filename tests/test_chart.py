import math

import pytest

from metricforms import Chart
from metricforms.errors import ChartError

import oracles


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x", "x"), (2, 0), (((-1.0, 1.0),) * 2))

    def test_signature_must_match_dimension(self):
        with pytest.raises(ChartError):
            Chart(("x", "y"), (2, 1), (((-1.0, 1.0),) * 2))

    def test_function_name_clash_rejected(self):
        with pytest.raises(ChartError):
            Chart(("sin", "y"), (2, 0), (((-1.0, 1.0),) * 2))

    def test_empty_domain_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x",), (1, 0), ((2.0, 1.0),))

    @pytest.mark.parametrize("domain", [
        (0.5, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
        (-1e308, 1e308)])
    def test_non_finite_domain_or_width_rejected(self, domain):
        # sampling scales by hi - lo, which must be a finite float
        with pytest.raises(ChartError, match="finite ends and a finite"):
            Chart(("x",), (1, 0), (domain,))

    def test_eta_matrix(self):
        chart = Chart(("x", "t"), (1, 1), (((-1.0, 1.0),) * 2))
        eta = oracles.eta(chart)
        assert eta[0, 0] == 1.0 and eta[1, 1] == -1.0


class TestSampling:
    def test_points_strictly_inside_with_margin(self):
        chart = Chart(("theta", "phi"), (2, 0), ((0.0, 3.0), (0.0, 7.0)))
        for point in chart.sample_points(200, seed=3):
            assert 0.15 <= point["theta"] <= 2.85
            assert 0.35 <= point["phi"] <= 6.65

    def test_seeded_and_reproducible(self):
        chart = Chart(("x", "y"), (2, 0), (((-2.0, 2.0),) * 2))
        assert chart.sample_points(5, seed=9) == chart.sample_points(5, seed=9)
        assert chart.sample_points(5, seed=9) != chart.sample_points(5, seed=8)

    def test_midpoint(self):
        chart = Chart(("x", "y"), (2, 0), ((0.0, 2.0), (-3.0, -1.0)))
        assert chart.midpoint() == {"x": 1.0, "y": -2.0}
