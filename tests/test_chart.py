import math

import pytest
from hypothesis import example, given, settings, strategies as st

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

    def test_negative_seed_rejected_as_numpy_does(self):
        chart = Chart(("x",), (1, 0), ((0.0, 1.0),))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            oracles.sample_points(chart, 1, -1)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            chart.sample_points(0, -1)

    def test_midpoint(self):
        chart = Chart(("x", "y"), (2, 0), ((0.0, 2.0), (-3.0, -1.0)))
        assert chart.midpoint() == {"x": 1.0, "y": -2.0}


def _domain(draw, wide: bool):
    """A finite interval: wide (centre and width up to 1e307, the width
    down to the smallest subnormal) or small (both within 10)."""
    if wide:
        centre = draw(st.floats(-1e307, 1e307))
        width = draw(st.floats(5e-324, 1e307))
    else:
        centre = draw(st.floats(-10.0, 10.0))
        width = draw(st.floats(1e-300, 10.0))
    return centre - width / 2, centre + width / 2


@st.composite
def charts(draw):
    n = draw(st.integers(1, 4))
    domains = []
    for _ in range(n):
        lo, hi = _domain(draw, draw(st.booleans()))
        if not lo < hi:         # a width lost to the centre's rounding
            hi = math.nextafter(lo, math.inf)
        domains.append((lo, hi))
    return Chart(tuple(f"x{i}" for i in range(n)), (n, 0), tuple(domains))


@settings(max_examples=150, deadline=None)
@given(chart=charts(), count=st.integers(1, 50),
       seed=st.integers(0, 2 ** 160 - 1))
@example(chart=Chart(("x", "y"), (2, 0), ((0.0, 1.0), (-2.0, 2.0))),
         count=20, seed=2 ** 32)
@example(chart=Chart(("x",), (1, 0), ((0.0, 1.0),)), count=5, seed=2 ** 64)
@example(chart=Chart(("x",), (1, 0), ((0.0, 1.0),)), count=5,
         seed=2 ** 128 + 7)
def test_points_equal_numpy_default_rng_draws(chart, count, seed):
    assert chart.sample_points(count, seed) == oracles.sample_points(
        chart, count, seed)
