from types import SimpleNamespace

import numpy as np
import pytest

from metricforms import (
    Chart,
    GeometrySession,
    factor_takagi_numeric,
    load_catalog,
)

# 1e200 * 1e150 stays unfolded and evaluates to inf
NON_FINITE_FILE = """
name non-finite
dim 2
coords x y
signature 2 0
domain x 0.5 2
domain y 0.5 2
g 1 1 = 1
g 2 2 = 1e200*x*y*1e150
"""


@pytest.fixture(scope="session")
def catalog():
    return {spec.name: spec for spec in load_catalog()}


@pytest.fixture(scope="session")
def sessions(catalog):
    """One lazily built GeometrySession per catalog manifold (seed 42)."""
    cache = {}

    def get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = GeometrySession(catalog[name], seed=42, **kwargs)
        return cache[key]

    return get


@pytest.fixture
def plane_chart():
    return Chart(("x", "y"), (2, 0), ((-2.0, 2.0), (-2.0, 2.0)))


@pytest.fixture
def sphere_chart():
    return Chart(("theta", "phi"), (2, 0), ((0.4, 2.7), (0.0, 7.0)))


def sphere_metric(radius=1.0):
    from metricforms import MetricField, parse_expr

    chart = Chart(("theta", "phi"), (2, 0), ((0.4, 2.7), (0.0, 7.0)))
    comps = np.empty((2, 2), dtype=object)
    comps[0, 0] = parse_expr("r^2", chart, {"r": radius})
    comps[1, 1] = parse_expr("r^2 * sin(theta)^2", chart, {"r": radius})
    comps[0, 1] = comps[1, 0] = parse_expr("0", chart)
    return MetricField(chart, comps)


def stacked(evaluate, points):
    """Values at each point, stacked on a leading axis: the layout the
    numeric checks reduce over."""
    return np.stack([evaluate(p) for p in points])


def form_metric_vals(forms, g, points):
    """Stacked form values A[p, I, a] and metric values g[p, a, b]."""
    return stacked(forms.evaluate, points), stacked(g.evaluate, points)


def numeric_forms(g):
    """The numeric strategy in the form-set layout: ``evaluate(point)``
    is the pointwise factor A[I, a] = V[a, I]."""
    return SimpleNamespace(
        evaluate=lambda point: factor_takagi_numeric(g.evaluate(point),
                                                     point).T)
