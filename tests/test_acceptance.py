"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All residual thresholds are pinned here; the decomposition residuals of
the curved catalog entries are regression baselines measured on this
implementation (seed 42), not assertions that the sum is exactly the
classical tensor.
"""

import json
import math

import numpy as np
import pytest

from metricforms import (
    evaluate,
    integrate_geodesic,
    make_formset,
    numeric_formset,
    orthogonality_residual,
    run_analysis,
    verify_factorization,
)
from metricforms.cli import main as cli_main
from metricforms.expr import Evaluator
from metricforms.tensor import max_abs

from conftest import form_metric_vals

SEED = 42
N_POINTS = 20

#: measured decomposition residuals (max |sum - classical| over the seeded
#: points), rounded up with generous headroom; curved entries are the
#: regression baselines, flat entries are asserted via the 1e-8 criterion
DECOMPOSITION_BASELINES = {
    "euclidean3-spherical": 1e-12,
    "minkowski-cylindrical": 1e-12,
    "sphere2": 1e-12,
    "schwarzschild": 5e-12,
    "flrw-flat": 1e-12,
}

FLAT_CLOSED = ("euclidean2-cartesian", "euclidean3-cartesian", "minkowski")


def criterion(num: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reports(catalog):
    return {name: run_analysis(spec, seed=SEED, n_points=N_POINTS)
            for name, spec in catalog.items()}


def test_criterion_01_factorization_reconstruction(catalog):
    worst = 0.0
    for spec in catalog.values():
        g = spec.metric()
        points = spec.chart.sample_points(N_POINTS, SEED)
        for strategy in ("diagonal", "ldl", "numeric"):
            forms = numeric_formset(g) if strategy == "numeric" \
                else make_formset(g, strategy)
            check = verify_factorization(*form_metric_vals(forms, g, points))
            worst = max(worst, check.max_residual)
            if not (check.max_residual <= 1e-10):
                criterion(1, "factorization reconstruction <= 1e-10", False,
                          f"{spec.name}/{strategy}: {check.max_residual:.3e}")
    criterion(1, "factorization reconstruction <= 1e-10 for every catalog "
                 "metric x strategy", True, f"worst {worst:.3e}")


def test_criterion_02_orthogonality(catalog):
    worst = 0.0
    for spec in catalog.values():
        g = spec.metric()
        points = spec.chart.sample_points(N_POINTS, SEED)
        for forms in (make_formset(g), numeric_formset(g)):
            worst = max(worst, orthogonality_residual(
                *form_metric_vals(forms, g, points)))
    criterion(2, "form rows orthonormal against the inverse metric <= 1e-9",
              worst <= 1e-9, f"worst {worst:.3e}")


def test_criterion_03_christoffel_routes(reports):
    worst = max(r.identity("christoffel_route_agreement").residual
                for r in reports.values())
    criterion(3, "factored connection matches classical <= 1e-9 on all "
                 "catalog metrics", worst <= 1e-9, f"worst {worst:.3e}")


def test_criterion_04_sym_derivative_routes(reports):
    worst_route = max(r.identity("sym_derivative_route_agreement").residual
                      for r in reports.values())
    worst_balance = max(r.identity("sym_antisym_cancellation").residual
                        for r in reports.values())
    ok = worst_route <= 1e-9 and worst_balance <= 1e-9
    criterion(4, "symmetric-derivative route equivalence and cancellation "
                 "identity <= 1e-9", ok,
              f"route {worst_route:.3e}, cancellation {worst_balance:.3e}")


def test_criterion_05_classical_curvature_oracle(sessions, reports):
    sphere = sessions("sphere2")
    radius = 1.0
    worst_rel = 0.0
    for ev in sphere._evaluators:
        got = complex(ev(sphere.scalar))
        expected = 2.0 / radius ** 2
        worst_rel = max(worst_rel, abs(got - expected) / abs(expected))
    ricci_max = dict((n, v) for n, v, _ in
                     reports["schwarzschild"].tensor_summaries)
    riem_max = dict((n, v) for n, v, _ in
                    reports["minkowski-cylindrical"].tensor_summaries)
    ok = (worst_rel <= 1e-8
          and ricci_max["ricci_classical"] <= 1e-8
          and riem_max["riemann_classical"] <= 1e-8)
    criterion(5, "classical oracle: sphere scalar 2/r^2, vacuum "
                 "schwarzschild, flat cylindrical chart", ok,
              f"sphere rel {worst_rel:.3e}, "
              f"schwarzschild |Ric| {ricci_max['ricci_classical']:.3e}, "
              f"cylindrical |Riem| {riem_max['riemann_classical']:.3e}")


def test_criterion_06_per_term_bianchi(reports):
    worst = 0.0
    for report in reports.values():
        for row in ("bianchi_current_part", "bianchi_form_part",
                    "bianchi_sym_part"):
            worst = max(worst, report.identity(row).residual)
    criterion(6, "first Bianchi identity for each curvature sub-term "
                 "<= 1e-8 on all catalog metrics", worst <= 1e-8,
              f"worst {worst:.3e}")


def test_criterion_07_decomposition_residuals(reports):
    details = []
    ok = True
    for name, report in reports.items():
        residual = report.identity("decomposition_sum_vs_classical").residual
        if name in FLAT_CLOSED:
            bound, kind = 1e-8, "flat"
        else:
            bound, kind = DECOMPOSITION_BASELINES[name], "baseline"
        ok = ok and residual <= bound
        details.append(f"{name} {residual:.2e}<={bound:.0e}({kind})")
    criterion(7, "decomposition sum vs classical: flat metrics <= 1e-8, "
                 "curved metrics within measured regression baselines", ok,
              "; ".join(details))


def test_criterion_08_precurrent_symmetries(reports):
    worst_pair = max(r.identity("precurrent_pair_antisymmetry").residual
                     for r in reports.values())
    worst_cyc = max(r.identity("precurrent_cyclic_identity").residual
                    for r in reports.values())
    ok = worst_pair <= 1e-12 and worst_cyc <= 1e-8
    criterion(8, "pre-current pair antisymmetry <= 1e-12 and cyclic "
                 "identity <= 1e-8", ok,
              f"pair {worst_pair:.3e}, cyclic {worst_cyc:.3e}")


def test_criterion_09_killing(sessions, reports):
    worst_killing = 0.0
    for name in FLAT_CLOSED:
        report = sessions(name).killing
        assert report.set_closed, name
        worst_killing = max(worst_killing, max(report.s_max),
                            max(report.lie_max))
    worst_identity = max(r.identity("lie_derivative_identity").residual
                         for r in reports.values())
    ok = worst_killing <= 1e-9 and worst_identity <= 1e-9
    criterion(9, "closed form sets are Killing (<= 1e-9) and the Lie "
                 "derivative equals 2S universally (<= 1e-9)", ok,
              f"killing {worst_killing:.3e}, identity {worst_identity:.3e}")


def test_criterion_10_geodesic_equivalence(sessions):
    s = sessions("sphere2")
    radius = 1.0
    start = np.array([math.pi / 2, 0.4])
    velocity = np.array([0.0, 1.0 / radius])
    steps = 1000
    h = 2 * math.pi * radius / steps
    comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                              start, velocity, steps, h)
    end = comp.classical.x[-1]
    closure = max(abs(end[0] - start[0]),
                  abs(end[1] - (start[1] + 2 * math.pi)))
    ok = (not comp.classical.exited_domain
          and comp.divergence <= 1e-6
          and closure <= 1e-5
          and comp.norm_drift <= 1e-6)
    criterion(10, "great-circle geodesic: route divergence <= 1e-6, closure "
                  "<= 1e-5, norm drift <= 1e-6 over 1000 RK4 steps", ok,
              f"divergence {comp.divergence:.3e}, closure {closure:.3e}, "
              f"drift {comp.norm_drift:.3e}")


def test_criterion_11_contracted_bianchi(reports):
    worst = max(reports[n].identity("contracted_bianchi_classical").residual
                for n in ("sphere2", "schwarzschild"))
    criterion(11, "contracted Bianchi identity (divergence-free Einstein "
                  "tensor) <= 1e-7 on sphere and schwarzschild",
              worst <= 1e-7, f"worst {worst:.3e}")


def test_criterion_12_derivative_audit(catalog, sessions):
    pool = []
    for name, spec in catalog.items():
        session = sessions(name)
        chart = spec.chart
        exprs = [c for c in session.metric.comps.ravel()
                 if c.free_symbols()]
        exprs += [c for c in session.conn.lower.comps.ravel()
                  if c.free_symbols()][:20]
        pool.extend((chart, e) for e in exprs)
    rng = np.random.default_rng(12345)
    worst = 0.0
    audits = 0
    k = 0
    while audits < 200:
        chart, e = pool[k % len(pool)]
        k += 1
        point = chart.sample_points(1, seed=int(rng.integers(1 << 30)))[0]
        coord = chart.coords[int(rng.integers(chart.dim))]
        from metricforms import differentiate

        sym = complex(evaluate(differentiate(e, coord), point))
        h = 1e-6 * max(1.0, abs(point[coord]))
        up = dict(point)
        dn = dict(point)
        up[coord] += h
        dn[coord] -= h
        fd = (complex(evaluate(e, up)) - complex(evaluate(e, dn))) / (2 * h)
        worst = max(worst, abs(sym - fd) / (1 + abs(fd)))
        audits += 1
    criterion(12, "200 random symbolic-vs-finite-difference derivative "
                  "audits <= 1e-6 relative", worst <= 1e-6,
              f"worst {worst:.3e}")


def test_criterion_13_cli_determinism(capsys):
    argv = ["analyze", "sphere2", "--strategy", "diagonal",
            "--seed", str(SEED), "--json"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    json.loads(out1)
    criterion(13, "identical analyze invocation produces byte-identical "
                  "JSON reports", ok, f"{len(out1)} bytes")
