"""Command line surface.

Exit codes: 0 all checks pass, 2 identity failure, 3 input error,
4 numeric fault (singular metric, pivot failure, non-convergence).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .analysis import DEFAULT_POINTS, DEFAULT_SEED, GeometrySession, run_analysis
from .errors import (
    ChartError,
    EvalDomainError,
    ExprError,
    FactorizationError,
    ManifoldFormatError,
    MetricFormsError,
    NumericFaultError,
    SingularMetricError,
    TensorError,
    ZeroPivotError,
)
from .expr import to_source
from .factorization import factor_takagi_numeric, make_formset
from . import geometry as geo
from .manifolds import get_manifold
from .report import dumps_canonical, render_human, render_json
from .tensor import max_abs, require_finite

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _ranged(convert, ok, requirement: str):
    """argparse type: ``convert`` the text and require ``ok`` of the
    value, else an error through the parser (exit 3)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"'{text}' is not {requirement}")
    return parse


# the numeric options' ranges: a report holds only finite numbers, and
# no step, or a zero one, would let an integration pass vacuously
_seed = _ranged(int, lambda v: v >= 0, "a non-negative integer")
_count = _ranged(int, lambda v: v >= 1, "a positive integer")
_scale = _ranged(float, lambda v: math.isfinite(v) and v > 0,
                 "a finite number > 0")
_step = _ranged(float, lambda v: math.isfinite(v) and v != 0,
                "a finite non-zero number")


def _parse_vector(text: str, dim: int, what: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ChartError(f"{what} needs {dim} comma-separated values")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ChartError(f"{what} must be numeric") from None


def _complex_cell(value: complex) -> str:
    if abs(value.imag) < 1e-300:
        return f"{value.real:.12g}"
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.12g}{sign}{abs(value.imag):.12g}i"


def cmd_factor(args) -> int:
    spec = get_manifold(args.metric)
    strategy = args.strategy
    if strategy == "numeric" and args.point is None:
        raise ChartError("the numeric strategy factors at a point; "
                         "pass --point v1,...,vn")
    if args.point is not None:
        g = spec.metric()
        # the numeric strategy is a pointwise factor, not a form set
        forms = make_formset(g, strategy) if strategy != "numeric" else None
        vec = _parse_vector(args.point, spec.chart.dim, "--point")
        env = spec.chart.point(vec)
        gv = g.evaluate(env)
        if forms is None:
            comps, a = None, factor_takagi_numeric(g, env).T
        else:
            comps, a = forms.comps, forms.evaluate(env)
            strategy = forms.strategy
        v = require_finite(a[np.newaxis], comps, "forms",
                           [env])[0].T  # V[a, I]
        residual = max_abs(v @ v.T - gv)
        if args.json:
            doc = {
                "manifold": spec.name,
                "strategy": strategy,
                "point": {k: float(x) for k, x in env.items()},
                "factor_matrix": [[[float(c.real), float(c.imag)]
                                   for c in row] for row in v],
                "residual": float(residual),
            }
            print(dumps_canonical(doc))
        else:
            print(f"V at {env} ({strategy} strategy), rows are "
                  "coordinate index a, columns form index I:")
            for row in v:
                print("  [" + ", ".join(_complex_cell(c) for c in row) + "]")
            print(f"reconstruction residual |V Vt - g| = {residual:.3e}")
        return EXIT_OK
    session = GeometrySession(spec, strategy=strategy, seed=args.seed,
                              n_points=args.points)
    forms, check = session.forms, session.factorization
    if args.json:
        doc = {
            "manifold": spec.name,
            "strategy": forms.strategy,
            "forms": [[to_source(c) for c in row] for row in forms.comps],
            "max_residual": check.max_residual,
            "min_abs_det": check.min_abs_det,
            "pass": check.passed,
        }
        print(dumps_canonical(doc))
    else:
        print(f"form set for {spec.name} ({forms.strategy} strategy), "
              "components A[I][a]:")
        for i, row in enumerate(forms.comps, start=1):
            rendered = ", ".join(to_source(c) for c in row)
            print(f"  A_{i} = [{rendered}]")
        if forms.permutation:
            print(f"  pivot permutation: {forms.permutation}")
        print(f"reconstruction residual over {len(session.points)} points: "
              f"{check.max_residual:.3e}  min |det A|: "
              f"{check.min_abs_det:.3e}  "
              f"{'PASS' if check.passed else 'FAIL'}")
    return EXIT_OK if check.passed else EXIT_IDENTITY


def cmd_analyze(args) -> int:
    spec = get_manifold(args.metric)
    report = run_analysis(spec, strategy=args.strategy, seed=args.seed,
                          n_points=args.points, tol_scale=args.tol_scale)
    sys.stdout.write(render_json(report) if args.json
                     else render_human(report))
    return EXIT_OK if report.overall_pass else EXIT_IDENTITY


def cmd_check(args) -> int:
    spec = get_manifold(args.metric)
    report = run_analysis(spec, strategy=args.strategy, seed=args.seed,
                          n_points=args.points, tol_scale=args.tol_scale)
    for row in report.identities:
        if row.asserted:
            print(f"{'PASS' if row.passed else 'FAIL'}  {row.name}  "
                  f"{row.residual:.3e} <= {row.tolerance:.1e}")
    print(f"{'PASS' if report.overall_pass else 'FAIL'}  overall")
    return EXIT_OK if report.overall_pass else EXIT_IDENTITY


def cmd_classify(args) -> int:
    spec = get_manifold(args.metric)
    session = GeometrySession(spec, strategy=args.strategy, seed=args.seed,
                              n_points=args.points)
    verdict = session.classification
    if args.json:
        doc = {
            "manifold": spec.name,
            "verdict": verdict.verdict,
            "max_form_derivative": verdict.f_max,
            "max_riemann": verdict.r_max,
            "note": verdict.note,
        }
        print(dumps_canonical(doc))
    else:
        print(verdict.line(spec.name))
    return EXIT_OK if verdict.verdict != geo.VERDICT_INCONSISTENT \
        else EXIT_IDENTITY


def cmd_geodesic(args) -> int:
    spec = get_manifold(args.metric)
    session = GeometrySession(spec, strategy=args.strategy, seed=args.seed,
                              n_points=3)
    chart = spec.chart
    start = _parse_vector(args.start, chart.dim, "--start")
    velocity = _parse_vector(args.velocity, chart.dim, "--velocity")
    comparison = geo.integrate_geodesic(
        session.metric, session.g_inv, session.conn, session.forms,
        session.curl, start, velocity, args.steps, args.step_size)
    if args.out:
        _write_trajectory_csv(args.out, chart, comparison)
    if args.json:
        doc = {
            "manifold": spec.name,
            "steps": args.steps,
            "step_size": args.step_size,
            "coords": list(chart.coords),
            "s": comparison.classical.s.tolist(),
            "classical": _trajectory_doc(comparison.classical),
            "factored": _trajectory_doc(comparison.factored),
            "route_divergence": comparison.divergence,
            "norm_drift": comparison.norm_drift,
        }
        print(dumps_canonical(doc))
    else:
        print(f"integrated {len(comparison.classical.s) - 1} steps"
              + (" (truncated at domain edge)"
                 if comparison.classical.exited_domain else ""))
        print(f"route divergence {comparison.divergence:.3e}   "
              f"norm drift {comparison.norm_drift:.3e}")
        if args.out:
            print(f"trajectory written to {args.out}")
    ok = (comparison.divergence <= geo.TOL_GEODESIC
          and comparison.norm_drift <= geo.TOL_GEODESIC)
    return EXIT_OK if ok else EXIT_IDENTITY


def _trajectory_doc(traj: geo.Trajectory) -> dict:
    return {
        "x": traj.x.tolist(),
        "u": traj.u.tolist(),
        "exited_domain": traj.exited_domain,
    }


def _write_trajectory_csv(path: str, chart, comparison) -> None:
    k = min(len(comparison.classical.s), len(comparison.factored.s))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = (["s"] + [f"x_{c}" for c in chart.coords]
                  + [f"u_{c}" for c in chart.coords]
                  + [f"x_{c}_factored" for c in chart.coords]
                  + [f"u_{c}_factored" for c in chart.coords])
        writer.writerow(header)
        for i in range(k):
            row = ([comparison.classical.s[i]]
                   + list(comparison.classical.x[i])
                   + list(comparison.classical.u[i])
                   + list(comparison.factored.x[i])
                   + list(comparison.factored.u[i]))
            writer.writerow([format(v, ".17g") for v in row])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="metricforms",
        description="Factor metrics into 1-form sets and cross-validate the "
                    "derived geometry against the classical route.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strategies=("auto", "diagonal", "ldl")):
        p.add_argument("metric",
                       help="catalog name or metric definition file")
        p.add_argument("--strategy", choices=strategies, default="auto")
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        p.add_argument("--points", type=_count, default=DEFAULT_POINTS)

    p = sub.add_parser("factor", help="factor the metric and verify V Vt = g")
    common(p, strategies=("auto", "diagonal", "ldl", "numeric"))
    p.add_argument("--point", help="comma-separated coordinates; factor "
                                   "numerically at this point")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("analyze", help="run the full identity suite")
    common(p)
    p.add_argument("--tol-scale", type=_scale, default=1.0,
                   help="multiply every tolerance by this factor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("check", help="run the suite; exit 0 iff all "
                                     "asserted identities pass")
    common(p)
    p.add_argument("--tol-scale", type=_scale, default=1.0)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("classify", help="flat/curved verdict by the form "
                                        "criterion, with curvature status")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("geodesic", help="integrate both geodesic forms")
    common(p)
    p.add_argument("--start", required=True,
                   help="comma-separated start coordinates")
    p.add_argument("--velocity", required=True,
                   help="comma-separated initial velocity components")
    p.add_argument("--steps", type=_count, default=1000)
    p.add_argument("--step-size", type=_step, default=0.001, dest="step_size")
    p.add_argument("--out", help="write the trajectory as CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_geodesic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.handler(args)
    except (ZeroPivotError, SingularMetricError, NumericFaultError,
            EvalDomainError, np.linalg.LinAlgError) as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ManifoldFormatError, ChartError, ExprError, FactorizationError,
            TensorError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MetricFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
