"""Report rendering: canonical JSON (byte-reproducible) and human tables.

The JSON writer formats every float with 17 significant digits, so the
same analysis inputs always serialize to the same bytes.  Wall-clock
timing appears only in the human rendering, never in the JSON document.
Complex numbers serialize as two-element [re, im] arrays.
"""

from __future__ import annotations

import math

from .analysis import AnalysisReport

SCHEMA_ID = "metricforms-report/1"

#: JSON Schema (draft 2020-12) of the ``analyze --json`` document
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "metricforms analysis report",
    "type": "object",
    "required": ["schema", "manifold", "strategy", "seed", "tol_scale",
                 "points", "identities", "tensors", "classification",
                 "decomposition_residual", "factorization", "geodesic",
                 "overall_pass"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "manifold": {"type": "string"},
        "strategy": {"enum": ["diagonal", "ldl"]},
        "seed": {"type": "integer"},
        "tol_scale": {"type": "number"},
        "points": {
            "type": "array",
            "items": {"type": "object",
                      "additionalProperties": {"type": "number"}},
        },
        "identities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "max_residual", "tolerance", "asserted",
                             "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "max_residual": {"type": "number"},
                    "tolerance": {"type": ["number", "null"]},
                    "asserted": {"type": "boolean"},
                    "pass": {"type": ["boolean", "null"]},
                },
            },
        },
        "tensors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "max_abs", "max_imag"],
                "properties": {
                    "name": {"type": "string"},
                    "max_abs": {"type": "number"},
                    "max_imag": {"type": ["number", "null"]},
                },
            },
        },
        "classification": {
            "type": "object",
            "required": ["verdict", "max_form_derivative", "max_riemann",
                         "form_tolerance", "riemann_tolerance", "note"],
            "properties": {
                "verdict": {"enum": ["CURVED", "CLOSED_FLAT", "INCONSISTENT"]},
                "max_form_derivative": {"type": "number"},
                "max_riemann": {"type": "number"},
                "form_tolerance": {"type": "number"},
                "riemann_tolerance": {"type": "number"},
                "note": {"type": "string"},
            },
        },
        "decomposition_residual": {
            "type": "object",
            "required": ["per_point", "max"],
            "properties": {
                "per_point": {"type": "array", "items": {"type": "number"}},
                "max": {"type": "number"},
            },
        },
        "factorization": {
            "type": "object",
            "required": ["strategy", "max_residual", "min_abs_det",
                         "choice", "pivot_permutation", "pass"],
            "properties": {
                "strategy": {"type": "string"},
                "max_residual": {"type": "number"},
                "min_abs_det": {"type": "number"},
                "choice": {"type": "string"},
                "pivot_permutation": {
                    "type": ["array", "null"],
                    "items": {"type": "integer"},
                },
                "pass": {"type": "boolean"},
            },
        },
        "geodesic": {
            "type": "object",
            "required": ["route_divergence", "norm_drift", "steps",
                         "step_size", "exited_domain"],
            "properties": {
                "route_divergence": {"type": "number"},
                "norm_drift": {"type": "number"},
                "steps": {"type": "integer"},
                "step_size": {"type": "number"},
                "exited_domain": {"type": "boolean"},
            },
        },
        "overall_pass": {"type": "boolean"},
    },
}


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must contain finite numbers")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = ["\""]
    for ch in s:
        if ch in ("\"", "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, two-space indentation."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        return dumps_canonical([obj.real, obj.imag], indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_escape(str(k))}: {dumps_canonical(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_document(report: AnalysisReport) -> dict:
    """The analyze report as a plain dict matching REPORT_SCHEMA.
    Timing is deliberately excluded to keep the document reproducible."""
    return {
        "schema": SCHEMA_ID,
        "manifold": report.manifold,
        "strategy": report.strategy,
        "seed": report.seed,
        "tol_scale": report.tol_scale,
        "points": [{k: float(v) for k, v in p.items()}
                   for p in report.points],
        "identities": [
            {"name": row.name,
             "max_residual": row.residual,
             "tolerance": row.tolerance,
             "asserted": row.asserted,
             "pass": row.passed}
            for row in report.identities],
        "tensors": [
            {"name": name, "max_abs": biggest, "max_imag": imag}
            for name, biggest, imag in report.tensor_summaries],
        "classification": {
            "verdict": report.classification.verdict,
            "max_form_derivative": report.classification.f_max,
            "max_riemann": report.classification.r_max,
            "form_tolerance": report.classification.f_tol,
            "riemann_tolerance": report.classification.r_tol,
            "note": report.classification.note,
        },
        "decomposition_residual": {
            "per_point": list(report.decomposition_per_point),
            "max": max(report.decomposition_per_point),
        },
        "factorization": {
            "strategy": report.strategy,
            "max_residual": report.factorization.max_residual,
            "min_abs_det": report.factorization.min_abs_det,
            "choice": report.form_choice,
            "pivot_permutation": (list(report.pivot_permutation)
                                  if report.pivot_permutation else None),
            "pass": report.factorization.passed,
        },
        "geodesic": {
            "route_divergence": report.geodesic.divergence,
            "norm_drift": report.geodesic.norm_drift,
            "steps": report.geodesic.steps,
            "step_size": report.geodesic.step_size,
            "exited_domain": report.geodesic.exited_domain,
        },
        "overall_pass": report.overall_pass,
    }


def render_json(report: AnalysisReport) -> str:
    return dumps_canonical(report_document(report)) + "\n"


# ---------------------------------------------------------------------------
# human rendering
# ---------------------------------------------------------------------------

def render_human(report: AnalysisReport) -> str:
    lines = []
    lines.append(f"manifold  {report.manifold}")
    lines.append(f"strategy  {report.strategy}   seed {report.seed}   "
                 f"points {len(report.points)}   "
                 f"tol-scale {report.tol_scale:g}")
    if report.pivot_permutation:
        lines.append(f"pivot permutation {report.pivot_permutation}")
    lines.append("")
    name_w = max(len(row.name) for row in report.identities)
    lines.append(f"{'identity':<{name_w}}  {'max residual':>13}  "
                 f"{'tolerance':>10}  status")
    for row in report.identities:
        if row.asserted:
            tol = f"{row.tolerance:.1e}"
            status = "PASS" if row.passed else "FAIL"
        else:
            tol = "-"
            status = "reported"
        lines.append(f"{row.name:<{name_w}}  {row.residual:>13.3e}  "
                     f"{tol:>10}  {status}")
    lines.append("")
    lines.append(f"factorization residual {report.factorization.max_residual:.3e}"
                 f"   min |det A| {report.factorization.min_abs_det:.3e}"
                 f"   {'PASS' if report.factorization.passed else 'FAIL'}")
    lines.append(report.classification.line(report.manifold))
    lines.append(f"decomposition max residual "
                 f"{max(report.decomposition_per_point):.3e} over "
                 f"{len(report.decomposition_per_point)} points")
    lines.append(f"geodesic spot check: route divergence "
                 f"{report.geodesic.divergence:.3e}, norm drift "
                 f"{report.geodesic.norm_drift:.3e}"
                 + ("  [truncated at domain edge]"
                    if report.geodesic.exited_domain else ""))
    lines.append("")
    lines.append(f"overall: {'PASS' if report.overall_pass else 'FAIL'}"
                 f"   ({report.elapsed_seconds:.2f}s)")
    return "\n".join(lines) + "\n"
