"""Report rendering: canonical JSON (byte-reproducible) and human tables.

The JSON writer formats every float with 17 significant digits, so the
same analysis inputs always serialize to the same bytes.  Wall-clock
timing appears only in the human rendering, never in the JSON document.
Complex numbers serialize as two-element [re, im] arrays.
"""

from __future__ import annotations

import math
import operator
from itertools import chain

import numpy as np

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

# the %-format of a float, by whether it is an integer below 1e16 in size
_FLOAT_FORMAT = ("%.17g", "%.1f")
# a control character as its \u escape, a quote or backslash behind one
_ESCAPES = ({c: f"\\u{c:04x}" for c in range(0x20)}
            | {ord("\""): "\\\"", ord("\\"): "\\\\"})
#: rows of a float array formatted per piece of a streamed document
ROW_BLOCK = 256


def _float_formats(values):
    """The %-format of each of ``values``, finite floats, by C-level maps:
    ``%.1f`` for an integer below 1e16 in size, else ``%.17g``."""
    if not all(map(math.isfinite, values)):
        raise ValueError("reports must contain finite numbers")
    return map(_FLOAT_FORMAT.__getitem__,
               map(operator.and_, map(float.is_integer, values),
                   map((1e16).__gt__, map(abs, values))))


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _finite(obj) -> bool:
    """Whether every number of a document is finite."""
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_finite, obj))
    if isinstance(obj, (float, complex, np.ndarray)):
        return bool(np.isfinite(obj).all())
    return True


def dumps_canonical(obj, indent: int = 0, write=None) -> str | None:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, two-space indentation.  A 1-D or 2-D float array (an
    ``np.ndarray``, or a list of floats or of equal-length lists of them)
    is written as the nested list of its floats, one %-template per
    ``ROW_BLOCK`` of its rows.

    The pieces are joined and returned; with ``write``, each is passed to
    it as it is made and nothing is returned, after every number of the
    document is checked finite, so a refused document writes nothing."""
    if write is None:
        out: list[str] = []
        _write(obj, indent, out.append)
        return "".join(out)
    if not _finite(obj):
        raise ValueError("reports must contain finite numbers")
    _write(obj, indent, write)
    return None


def _write(obj, indent: int, emit) -> None:
    if obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, str):
        emit(_escape(obj))
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(next(_float_formats((obj,))) % obj)
    elif isinstance(obj, complex):
        _write([obj.real, obj.imag], indent, emit)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == float and obj.ndim in (1, 2) and obj.size:
            _write_array(obj, indent, emit)
        else:
            _write(obj.tolist(), indent, emit)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        if _write_floats(obj, indent, emit):
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "[" + inner
        for v in obj:
            emit(sep)
            _write(v, indent + 1, emit)
            sep = "," + inner
        emit("\n" + "  " * indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for k, v in obj.items():
            emit(f"{sep}{_escape(str(k))}: ")
            _write(v, indent + 1, emit)
            sep = "," + inner
        emit("\n" + "  " * indent + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_floats(obj, indent: int, emit) -> bool:
    """Write ``obj``, a list of floats or a list of equal-length lists of
    floats, as the float array of its values, and say whether it did.  It
    does not when a value is not exactly a float: ``_write`` writes those
    one at a time."""
    if set(map(type, obj)) <= {list, tuple}:
        width = len(obj[0])
        if not width or set(map(len, obj)) != {width}:
            return False
        values = chain.from_iterable(obj)
    else:
        values = obj
    if set(map(type, values)) != {float}:
        return False
    _write_array(np.array(obj), indent, emit)
    return True


def _write_array(arr: np.ndarray, indent: int, emit) -> None:
    """Write a non-empty 1-D or 2-D float array as the nested list of its
    floats, one %-template per ``ROW_BLOCK`` of its rows, filled from a
    flat list of that block's floats."""
    inner = "\n" + "  " * (indent + 1)
    close = "\n" + "  " * indent + "]"
    if arr.ndim == 1:
        head, seps = f"[{inner}", [f",{inner}"]
    else:
        row = inner + "  "
        head, close = f"[{inner}[{row}", f"{inner}]{close}"
        seps = ([f",{row}"] * (arr.shape[1] - 1)
                + [f"{inner}],{inner}[{row}"])
    for start in range(0, len(arr), ROW_BLOCK):
        block = arr[start:start + ROW_BLOCK]
        values = block.ravel().tolist()
        after = seps * len(block)
        if start + ROW_BLOCK >= len(arr):
            after[-1] = close
        formats = _float_formats(values)        # refuses inf and nan
        if any(map(float.is_integer, values)):
            template = head + "".join(chain.from_iterable(zip(formats,
                                                              after)))
        else:
            # every format is %.17g: one join puts one after the head and
            # after each separator but the last
            template = _FLOAT_FORMAT[0].join([head, *after])
        emit(template % tuple(values))
        head = ""


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
