"""Built-in chart+metric catalog and the metric definition file loader.

Catalog entries are stored in the same text format the loader accepts::

    name <identifier>
    dim <n>
    coords <x1> ... <xn>
    signature <r> <s>
    const <NAME>=<value>        (zero or more, none named like a coordinate)
    domain <xi> <lo> <hi>       (one per coordinate)
    g <a> <b> = <expression>    (1-based, a <= b; missing entries are zero)

Blank lines and '#' comments are ignored.  Only the upper triangle may
be given; symmetry is enforced by construction.  The timelike component
carries -1 in the metric and is listed last, so factorizations put the
imaginary unit on the final form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .chart import Chart
from .errors import ChartError, ManifoldFormatError, ParseError
from . import expr as ex
from .expr import Expr, parse_expr
from .geometry import VERDICT_CLOSED_FLAT, VERDICT_CURVED
from .tensor import MetricField


@dataclass(frozen=True)
class ReferenceValue:
    """A known quantity of a catalog manifold, with how we know it."""

    name: str
    value_source: str      # expression over chart coordinates and constants
    provenance: str
    rel_tol: float = 1e-8


@dataclass
class ManifoldSpec:
    name: str
    chart: Chart
    metric_source: dict[tuple[int, int], str]   # 0-based upper triangle
    metric_entries: dict[tuple[int, int], Expr]  # the same, parsed once
    constants: dict[str, float] = field(default_factory=dict)
    expected_verdict: str | None = None
    expected_flat: bool | None = None           # does the curvature vanish?
    references: tuple[ReferenceValue, ...] = ()

    def metric(self) -> MetricField:
        """The metric of the components the loader parsed."""
        comps = np.full((self.chart.dim,) * 2, ex.ZERO, dtype=object)
        for (a, b), entry in self.metric_entries.items():
            comps[a, b] = entry
        return MetricField(self.chart, comps)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _split_directive(line: str):
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None, None
    head, _, rest = stripped.partition(" ")
    return head, rest.strip()


def loads(text: str, origin: str = "<string>") -> ManifoldSpec:
    name = None
    dim = None
    coords: tuple[str, ...] | None = None
    signature = None
    constants: dict[str, float] = {}
    domains: dict[str, tuple[float, float]] = {}
    entries: dict[tuple[int, int], tuple[str, int]] = {}
    first: dict = {}    # what a line sets -> the line that set it

    def once(key, what: str) -> None:
        """A second line setting ``key`` is an error, not an override."""
        if key in first:
            raise ManifoldFormatError(f"{what} repeats line {first[key]}",
                                      lineno)
        first[key] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        head, rest = _split_directive(raw)
        if head is None:
            continue
        try:
            if head in ("name", "dim", "coords", "signature"):
                once(head, f"'{head}'")
            if head == "name":
                name = rest
            elif head == "dim":
                dim = int(rest)
                if dim < 1:
                    raise ValueError
            elif head == "coords":
                coords = tuple(rest.split())
            elif head == "signature":
                r, s = rest.split()
                signature = (int(r), int(s))
            elif head == "const":
                cname, _, cval = rest.partition("=")
                cname = cname.strip()
                if not cname:
                    raise ValueError
                once(("const", cname), f"constant '{cname}'")
                constants[cname] = float(cval)
                if not math.isfinite(constants[cname]):
                    raise ManifoldFormatError(
                        f"constant '{cname}' is not finite", lineno)
            elif head == "domain":
                cname, lo, hi = rest.split()
                once(("domain", cname), f"domain of '{cname}'")
                domains[cname] = (float(lo), float(hi))
            elif head == "g":
                lhs, _, source = rest.partition("=")
                if not source.strip():
                    raise ManifoldFormatError("metric entry needs '= <expr>'",
                                              lineno)
                a_s, b_s = lhs.split()
                a, b = int(a_s), int(b_s)
                if dim is None:
                    raise ManifoldFormatError(
                        "metric entries must follow the dim line", lineno)
                if not (1 <= a <= dim and 1 <= b <= dim):
                    raise ManifoldFormatError(
                        f"index ({a},{b}) outside dimension {dim}", lineno)
                if a > b:
                    raise ManifoldFormatError(
                        f"entry ({a},{b}) is below the diagonal; files store "
                        "the upper triangle only", lineno)
                key = (a - 1, b - 1)
                if key in entries:
                    raise ManifoldFormatError(
                        f"duplicate metric entry ({a},{b})", lineno)
                entries[key] = (source.strip(), lineno)
            else:
                raise ManifoldFormatError(f"unknown directive '{head}'",
                                          lineno)
        except ManifoldFormatError:
            raise
        except (ValueError, TypeError):
            raise ManifoldFormatError(
                f"malformed '{head}' directive", lineno) from None

    if name is None:
        raise ManifoldFormatError(f"{origin}: missing 'name'", 0)
    if dim is None or coords is None or signature is None:
        raise ManifoldFormatError(f"{origin}: needs dim, coords, signature", 0)
    if len(coords) != dim:
        raise ManifoldFormatError(
            f"{origin}: {len(coords)} coordinates for dim {dim}", 0)
    missing = [c for c in coords if c not in domains]
    if missing:
        raise ManifoldFormatError(
            f"{origin}: missing domain for {missing}", 0)
    extra = set(domains) - set(coords)
    if extra:
        raise ManifoldFormatError(
            f"{origin}: domain for unknown coordinate {sorted(extra)}", 0)
    for cname in coords:
        if cname in constants:
            raise ManifoldFormatError(
                f"constant '{cname}' shares the name of a coordinate",
                first["const", cname])
    try:
        chart = Chart(coords, signature, tuple(domains[c] for c in coords))
    except ChartError as exc:
        raise ManifoldFormatError(f"{origin}: {exc}", 0) from None

    parsed: dict[tuple[int, int], Expr] = {}
    for key, (source, lineno) in entries.items():
        try:
            parsed[key] = parse_expr(source, chart, constants)
        except ParseError as exc:
            raise ManifoldFormatError(str(exc), lineno) from None
    if not parsed:
        raise ManifoldFormatError(f"{origin}: no metric entries", 0)
    return ManifoldSpec(name, chart, {key: source for key, (source, _)
                                      in entries.items()}, parsed, constants)


def load_file(path: str) -> ManifoldSpec:
    """The metric definition file at ``path``; ChartError naming it when
    it cannot be read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = (exc.strerror if isinstance(exc, OSError)
                  else "not UTF-8 text")
        raise ChartError(f"cannot read '{path}': {reason}") from None
    return loads(text, origin=path)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_CATALOG_TEXT = {
    "euclidean2-cartesian": """
        name euclidean2-cartesian
        dim 2
        coords x y
        signature 2 0
        domain x -2 2
        domain y -2 2
        g 1 1 = 1
        g 2 2 = 1
    """,
    "euclidean3-cartesian": """
        name euclidean3-cartesian
        dim 3
        coords x y z
        signature 3 0
        domain x -2 2
        domain y -2 2
        domain z -2 2
        g 1 1 = 1
        g 2 2 = 1
        g 3 3 = 1
    """,
    "euclidean3-spherical": """
        name euclidean3-spherical
        dim 3
        coords rho theta phi
        signature 3 0
        domain rho 0.5 3
        domain theta 0.4 2.7
        domain phi 0 7
        g 1 1 = 1
        g 2 2 = rho^2
        g 3 3 = rho^2 * sin(theta)^2
    """,
    "minkowski": """
        name minkowski
        dim 4
        coords x y z t
        signature 3 1
        domain x -2 2
        domain y -2 2
        domain z -2 2
        domain t -2 2
        g 1 1 = 1
        g 2 2 = 1
        g 3 3 = 1
        g 4 4 = -1
    """,
    "minkowski-cylindrical": """
        name minkowski-cylindrical
        dim 4
        coords r phi z t
        signature 3 1
        domain r 0.5 3
        domain phi 0 7
        domain z -2 2
        domain t -2 2
        g 1 1 = 1
        g 2 2 = r^2
        g 3 3 = 1
        g 4 4 = -1
    """,
    "sphere2": """
        name sphere2
        dim 2
        coords theta phi
        signature 2 0
        const r=1.0
        domain theta 0.4 2.7
        domain phi 0 7
        g 1 1 = r^2
        g 2 2 = r^2 * sin(theta)^2
    """,
    "schwarzschild": """
        name schwarzschild
        dim 4
        coords r theta phi t
        signature 3 1
        const M=1.0
        domain r 2.6 8
        domain theta 0.4 2.7
        domain phi 0 7
        domain t -2 2
        g 1 1 = 1 / (1 - 2*M/r)
        g 2 2 = r^2
        g 3 3 = r^2 * sin(theta)^2
        g 4 4 = -(1 - 2*M/r)
    """,
    "flrw-flat": """
        name flrw-flat
        dim 4
        coords x y z t
        signature 3 1
        domain x -2 2
        domain y -2 2
        domain z -2 2
        domain t 0.5 3
        g 1 1 = t^2
        g 2 2 = t^2
        g 3 3 = t^2
        g 4 4 = -1
    """,
}

_CATALOG_EXPECTATIONS = {
    # (verdict by the form criterion, curvature vanishes?)
    "euclidean2-cartesian": (VERDICT_CLOSED_FLAT, True, (
        ReferenceValue("riemann_max_abs", "0", "constant metric"),)),
    "euclidean3-cartesian": (VERDICT_CLOSED_FLAT, True, (
        ReferenceValue("riemann_max_abs", "0", "constant metric"),)),
    "euclidean3-spherical": (VERDICT_CURVED, True, (
        ReferenceValue("riemann_max_abs", "0",
                       "curvilinear chart of flat space"),)),
    "minkowski": (VERDICT_CLOSED_FLAT, True, (
        ReferenceValue("riemann_max_abs", "0", "constant metric"),)),
    "minkowski-cylindrical": (VERDICT_CURVED, True, (
        ReferenceValue("riemann_max_abs", "0",
                       "curvilinear chart of flat spacetime"),)),
    "sphere2": (VERDICT_CURVED, False, (
        ReferenceValue("scalar_curvature", "2 / r^2",
                       "hand-derived via the classical route"),
        ReferenceValue("riemann_component_0101", "r^2 * sin(theta)^2",
                       "hand-derived via the classical route"),
        ReferenceValue("current_component_1_1", "-(1 / (r * sin(theta)))",
                       "hand-derived covariant divergence of dA"),)),
    "schwarzschild": (VERDICT_CURVED, False, (
        ReferenceValue("ricci_max_abs", "0", "vacuum solution"),)),
    "flrw-flat": (VERDICT_CURVED, False, (
        ReferenceValue("scalar_curvature", "6 / t^2",
                       "hand-derived via the classical route"),)),
}

CATALOG_NAMES = tuple(_CATALOG_TEXT)


def _catalog_entry(name: str) -> ManifoldSpec:
    """The built-in manifold ``name``, with its expectations."""
    spec = loads(_CATALOG_TEXT[name], origin=f"<catalog:{name}>")
    (spec.expected_verdict, spec.expected_flat,
     spec.references) = _CATALOG_EXPECTATIONS[name]
    return spec


def load_catalog() -> list[ManifoldSpec]:
    """All built-in manifolds, in a fixed order."""
    return list(map(_catalog_entry, CATALOG_NAMES))


def get_manifold(ref: str) -> ManifoldSpec:
    """Resolve a catalog name or a metric definition file path."""
    if ref in _CATALOG_TEXT:
        return _catalog_entry(ref)
    if os.path.exists(ref):
        return load_file(ref)
    raise ChartError(
        f"'{ref}' is neither a catalog manifold {list(CATALOG_NAMES)} "
        "nor a readable file")
