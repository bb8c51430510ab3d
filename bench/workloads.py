"""The benchmark's workloads: the CLI calls of one pass, and the check of
each call's output.

A pass is a list of operations.  Each operation is one argument vector for
``metricforms.cli.main`` plus what its output must satisfy.  Operations are
a pure function of (workload, seed), so the same seed gives the same
inputs.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

METRICS_DIR = Path(__file__).resolve().parent / "metrics"

CATALOG = ("euclidean2-cartesian", "euclidean3-cartesian",
           "euclidean3-spherical", "minkowski", "minkowski-cylindrical",
           "sphere2", "schwarzschild", "flrw-flat")
NONDIAGONAL = (METRICS_DIR / "painleve-gullstrand.metric",
               METRICS_DIR / "kerr-boyer-lindquist.metric")
# vacuum solutions: the classical Ricci tensor must vanish to rounding
VACUUM = ("schwarzschild", "painleve-gullstrand", "kerr-boyer-lindquist")

GEODESIC_STEPS = 2500
GEODESIC_STEP_SIZE = 0.001
# The start and velocity boxes keep every trajectory inside the
# Schwarzschild chart (r in (2.6, 8), t in (-2, 2)) for all 2500 steps:
# t ends near 1.4 from the box centre and below 1.52 from every corner.
GEODESIC_START = ((5.0, 0.1), (1.3, 0.1), (1.0, 0.1), (-1.8, 0.05))
GEODESIC_VELOCITY = ((0.12, 0.02), (0.03, 0.02), (0.06, 0.02), (1.3, 0.02))
NORM_DRIFT_MAX = 1e-6
VACUUM_RICCI_REL = 1e-8

WORKLOADS = ("catalog", "nondiagonal", "geodesic")


@dataclass(frozen=True)
class Operation:
    kind: str           # "analyze" or "geodesic"
    target: str         # catalog name or metric file path
    argv: tuple[str, ...]


def _draw(rng: random.Random, box) -> str:
    return ",".join(repr(round(c + rng.uniform(-w, w), 6)) for c, w in box)


def operations(workload: str, seed: int) -> list[Operation]:
    """The operation list of one pass of ``workload`` at ``seed``."""
    if workload == "catalog":
        targets = CATALOG
    elif workload == "nondiagonal":
        targets = tuple(str(p) for p in NONDIAGONAL)
    elif workload == "geodesic":
        rng = random.Random(seed)
        start = _draw(rng, GEODESIC_START)
        velocity = _draw(rng, GEODESIC_VELOCITY)
        argv = ("geodesic", "schwarzschild", "--seed", str(seed),
                "--steps", str(GEODESIC_STEPS),
                "--step-size", str(GEODESIC_STEP_SIZE),
                "--start", start, "--velocity", velocity, "--json")
        return [Operation("geodesic", "schwarzschild", argv)]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return [Operation("analyze", t,
                      ("analyze", t, "--seed", str(seed), "--json"))
            for t in targets]


def check(op: Operation, code, stdout: str, specs: dict) -> list[str]:
    """Reasons the operation's output is wrong; empty when it is right.

    ``specs`` maps each target to its resolved ``ManifoldSpec``.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        if op.kind == "geodesic":
            return _check_geodesic(doc)
        return _check_analysis(doc, specs[op.target])
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_analysis(doc: dict, spec) -> list[str]:
    # imported here: the parent process imports this module without
    # metricforms on its path
    import jsonschema
    from metricforms import REPORT_SCHEMA

    try:
        jsonschema.validate(doc, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"report does not match the schema: {exc.message}"]
    bad = []
    if doc["overall_pass"] is not True:
        bad.append("overall_pass is false")
    expected = spec.expected_verdict
    if expected is not None and doc["classification"]["verdict"] != expected:
        bad.append(f"verdict {doc['classification']['verdict']} "
                   f"!= expected {expected}")
    if spec.name in VACUUM:
        tensors = {t["name"]: t["max_abs"] for t in doc["tensors"]}
        limit = VACUUM_RICCI_REL * max(1.0, tensors["riemann_classical"])
        if tensors["ricci_classical"] > limit:
            bad.append(f"vacuum Ricci {tensors['ricci_classical']:.3e} "
                       f"> {limit:.3e}")
    return bad


def _check_geodesic(doc: dict) -> list[str]:
    bad = []
    for route in ("classical", "factored"):
        traj = doc[route]
        if traj["exited_domain"]:
            bad.append(f"{route} trajectory left the chart")
        if not len(traj["x"]) == len(traj["u"]) == GEODESIC_STEPS + 1:
            bad.append(f"{route} trajectory has {len(traj['x'])} samples, "
                       f"not {GEODESIC_STEPS + 1}")
    if len(doc["s"]) != GEODESIC_STEPS + 1:
        bad.append(f"{len(doc['s'])} parameter samples")
    if not doc["norm_drift"] <= NORM_DRIFT_MAX:
        bad.append(f"norm drift {doc['norm_drift']:.3e} > {NORM_DRIFT_MAX}")
    return bad
