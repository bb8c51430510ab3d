"""The non-diagonal stress metrics through the full identity suite.

Painleve-Gullstrand and Kerr are the metrics that take the ``ldl``
factorization and the inverse built from it.  Both are vacuum solutions,
so the classical Ricci tensor must vanish to rounding relative to the
Riemann scale.  A fully dense 4-D metric, every entry non-zero, runs the
same suite.  The runs happen in a fresh interpreter, once before and once after
a catalog analysis, so the canonical report can be shown not to depend on
what the process built earlier.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metricforms
from metricforms import get_manifold
from metricforms.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
STRESS = ("painleve-gullstrand.metric", "kerr-boyer-lindquist.metric")
PROBE = ["analyze", "sphere2", "--seed", "3", "--json"]

_RUNNER = """
import contextlib, io, json, sys
from metricforms.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def runs():
    """Exit code and stdout of: the probe, each stress analysis, the probe
    again, all in one fresh process."""
    argvs = ([PROBE]
             + [["analyze", str(DATA / name), "--seed", "3", "--json"]
                for name in STRESS]
             + [PROBE])
    src = str(Path(metricforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("index", [1, 2], ids=STRESS)
def test_stress_metric_passes_full_suite(runs, index):
    code, out = runs[index]
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["strategy"] == "ldl"
    assert doc["overall_pass"] is True
    tensors = {t["name"]: t["max_abs"] for t in doc["tensors"]}
    assert tensors["ricci_classical"] <= 1e-8 * max(
        1.0, tensors["riemann_classical"])


def test_report_does_not_depend_on_process_history(runs):
    (code_first, first), (code_after, after) = runs[0], runs[-1]
    assert code_first == code_after == EXIT_OK
    assert first == after


def test_dense_metric_passes_full_suite(capsys):
    path = str(DATA / "dense-4d.metric")
    g = get_manifold(path).metric()
    for point in g.chart.sample_points(5, seed=1):
        assert (g.evaluate(point) != 0).all()
    assert main(["check", path, "--strategy", "ldl"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("PASS  overall\n")
