import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import metricforms
from metricforms import cli
from metricforms.cli import (
    EXIT_IDENTITY,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from metricforms.expr import MAX_NESTING

from conftest import NON_FINITE_FILE

GOOD_FILE = """
name stretched-plane
dim 2
coords u v
signature 2 0
const k=2.0
domain u -1 1
domain v -1 1
g 1 1 = 1 + k * u^2
g 2 2 = 1
"""

BIG_SPHERE_FILE = """
name sphere-radius-1000
dim 2
coords theta phi
signature 2 0
domain theta 0.4 2.7
domain phi 0 7
g 1 1 = 1000000
g 2 2 = 1000000 * sin(theta)^2
"""

# a second const line for k would silently replace the first
REPEATED_CONST_FILE = GOOD_FILE.replace("const k=2.0",
                                        "const k=2.0\nconst k=5.0")

# g = [[0, -1/2], [-1/2, 0]] is regular, but no symmetric pivot order
# gives its LDL factorization a nonzero first pivot
NULL_FILE = """
name null
dim 2
coords u v
signature 1 1
domain u -1 1
domain v -1 1
g 1 2 = -0.5
"""

# finite metric values whose form determinant, 1e500, is not
HUGE_FILE = """
name huge
dim 4
coords a b c d
signature 4 0
domain a 0.5 2
domain b 0.5 2
domain c 0.5 2
domain d 0.5 2
g 1 1 = 1e250
g 2 2 = 1e250
g 3 3 = 1e250
g 4 4 = 1e250
"""

# |det g| = 1e-16, but the metric is as regular as the identity
SMALL_FILE = ("name small\ndim 4\ncoords a b c d\nsignature 4 0\n"
              + "".join(f"domain {c} -1 1\n" for c in "abcd")
              + "".join(f"g {k} {k} = 1e-4\n" for k in range(1, 5)))

# constant folding leaves 1e200 * 1e150 unfolded, and it evaluates to inf,
# so every derived tensor evaluates to inf or nan; each command's message
# names the first one it evaluates, with its component
NON_FINITE_CASES = [
    (["analyze", "--json"], "non-finite value in forms component"),
    (["check"], "non-finite value in forms component"),
    (["classify", "--json"], "non-finite value in curl component"),
    (["factor", "--json"], "non-finite value in forms component"),
    # the inverse metric's check of the metric values comes first here
    (["geodesic", "--start", "1,1", "--velocity", "1,0", "--steps", "5",
      "--json"],
     "non-finite value in metric component (1, 1) '1e+200 * x * y * 1e+150'"),
    # factoring at one point evaluates outside the session
    (["factor", "--point", "1,1", "--json"],
     "non-finite value in metric component (1, 1) '1e+200 * x * y * 1e+150'"),
    (["factor", "--point", "1,1"],
     "non-finite value in metric component (1, 1) '1e+200 * x * y * 1e+150'"),
    (["factor", "--point", "1,1", "--strategy", "numeric"],
     "non-finite value in metric component (1, 1) '1e+200 * x * y * 1e+150'"),
]


# a metric file per fault of the metric's values: (text, a point in its
# domain, exit code, stderr pattern)
METRIC_FAULTS = {
    "non-finite": (NON_FINITE_FILE, "1,1", EXIT_NUMERIC,
                   r"numeric fault: overflow to a non-finite value in \w+ "
                   r"component .*"),
    "non-real": (GOOD_FILE.replace("1 + k * u^2", "sqrt(u - 2)"), "0,0",
                 EXIT_INPUT,
                 r"input error: metric evaluated to a non-real matrix"),
    "singular": (GOOD_FILE.replace("1 + k * u^2", "1")
                 .replace("g 2 2 = 1", "g 1 2 = 1\ng 2 2 = 1"), "0,0",
                 EXIT_NUMERIC, r"numeric fault: metric is singular at \{.*\}"),
    "zero-row": (GOOD_FILE.replace("1 + k * u^2", "0"), "0,0", EXIT_NUMERIC,
                 r"numeric fault: metric is singular at \{.*\}"),
}

OVERFLOWING_G11 = ["1e200 * x^2", "10^400 * x^2", "10^400 + x^2",
                   "x / 10^400 + 1", "10^400", "10^400 * 1.5 + x^2",
                   "2^20000 * x^2 + 1", "2^100000000000 * x^2"]
# computed exactly, this power takes unbounded time and memory, so it
# runs only in a child process with limits on both
UNBOUNDED_POWER = OVERFLOWING_G11[-1]


# an entry nested ``depth`` levels deep by each kind the parser counts;
# calls of a constant fold, so a file at the bound checks quickly
NESTED_G11 = {
    "parenthesis": lambda depth: "(" * depth + "2 + x^2" + ")" * depth,
    "call": lambda depth: "2 + x^2 + " + "sin(" * depth + "1" + ")" * depth,
    "minus": lambda depth: "3 + " + "-" * depth + "x",
}

SPHERE_GEODESIC = ["geodesic", "sphere2", "--start", "1.5,0.4",
                   "--velocity", "0,1"]

# each option value outside its range, with the option named in the error
OUT_OF_RANGE = [
    *[([command, "sphere2", "--seed", "-1"], "--seed")
      for command in ("check", "analyze", "factor", "classify")],
    (SPHERE_GEODESIC + ["--seed", "-1"], "--seed"),
    (["check", "sphere2", "--points", "0"], "--points"),
    (["classify", "sphere2", "--points", "-2"], "--points"),
    (["analyze", "sphere2", "--json", "--tol-scale", "nan"], "--tol-scale"),
    (["analyze", "sphere2", "--json", "--tol-scale", "inf"], "--tol-scale"),
    (["analyze", "sphere2", "--json", "--tol-scale", "-1"], "--tol-scale"),
    (["check", "sphere2", "--tol-scale", "0"], "--tol-scale"),
    (SPHERE_GEODESIC + ["--steps", "-3", "--json"], "--steps"),
    (SPHERE_GEODESIC + ["--steps", "0", "--json"], "--steps"),
    (SPHERE_GEODESIC + ["--steps", "3", "--step-size", "nan", "--json"],
     "--step-size"),
    (SPHERE_GEODESIC + ["--steps", "3", "--step-size", "0", "--json"],
     "--step-size"),
]

# each vector option with a field that is not finite or is empty
BAD_VECTORS = [
    *[(["geodesic", "sphere2", "--start", start, "--velocity", "0,1"],
       "--start") for start in ("nan,0.4", "1.5,inf", "1e400,0.4", "1.5,")],
    *[(["geodesic", "sphere2", "--start", "1.5,0.4", "--velocity", velocity],
       "--velocity") for velocity in ("inf,1", "nan,1", "1,-1e400", "1,,0",
                                      ",1")],
    *[(["factor", "sphere2", "--point", point] + extra, "--point")
      for point in ("nan,1", "1,inf", "1e400,1", "1, ")
      for extra in ([], ["--strategy", "numeric"])],
]


def overflow_text(g11):
    """A metric on x in (0.5, 2) whose g 1 1 entry is ``g11``."""
    return f"""
name overflow
dim 2
coords x y
signature 2 0
domain x 0.5 2
domain y -1 1
g 1 1 = {g11}
g 2 2 = 1
"""


def _overflow_file(tmp_path, g11):
    path = tmp_path / "overflow.metric"
    path.write_text(overflow_text(g11))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def nested_calls_text(inner, depth):
    """A metric on x in (0.5, 1) with ``inner`` under ``depth`` calls of
    sin."""
    return f"""
name nested-calls
dim 2
coords x y
signature 2 0
domain x 0.5 1
domain y -1 1
g 1 1 = 3 + {"sin(" * depth}{inner}{")" * depth}
g 2 2 = 1
"""


def _nested_calls_file(tmp_path, inner, depth):
    path = tmp_path / "nested-calls.metric"
    path.write_text(nested_calls_text(inner, depth))
    return path


class TestFactor:
    def test_minkowski_point_gives_signature_roots(self, capsys):
        code, out, err = run(capsys, "factor", "minkowski",
                             "--point", "1,0,0,0")
        assert code == EXIT_OK
        assert "0+1i" in out
        assert "residual |V Vt - g| = 0.000e+00" in out

    def test_symbolic_output(self, capsys):
        code, out, err = run(capsys, "factor", "sphere2")
        assert code == EXIT_OK
        assert "A_1" in out and "A_2" in out
        assert "PASS" in out

    def test_json_point_serializes_complex_pairs(self, capsys):
        code, out, err = run(capsys, "factor", "minkowski",
                             "--point", "0,0,0,0", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["factor_matrix"][3][3] == [0.0, 1.0]
        assert doc["residual"] == 0.0

    def test_numeric_needs_point(self, capsys):
        code, out, err = run(capsys, "factor", "minkowski",
                             "--strategy", "numeric")
        assert code == EXIT_INPUT
        assert "point" in err

    def test_wrong_point_arity(self, capsys):
        code, out, err = run(capsys, "factor", "minkowski", "--point", "1,2")
        assert code == EXIT_INPUT


class TestAnalyze:
    def test_human_report(self, capsys):
        code, out, err = run(capsys, "analyze", "sphere2",
                             "--strategy", "diagonal", "--seed", "42")
        assert code == EXIT_OK
        assert "christoffel_route_agreement" in out
        assert "overall: PASS" in out

    def test_json_deterministic(self, capsys):
        args = ("analyze", "sphere2", "--seed", "42", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["overall_pass"] is True
        assert doc["schema"] == "metricforms-report/1"

    def test_json_validates_against_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from metricforms import REPORT_SCHEMA

        code, out, err = run(capsys, "analyze", "schwarzschild", "--json")
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_numeric_strategy_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "sphere2",
                             "--strategy", "numeric")
        assert code == EXIT_INPUT

    def test_tol_scale_reaches_classification(self, capsys):
        code, out, err = run(capsys, "analyze", "sphere2", "--json",
                             "--tol-scale", "10")
        assert code == EXIT_OK
        doc = json.loads(out)["classification"]
        assert doc["form_tolerance"] == pytest.approx(1e-7, rel=1e-12)
        assert doc["riemann_tolerance"] == pytest.approx(1e-7, rel=1e-12)

    def test_tol_scale_impossible_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "analyze", "sphere2",
                             "--tol-scale", "1e-20")
        assert code == EXIT_IDENTITY


class TestCheck:
    def test_flat_exact_case_exit_zero(self, capsys):
        code, out, err = run(capsys, "check", "euclidean3-cartesian")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert all(l.startswith("PASS") for l in lines)

    def test_every_catalog_manifold(self, capsys, catalog):
        for name in catalog:
            code, out, err = run(capsys, "check", name, "--points", "6")
            assert code == EXIT_OK, name

    def test_tol_scale_applies_to_the_factorization_verdict(self, capsys,
                                                           tmp_path):
        # the reconstruction residual of a radius-1000 sphere is just above
        # 1e-10; the scaled bound must decide the overall verdict as it
        # decides the row
        path = tmp_path / "big-sphere.metric"
        path.write_text(BIG_SPHERE_FILE)
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_IDENTITY
        failed = [l.split()[1] for l in out.splitlines()
                  if l.startswith("FAIL")]
        assert failed == ["factorization_reconstruction", "overall"]
        code, out, err = run(capsys, "check", str(path), "--tol-scale", "10")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "PASS  overall"


class TestClassify:
    def test_verdict_lines(self, capsys):
        code, out, _ = run(capsys, "classify", "sphere2")
        assert code == EXIT_OK
        assert "CURVED" in out
        code, out, _ = run(capsys, "classify", "minkowski")
        assert "CLOSED_FLAT" in out

    def test_caveat_case_prints_both_statuses(self, capsys):
        code, out, _ = run(capsys, "classify", "minkowski-cylindrical")
        assert code == EXIT_OK
        assert "CURVED" in out
        assert "max|dA|" in out and "max|Riemann|" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "euclidean3-spherical",
                           "--json")
        doc = json.loads(out)
        assert doc["verdict"] == "CURVED"
        assert doc["max_riemann"] <= 1e-8


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    # the parser built once per process gives each of these calls, in
    # turn and again, the exit code and bytes a fresh parser gives it
    out_path = tmp_path / "traj.csv"
    calls = [["analyze", "sphere2", "--json", "--points", "3"],
             ["check", "euclidean3-spherical", "--tol-scale", "10",
              "--points", "3"],
             SPHERE_GEODESIC + ["--steps", "20", "--step-size", "0.01",
                                "--out", str(out_path)],
             ["check", "sphere2", "--points", "0"]]

    def outputs():
        got = []
        for argv in calls * 2:
            out_path.unlink(missing_ok=True)
            got.append((*run(capsys, *argv), out_path.exists()
                        and out_path.read_bytes()))
        return got

    cached = outputs()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == outputs()
    assert [code for code, *_ in cached] == [EXIT_OK, EXIT_OK, EXIT_OK,
                                             EXIT_INPUT] * 2


def test_no_command_loads_numpy_random():
    # the sample points come from the chart's own PCG64 stream; this test
    # process has loaded numpy.random through Hypothesis and the oracles,
    # so the commands run in a fresh interpreter
    child = (
        "import contextlib, io, json, sys\n"
        "from metricforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n")
    argvs = [["analyze", "sphere2", "--json"], ["check", "sphere2"],
             ["factor", "sphere2", "--json"], ["classify", "sphere2"],
             SPHERE_GEODESIC + ["--steps", "20", "--json"]]
    src = os.path.dirname(os.path.dirname(metricforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[EXIT_OK] * 5, False]


class TestGeodesic:
    def test_trajectory_file(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "geodesic", "sphere2",
                           "--start", "1.5707963,0.4", "--velocity", "0,1",
                           "--steps", "50", "--step-size", "0.01",
                           "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("s,x_theta,x_phi")
        assert len(lines) == 52   # header + start + 50 steps

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "geodesic", "euclidean2-cartesian",
                           "--start", "0,0", "--velocity", "1,0",
                           "--steps", "10", "--step-size", "0.01", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["route_divergence"] <= 1e-6
        assert len(doc["classical"]["x"]) == 11

    def test_no_step_inside_the_domain_is_numeric_fault(self, capsys):
        # the first step leaves the chart: the routes have nothing to compare
        code, out, err = run(capsys, *SPHERE_GEODESIC, "--steps", "3",
                             "--step-size", "1e5")
        assert code == EXIT_NUMERIC
        assert ("the geodesic from [1.5, 0.4] integrated no step of size "
                "100000.0 inside the chart domain") in err

    @pytest.mark.parametrize("argv", [["analyze", "--json"], ["check"]])
    def test_spot_check_with_no_step_is_numeric_fault(self, capsys, tmp_path,
                                                      argv):
        # the spot check's first step of 0.002 along u leaves the domain
        path = tmp_path / "narrow.metric"
        path.write_text(GOOD_FILE.replace("domain u -1 1",
                                          "domain u 0 0.001"))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert ("the geodesic from [0.0005, 0.0] integrated no step of size "
                "0.002") in err

    def test_start_outside_domain(self, capsys):
        code, out, err = run(capsys, "geodesic", "sphere2",
                             "--start", "5,0.4", "--velocity", "0,1")
        assert code == EXIT_NUMERIC


class TestErrors:
    def test_unknown_metric_is_input_error(self, capsys):
        code, out, err = run(capsys, "check", "nope")
        assert code == EXIT_INPUT

    def test_bad_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.metric"
        path.write_text(GOOD_FILE.replace("signature 2 0", "signature 9 9"))
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_INPUT
        assert "error" in err

    @pytest.mark.parametrize("command", ["check", "factor"])
    def test_repeated_constant_is_input_error(self, capsys, tmp_path,
                                              command):
        path = tmp_path / "repeated.metric"
        path.write_text(REPEATED_CONST_FILE)
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INPUT
        assert err == "input error: line 7: constant 'k' repeats line 6\n"
        assert out == ""

    def test_user_file_works_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "plane.metric"
        path.write_text(GOOD_FILE)
        code, out, err = run(capsys, "check", str(path), "--points", "6")
        assert code == EXIT_OK

    # the metric values the checks reduce over must be real
    @pytest.mark.parametrize("command", ["factor", "analyze"])
    def test_non_real_user_metric_is_input_error(self, capsys, tmp_path,
                                                 command):
        path = tmp_path / "complex.metric"
        path.write_text(GOOD_FILE.replace("1 + k * u^2", "sqrt(u - 2)"))
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INPUT
        assert "non-real" in err

    def test_singular_user_metric_is_numeric_fault(self, capsys, tmp_path):
        path = tmp_path / "singular.metric"
        path.write_text("""
name singular
dim 2
coords x y
signature 2 0
domain x -1 1
domain y -1 1
g 1 1 = 1
g 1 2 = 1
g 2 2 = 1
""")
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_NUMERIC

    # every command reads the metric through one checked reader: each
    # fault gives one line and never a traceback.  A metric with no
    # nonzero pivot fails the symbolic factorization first in the commands
    # that build one.
    @pytest.mark.parametrize("fault", list(METRIC_FAULTS))
    @pytest.mark.parametrize("argv", [
        ["analyze", "--json"], ["check"], ["classify", "--json"],
        ["factor", "--point", "{p}"],
        ["factor", "--point", "{p}", "--strategy", "ldl"],
        ["factor", "--point", "{p}", "--strategy", "numeric"],
        ["geodesic", "--start", "{p}", "--velocity", "1,0", "--steps", "5"],
    ], ids=["analyze", "check", "classify", "factor-auto", "factor-ldl",
            "factor-numeric", "geodesic"])
    def test_metric_fault_in_every_command(self, capsys, tmp_path, fault,
                                           argv):
        text, point, code, message = METRIC_FAULTS[fault]
        path = tmp_path / f"{fault}.metric"
        path.write_text(text)
        argv = [a.replace("{p}", point) for a in argv]
        got, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert got == code
        assert re.fullmatch(message + "\n", err), err
        assert "sample point" not in err

    @pytest.mark.parametrize("argv", [
        ["check"], ["classify"], ["factor", "--point", "0,0,0,0",
                                  "--strategy", "numeric"],
        ["geodesic", "--start", "0,0,0,0", "--velocity", "1,0,0,0",
         "--steps", "5"]], ids=["check", "classify", "factor-numeric",
                                "geodesic"])
    def test_small_regular_metric_is_not_singular(self, capsys, tmp_path,
                                                  argv):
        # |det g| = 1e-16, but the metric is as regular as the identity
        path = tmp_path / "small.metric"
        path.write_text(SMALL_FILE)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (EXIT_OK, "")

    # the first overflows in a power; the next take an exact 10^400
    # into float arithmetic: a product, a sum, a quotient, a square root
    # and a folded constant; the last are integer powers too wide to fold
    @pytest.mark.parametrize("g11", OVERFLOWING_G11[:-1])
    def test_overflowing_user_metric_is_numeric_fault(self, capsys,
                                                      tmp_path, g11):
        path = _overflow_file(tmp_path, g11)
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_NUMERIC
        assert "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["analyze", "--json"],
                                      ["factor", "--json"],
                                      ["classify", "--json"]])
    @pytest.mark.parametrize("g11", OVERFLOWING_G11[1:-1])
    def test_exact_integer_overflow_is_numeric_fault_in_every_command(
            self, capsys, tmp_path, g11, argv):
        path = _overflow_file(tmp_path, g11)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert "overflow" in err
        assert "Traceback" not in err

    def test_unbounded_integer_power_is_numeric_fault(self, tmp_path):
        path = _overflow_file(tmp_path, UNBOUNDED_POWER)
        child = (
            "import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
            "from metricforms.cli import main\n"
            "codes = [main([c, sys.argv[1], *rest]) for c, *rest in\n"
            "         (['check'], ['analyze', '--json'], ['factor', '--json'],\n"
            "          ['classify', '--json'])]\n"
            "print(json.dumps(codes))\n")
        src = os.path.dirname(os.path.dirname(metricforms.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", child, str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert json.loads(done.stdout.splitlines()[-1]) == [EXIT_NUMERIC] * 4
        assert done.stderr.count("overflow in '2^100000000000'") == 4

    def test_overlong_integer_literal_is_parse_error(self, capsys, tmp_path):
        path = _overflow_file(tmp_path, "1 + " + "7" * 5001 + " * x^2")
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_INPUT
        assert "integer literal of 5001 digits is too long (offset 4)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,message", [
        (("domain x 0.5 2", "domain x 0.5 inf"),
         "domain for coordinate 'x' needs finite ends and a finite width"),
        (("domain x 0.5 2", "domain x -1e308 1e308"),
         "domain for coordinate 'x' needs finite ends and a finite width"),
        (("domain y", "const M=1e999\ndomain y"),
         "line 7: constant 'M' is not finite"),
        (("g 1 1 = 1 + x^2", "g 1 1 = 1e999*x"),
         "line 8: number literal out of range (offset 0)"),
    ], ids=["infinite-end", "infinite-width", "const", "literal"])
    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_non_finite_input_number_is_input_error(self, capsys, tmp_path,
                                                     edit, message, command):
        path = _overflow_file(tmp_path, "1 + x^2")
        path.write_text(path.read_text().replace(*edit))
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INPUT
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["check"], ["classify"], ["factor"],
        ["geodesic", "--start", "0,0", "--velocity", "1,0"]])
    def test_null_metric_has_no_nonzero_pivot(self, capsys, tmp_path, argv):
        # g = [[0, -1/2], [-1/2, 0]] is regular, but no symmetric pivot
        # order gives its LDL factorization a nonzero first pivot
        path = tmp_path / "null.metric"
        path.write_text(NULL_FILE)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert "zero pivot at index 0" in err

    def test_function_of_infinity_is_numeric_fault(self, capsys, tmp_path):
        # 1e200 * 1e200 stays unfolded and evaluates to inf, and sin(inf)
        # has no value
        path = tmp_path / "sin-inf.metric"
        path.write_text(GOOD_FILE.replace("1 + k * u^2",
                                          "2 + sin(u * 1e200 * 1e200)"))
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_NUMERIC
        assert "non-finite argument in 'sin(1e+200 * u * 1e+200)'" in err

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_product_folding_to_nan_stays_unfolded(self, capsys, tmp_path,
                                                   command):
        # the constants fold to inf * 0 = nan; left unfolded, the entry
        # evaluates to nan, and the message spells it as written
        path = _overflow_file(tmp_path, "1 + 1e200*1e200*x*0")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_NUMERIC
        assert "1e+200 * 1e+200 * x * 0 + 1" in err
        assert "Traceback" not in err
        assert "inf" not in err and "nan" not in err

    @pytest.mark.parametrize("argv", [["check"], ["analyze", "--json"],
                                      ["factor", "--json"]])
    def test_overflowing_form_determinant_is_numeric_fault(self, capsys,
                                                           tmp_path, argv):
        # finite metric values whose form determinant, 1e500, is not
        path = tmp_path / "huge.metric"
        path.write_text(HUGE_FILE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert "min |det A| over the sample points is inf" in err

    @pytest.mark.parametrize(
        "argv,message", NON_FINITE_CASES,
        ids=[f"argv{k}" for k in range(len(NON_FINITE_CASES))])
    def test_non_finite_user_metric_is_numeric_fault(self, capsys, tmp_path,
                                                     argv, message):
        path = tmp_path / "inf.metric"
        path.write_text(NON_FINITE_FILE)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert message in err
        assert "Traceback" not in err

    def test_non_finite_geodesic_norm_is_numeric_fault(self, capsys,
                                                       tmp_path):
        # a finite metric and velocity whose g(u, u) overflows
        path = tmp_path / "big.metric"
        path.write_text(GOOD_FILE.replace("1 + k * u^2", "1e300"))
        code, out, err = run(capsys, "geodesic", str(path), "--start", "0,0",
                             "--velocity", "1e10,0", "--steps", "5", "--json")
        assert code == EXIT_NUMERIC
        assert "non-finite g(u, u)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,option", OUT_OF_RANGE,
        ids=[f"argv{k}" for k in range(len(OUT_OF_RANGE))])
    def test_out_of_range_option_is_input_error(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert f"error: argument {option}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,option", BAD_VECTORS,
        ids=[f"argv{k}" for k in range(len(BAD_VECTORS))])
    def test_vector_option_must_be_finite_and_full(self, capsys, argv,
                                                   option):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.startswith(f"input error: {option} ")
        assert out == ""

    @pytest.mark.parametrize("kind,depth", [
        *[(kind, MAX_NESTING + 1) for kind in NESTED_G11],
        ("parenthesis", 300), ("call", 300), ("minus", 1200)])
    def test_nesting_past_the_bound_is_input_error(self, capsys, tmp_path,
                                                   kind, depth):
        path = _overflow_file(tmp_path, NESTED_G11[kind](depth))
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_INPUT
        assert f"nested deeper than {MAX_NESTING} levels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(NESTED_G11))
    def test_nesting_at_the_bound_checks(self, capsys, tmp_path, kind):
        path = _overflow_file(tmp_path, NESTED_G11[kind](MAX_NESTING))
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_OK, err

    def test_nested_calls_of_a_coordinate_check(self, capsys, tmp_path):
        # calls of a coordinate do not fold: the derivatives, the tapes
        # and the walks are as deep as the bound allows
        path = _nested_calls_file(tmp_path, "x", MAX_NESTING)
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("argv", [
        ["check"], ["geodesic", "--start", "0.75,0.7", "--velocity", "1,0"]])
    def test_fault_under_nested_calls_is_named(self, capsys, tmp_path,
                                               argv):
        # the derivative of sqrt((x - 0.75)^2) divides by zero at the
        # domain midpoint, where the spot check and this geodesic start;
        # sqrt( and its ( are the last two levels
        path = _nested_calls_file(tmp_path, "sqrt((x - 0.75)^2)",
                                  MAX_NESTING - 2)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert err == ("numeric fault: division by zero in '(2.0 * "
                       "(x - 0.75)) / (2 * sqrt((x - 0.75)^2))'\n")

    def test_usage_error_exits_3(self, capsys):
        code = main(["analyze"])
        capsys.readouterr()
        assert code == EXIT_INPUT


# -- crash-free CLI over generated metric files --------------------------------

_ATOMS = st.one_of(
    st.sampled_from(["x", "y"]),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.integers(min_value=1, max_value=10 ** 6).map(str))


def _combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sqrt", "log", "exp"]), inner)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "(-1)", "(1/2)",
                                          "(-3/2)"]))
        .map(lambda t: f"({t[0]})^{t[1]}"))


_TERMS = st.recursive(_ATOMS, _combine, max_leaves=5)


@given(_TERMS, _TERMS, st.none() | _TERMS)
@settings(max_examples=25, deadline=None)
def test_check_never_crashes_on_generated_metrics(g11, g22, g12):
    lines = ["name generated", "dim 2", "coords x y", "signature 2 0",
             "domain x 0.5 2", "domain y 0.5 2",
             f"g 1 1 = {g11}", f"g 2 2 = {g22}"]
    if g12 is not None:
        lines.append(f"g 1 2 = {g12}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.metric")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    assert code in (EXIT_OK, EXIT_IDENTITY, EXIT_INPUT, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()


# -- crash-free CLI over generated option values ------------------------------

def _option_text(in_range, small=False):
    """Option text: a value in range three times in four, so that whole
    runs are common, else any integer (kept small for the counts that set
    the work), any float or a value a range must reject."""
    numbers = (st.integers(min_value=-3, max_value=3) if small
               else st.integers(min_value=-10 ** 30, max_value=10 ** 30))
    anything = st.one_of(numbers.map(str), st.floats().map(repr),
                         st.sampled_from(["0", "-0", "nan", "inf", "-inf",
                                          "1e400", "2.5", "x"]))
    return st.one_of(in_range, in_range, in_range, anything)


_COUNT_TEXT = _option_text(st.integers(min_value=1, max_value=3).map(str),
                           small=True)


@given(seed=_option_text(st.integers(min_value=0,
                                     max_value=10 ** 30).map(str)),
       points=_COUNT_TEXT,
       tol_scale=_option_text(st.floats(min_value=0, exclude_min=True,
                                        allow_infinity=False).map(repr)),
       steps=_COUNT_TEXT,
       step_size=_option_text(st.floats(allow_nan=False,
                                        allow_infinity=False).map(repr)))
@example(seed="-1", points="3", tol_scale="1", steps="3", step_size="0.001")
@example(seed="0", points="3", tol_scale="nan", steps="3", step_size="0.001")
@example(seed="0", points="3", tol_scale="inf", steps="3", step_size="0.001")
@example(seed="0", points="3", tol_scale="-1", steps="-3", step_size="nan")
@example(seed="0", points="3", tol_scale="1", steps="3", step_size="1e300")
@settings(max_examples=40, deadline=None)
def test_numeric_options_never_crash(seed, points, tol_scale, steps,
                                     step_size):
    for argv in (["check", "sphere2", f"--seed={seed}", f"--points={points}",
                  f"--tol-scale={tol_scale}"],
                 SPHERE_GEODESIC + [f"--seed={seed}", f"--steps={steps}",
                                    f"--step-size={step_size}", "--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_IDENTITY, EXIT_INPUT, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
