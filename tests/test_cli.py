import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from metricforms.cli import (
    EXIT_IDENTITY,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)

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

# constant folding turns 1e200 * 1e150 into inf, so every derived tensor
# evaluates to inf or nan; each command's message names the first one it
# evaluates, with its component
NON_FINITE_CASES = [
    (["analyze", "--json"], "non-finite value in form_tensor component"),
    (["check"], "non-finite value in form_tensor component"),
    (["classify", "--json"], "non-finite value in curl component"),
    (["factor", "--json"], "non-finite value in form_tensor component"),
    # the inverse metric's multiply-back check comes first here
    (["geodesic", "--start", "1,1", "--velocity", "1,0", "--steps", "5",
      "--json"], "metric is singular"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    # the first overflows in a power, the second multiplies an exact
    # 10^400 by a float
    @pytest.mark.parametrize("g11", ["1e200 * x^2", "10^400 * x^2"])
    def test_overflowing_user_metric_is_numeric_fault(self, capsys,
                                                      tmp_path, g11):
        path = tmp_path / "overflow.metric"
        path.write_text(f"""
name overflow
dim 2
coords x y
signature 2 0
domain x 0.5 2
domain y -1 1
g 1 1 = {g11}
g 2 2 = 1
""")
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_NUMERIC
        assert "overflow" in err
        assert "Traceback" not in err

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
