import textwrap

import numpy as np
import pytest

from metricforms import get_manifold, load_catalog, load_file, parse_expr
from metricforms.errors import ChartError, ManifoldFormatError
from metricforms.manifolds import loads
from metricforms.tensor import max_abs


def reference_expr(spec, ref):
    """A reference value's source, parsed over the manifold's chart and
    constants: only these tests read it as an expression."""
    return parse_expr(ref.value_source, spec.chart, spec.constants)

GOOD_FILE = """
# a stretched plane
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


class TestLoader:
    def test_good_file_round_trip(self, tmp_path):
        path = tmp_path / "plane.metric"
        path.write_text(GOOD_FILE)
        spec = load_file(str(path))
        assert spec.name == "stretched-plane"
        assert spec.chart.coords == ("u", "v")
        g = spec.metric()
        assert g.evaluate({"u": 0.5, "v": 0.0})[0, 0] \
            == pytest.approx(1 + 2.0 * 0.25)

    def test_constant_line_sets_the_metric(self):
        spec = loads(GOOD_FILE.replace("const k=2.0", "const k=3.0"))
        assert spec.constants == {"k": 3.0}
        g = spec.metric()
        assert g.evaluate({"u": 1.0, "v": 0.0})[0, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constant_rejected(self, value):
        bad = GOOD_FILE.replace("const k=2.0", f"const k={value}")
        with pytest.raises(ManifoldFormatError,
                           match="line 7: constant 'k' is not finite"):
            loads(bad)

    def test_constant_named_like_a_coordinate_rejected(self):
        # a constant u would silently replace the coordinate u
        bad = GOOD_FILE.replace("const k=2.0", "const u=2.0") \
                       .replace("k * u^2", "u^2")
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert err.value.line == 7
        assert "constant 'u'" in str(err.value)

    def test_missing_entries_are_zero(self):
        spec = loads(GOOD_FILE)
        g = spec.metric()
        assert g.evaluate({"u": 0.3, "v": 0.1})[0, 1] == 0.0

    def test_parse_error_reports_line(self):
        bad = GOOD_FILE.replace("g 1 1 = 1 + k * u^2", "g 1 1 = 1 + k * (u")
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert err.value.line == 10

    def test_below_diagonal_rejected(self):
        bad = GOOD_FILE + "g 2 1 = u\n"
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert "upper triangle" in str(err.value)

    def test_dimension_mismatch(self):
        bad = GOOD_FILE.replace("coords u v", "coords u v w")
        with pytest.raises(ManifoldFormatError):
            loads(bad)

    def test_index_out_of_range(self):
        bad = GOOD_FILE + "g 1 3 = u\n"
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert "outside dimension" in str(err.value)

    def test_bad_signature(self):
        bad = GOOD_FILE.replace("signature 2 0", "signature 1 0")
        with pytest.raises(ManifoldFormatError):
            loads(bad)

    def test_missing_domain(self):
        bad = GOOD_FILE.replace("domain v -1 1", "")
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert "domain" in str(err.value)

    def test_unknown_directive(self):
        bad = GOOD_FILE + "frobnicate 1\n"
        with pytest.raises(ManifoldFormatError):
            loads(bad)

    def test_duplicate_entry(self):
        bad = GOOD_FILE + "g 1 1 = 2\n"
        with pytest.raises(ManifoldFormatError):
            loads(bad)

    @pytest.mark.parametrize("line,message", [
        ("const k=5.0", "line 12: constant 'k' repeats line 7"),
        ("domain u 0 3", "line 12: domain of 'u' repeats line 8"),
        ("name other", "line 12: 'name' repeats line 3"),
        ("dim 2", "line 12: 'dim' repeats line 4"),
        ("coords u v", "line 12: 'coords' repeats line 5"),
        ("signature 2 0", "line 12: 'signature' repeats line 6"),
    ], ids=["const", "domain", "name", "dim", "coords", "signature"])
    def test_repeated_line_rejected(self, line, message):
        # a later line would otherwise silently replace the earlier one
        with pytest.raises(ManifoldFormatError) as err:
            loads(GOOD_FILE + line + "\n")
        assert str(err.value) == message

    def test_distinct_constants_and_domains_load(self):
        spec = loads(GOOD_FILE.replace("const k=2.0",
                                       "const k=2.0\nconst m=5.0"))
        assert spec.constants == {"k": 2.0, "m": 5.0}
        assert spec.chart.domains == ((-1.0, 1.0), (-1.0, 1.0))

    def test_unknown_symbol_in_component(self):
        bad = GOOD_FILE.replace("1 + k * u^2", "1 + q * u^2")
        with pytest.raises(ManifoldFormatError) as err:
            loads(bad)
        assert "q" in str(err.value)


class TestCatalog:
    def test_expected_entries_present(self):
        names = [spec.name for spec in load_catalog()]
        assert names == ["euclidean2-cartesian", "euclidean3-cartesian",
                         "euclidean3-spherical", "minkowski",
                         "minkowski-cylindrical", "sphere2", "schwarzschild",
                         "flrw-flat"]

    def test_all_metrics_parse_and_are_symmetric(self):
        for spec in load_catalog():
            g = spec.metric()
            point = spec.chart.sample_points(1, seed=1)[0]
            vals = g.evaluate(point)
            assert max_abs(vals - vals.T) == 0.0, spec.name

    def test_signatures_match_eigenvalues(self):
        for spec in load_catalog():
            g = spec.metric()
            point = spec.chart.sample_points(1, seed=2)[0]
            eigs = np.linalg.eigvalsh(g.evaluate(point))
            r, s = spec.chart.signature
            assert (eigs > 0).sum() == r, spec.name
            assert (eigs < 0).sum() == s, spec.name

    def test_get_manifold_by_name_and_error(self):
        assert get_manifold("sphere2").name == "sphere2"
        with pytest.raises(ChartError):
            get_manifold("no-such-manifold")

    def test_sphere_reference_values(self, sessions, catalog):
        spec = catalog["sphere2"]
        s = sessions("sphere2")
        refs = {ref.name: ref for ref in spec.references}
        r_vals = s.riemann_lower
        j_vals = s.current
        scal = s.scalar
        scal_refs, riem_refs, cur_refs = (
            s.scalar_vals(reference_expr(spec, refs[name])) for name in (
                "scalar_curvature", "riemann_component_0101",
                "current_component_1_1"))
        for k in range(len(s.points)):
            assert scal[k] == pytest.approx(complex(scal_refs[k]), rel=1e-8)
            assert r_vals[k][0, 1, 0, 1] == pytest.approx(
                complex(riem_refs[k]), rel=1e-8)
            assert j_vals[k][1, 1] == pytest.approx(
                complex(cur_refs[k]), rel=1e-8)

    def test_flrw_reference_scalar(self, sessions, catalog):
        spec = catalog["flrw-flat"]
        s = sessions("flrw-flat")
        ref = reference_expr(spec, spec.references[0])
        for got, want in zip(s.scalar, s.scalar_vals(ref)):
            assert got == pytest.approx(complex(want), rel=1e-8)

    def test_zero_references_hold(self, sessions, catalog):
        for name, spec in catalog.items():
            s = sessions(name)
            for ref in spec.references:
                if ref.name == "riemann_max_abs":
                    assert max_abs(s.riemann_lower) <= 1e-8, name
                elif ref.name == "ricci_max_abs":
                    assert max_abs(s.ricci) <= 1e-8, name

    def test_catalog_passes_full_suite(self, catalog):
        from metricforms import run_analysis

        for name, spec in catalog.items():
            report = run_analysis(spec, seed=7, n_points=8)
            assert report.overall_pass, name
