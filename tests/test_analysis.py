import pytest

from metricforms import run_analysis
from metricforms.errors import FactorizationError

EXPECTED_IDENTITIES = [
    "factorization_reconstruction",
    "orthogonality_identity",
    "christoffel_route_agreement",
    "metric_compatibility",
    "sym_derivative_route_agreement",
    "sym_antisym_cancellation",
    "precurrent_pair_antisymmetry",
    "precurrent_cyclic_identity",
    "riemann_antisym_first_pair",
    "riemann_antisym_second_pair",
    "riemann_pair_interchange",
    "riemann_first_bianchi",
    "bianchi_current_part",
    "bianchi_form_part",
    "bianchi_sym_part",
    "decomposition_sum_vs_classical",
    "ricci_factored_vs_classical",
    "scalar_curvature_factored_vs_classical",
    "einstein_split_vs_classical",
    "ricci_decomposition_contraction_consistency",
    "lie_derivative_identity",
    "killing_closed_set",
    "imaginary_residue_physical",
    "contracted_bianchi_classical",
    "geodesic_route_divergence",
    "geodesic_norm_drift",
]


@pytest.fixture(scope="module")
def sphere_report(catalog):
    return run_analysis(catalog["sphere2"], seed=42, n_points=10)


class TestReportShape:
    def test_every_identity_appears_exactly_once(self, sphere_report):
        names = [row.name for row in sphere_report.identities]
        assert names == EXPECTED_IDENTITIES

    def test_reported_rows_are_not_asserted(self, sphere_report):
        reported = {row.name for row in sphere_report.identities
                    if not row.asserted}
        assert reported == {
            "decomposition_sum_vs_classical",
            "ricci_factored_vs_classical",
            "scalar_curvature_factored_vs_classical",
            "einstein_split_vs_classical",
            "ricci_decomposition_contraction_consistency",
            # the sphere's forms are not closed, so S need not vanish
            "killing_closed_set",
        }
        for row in sphere_report.identities:
            if not row.asserted:
                assert row.tolerance is None and row.passed is None
        assert sphere_report.identity("killing_closed_set").residual > 0.5

    def test_closed_set_asserts_killing_row(self, catalog):
        report = run_analysis(catalog["euclidean3-cartesian"], seed=42,
                              n_points=6)
        row = report.identity("killing_closed_set")
        assert row.asserted and row.tolerance == 1e-9 and row.passed

    def test_points_and_seed_recorded(self, sphere_report):
        assert sphere_report.seed == 42
        assert len(sphere_report.points) == 10
        assert all(set(p) == {"theta", "phi"} for p in sphere_report.points)

    def test_decomposition_residual_per_point(self, sphere_report):
        assert len(sphere_report.decomposition_per_point) == 10
        row = sphere_report.identity("decomposition_sum_vs_classical")
        assert row.residual == max(sphere_report.decomposition_per_point)

    def test_tensor_summaries_cover_both_routes(self, sphere_report):
        names = {name for name, _, _ in sphere_report.tensor_summaries}
        assert {"metric", "forms", "christoffel_classical",
                "christoffel_factored", "riemann_classical",
                "riemann_decomposed_sum", "ricci_classical", "ricci_factored",
                "einstein_classical", "stress_form", "stress_current",
                "stress_sym"} <= names

    def test_overall_pass(self, sphere_report):
        assert sphere_report.overall_pass


class TestStrategies:
    def test_ldl_analysis_matches_diagonal(self, catalog):
        report = run_analysis(catalog["sphere2"], strategy="ldl", seed=42,
                              n_points=6)
        assert report.overall_pass
        assert report.strategy == "ldl"

    def test_numeric_strategy_rejected(self, catalog):
        with pytest.raises(FactorizationError):
            run_analysis(catalog["sphere2"], strategy="numeric")

    def test_constant_override_changes_curvature(self, catalog):
        from metricforms import GeometrySession

        report = run_analysis(catalog["sphere2"], seed=42, n_points=6,
                              constants={"r": 2.0})
        assert report.overall_pass
        session = GeometrySession(catalog["sphere2"], seed=42, n_points=4,
                                  constants={"r": 2.0})
        for ev in session._evaluators:
            assert complex(ev(session.scalar)) \
                == pytest.approx(0.5, rel=1e-10)
