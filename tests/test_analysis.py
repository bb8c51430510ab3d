import numpy as np
import pytest

from metricforms import GeometrySession, run_analysis
from metricforms import expr as ex
from metricforms.errors import FactorizationError

from conftest import stacked

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
        for scal in session.scalar_vals(session.scalar):
            assert complex(scal) == pytest.approx(0.5, rel=1e-10)


def _tape_nodes(*tensors):
    """The slots a tape needs for the components of ``tensors``: every
    distinct non-constant node, and each distinct constant component."""
    seen, stack = {}, [e for t in tensors for e in t.comps.flat]
    consts = {id(e) for e in stack if type(e) is ex.Const}
    while stack:
        node = stack.pop()
        if type(node) is not ex.Const and node not in seen:
            seen[node] = None
            stack.extend(node.children())
    return len(seen) + len(consts)


class TestSessionTape:
    def test_tensors_sharing_nodes_grow_the_tape_by_their_union(self,
                                                                catalog):
        session = GeometrySession(catalog["schwarzschild"], seed=5,
                                  n_points=3)
        lower, mixed = session.conn.lower, session.conn.mixed
        assert 0 < _tape_nodes(lower) < _tape_nodes(mixed) \
            < _tape_nodes(lower) + _tape_nodes(mixed)
        tape = session._tape
        session.vals(lower)
        assert len(tape.nodes) == _tape_nodes(lower)
        chunks = len(tape.sources)
        session.vals(mixed)
        assert len(tape.nodes) == _tape_nodes(lower, mixed)
        assert len(tape.sources) > chunks
        # the metric's components are inside the mixed connection
        chunks = len(tape.sources)
        session.vals(session.metric)
        session.scalar_vals(lower.comps[0, 0, 0])
        assert len(tape.nodes) == _tape_nodes(lower, mixed,
                                              session.metric) \
            == _tape_nodes(lower, mixed)
        assert len(tape.sources) == chunks
        assert all(len(v) == len(tape.nodes) for v in session._slots)
        for t in (lower, mixed):
            assert np.array_equal(session.vals(t),
                                  stacked(t.evaluate, session.points))


def test_analysis_compiles_the_metric_into_two_tapes(catalog, monkeypatch):
    # the session's tape and the field's reader: the inverse check, the
    # metric values, the spot check and its norm monitor all read the
    # metric through MetricField.values
    spec = catalog["schwarzschild"]
    metric = {e for e in spec.metric().comps.flat
              if not isinstance(e, ex.Const)}
    tapes = []
    extend = ex.Tape.extend

    def spy(tape, roots):
        roots = list(roots)
        if metric <= set(roots) and all(t is not tape for t in tapes):
            tapes.append(tape)
        return extend(tape, roots)

    monkeypatch.setattr(ex.Tape, "extend", spy)
    run_analysis(spec, n_points=3)
    assert len(tapes) == 2
