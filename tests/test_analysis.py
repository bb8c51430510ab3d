import sys
from pathlib import Path

import numpy as np
import pytest

from metricforms import GeometrySession, get_manifold, run_analysis
from metricforms import analysis, geometry as geo, manifolds, tensor
from metricforms import expr as ex
from metricforms.derivative import Differentiator
from metricforms.errors import (EvalDomainError, FactorizationError,
                                NumericFaultError)
from metricforms.manifolds import CATALOG_NAMES, loads
from metricforms.tape import Tape

import oracles
from conftest import stacked

DATA = Path(__file__).parent / "data"

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

    def test_constant_line_changes_curvature(self):
        # a sphere of radius 2, given by the file's own const line
        spec = loads("""
            name sphere-r2
            dim 2
            coords theta phi
            signature 2 0
            const r=2.0
            domain theta 0.4 2.7
            domain phi 0 7
            g 1 1 = r^2
            g 2 2 = r^2 * sin(theta)^2
        """)
        report = run_analysis(spec, seed=42, n_points=6)
        assert report.overall_pass
        session = GeometrySession(spec, seed=42, n_points=4)
        for scal in session.scalar:
            assert scal == pytest.approx(0.5, rel=1e-10)


def _memo_nodes(*tensors):
    """The entries a session memo needs for the components of
    ``tensors``: every distinct non-constant node."""
    seen, stack = set(), [e for t in tensors for e in t.comps.flat]
    while stack:
        node = stack.pop()
        if type(node) is not ex.Const and node not in seen:
            seen.add(node)
            stack.extend(node.children())
    return len(seen)


class TestSessionMemo:
    def test_tensors_sharing_nodes_grow_the_memo_by_their_union(self,
                                                                catalog):
        session = GeometrySession(catalog["schwarzschild"], seed=5,
                                  n_points=3)
        lower, mixed = session.conn.lower, session.conn.mixed
        assert 0 < _memo_nodes(lower) < _memo_nodes(mixed) \
            < _memo_nodes(lower) + _memo_nodes(mixed)
        memo = session._memo
        session.vals(lower)
        assert len(memo) == _memo_nodes(lower)
        session.vals(mixed)
        assert len(memo) == _memo_nodes(lower, mixed)
        # the metric's components are inside the mixed connection
        session.vals(session.metric)
        session.scalar_vals(lower.comps[0, 0, 0])
        assert len(memo) == _memo_nodes(lower, mixed, session.metric) \
            == _memo_nodes(lower, mixed)
        assert all(len(values) == 3 for values in memo.values())
        for t in (lower, mixed):
            assert np.array_equal(session.vals(t),
                                  stacked(t.evaluate, session.points))


def test_analysis_compiles_only_the_spot_check_right_hand_sides(catalog,
                                                                 monkeypatch):
    # the session, the inverse check and the metric values walk; the two
    # geodesic right-hand sides are compiled, and so is the norm monitor's
    # read of the metric along the trajectory
    spec = catalog["schwarzschild"]
    velocity = {f"u'{c}" for c in spec.chart.coords}
    tapes = []
    init = Tape.__init__

    def spy(tape, roots, args, **kwargs):
        roots = list(roots)
        tapes.append((roots, args, kwargs))
        return init(tape, roots, args, **kwargs)

    monkeypatch.setattr(Tape, "__init__", spy)
    run_analysis(spec, n_points=3)
    assert len(tapes) == 3
    # the arguments are the coordinates, then the velocities, in order,
    # and each tape is a right-hand side of that state
    args = spec.chart.coords + tuple(f"u'{c}" for c in spec.chart.coords)
    assert all(velocity <= set().union(*map(oracles.free_symbols, roots))
               <= set(args) and tape_args == args
               and kwargs == {"state": True}
               for roots, tape_args, kwargs in tapes[:2])
    # the monitor's tape: the metric's components, in flat order, in the
    # coordinates alone
    roots, tape_args, kwargs = tapes[2]
    g = spec.metric()
    assert tape_args == spec.chart.coords and kwargs == {}
    assert len(roots) == g.comps.size
    assert all(r is c for r, c in zip(roots, g.comps.flat))


def test_library_call_warns_of_no_refused_fold(tmp_path):
    # folding 1e-300 into the factored Einstein split overflows, and the
    # fold is refused; numpy must not report that overflow from the
    # object-array arithmetic of the builders, which the test settings
    # make an error, but the analysis must end in its own numeric fault
    path = tmp_path / "tiny.metric"
    path.write_text("name tiny\ndim 2\ncoords x y\nsignature 2 0\n"
                    "domain x 0.5 1\ndomain y 0.5 1\n"
                    "g 1 1 = 1e-300\ng 2 2 = (1.0)^2\ng 1 2 = (x * (x - x))\n")
    with pytest.raises(NumericFaultError,
                       match="^cannot normalize the spot-check velocity"):
        run_analysis(get_manifold(str(path)))


def test_overflow_in_the_pre_currents_names_its_point_and_component(
        tmp_path):
    # the numeric factored side is checked finite as the session computes
    # it, with numpy's warning of the overflow off: here d_x F and the
    # Gamma F products overflow, and inf - inf is nan
    path = tmp_path / "steep.metric"
    path.write_text("name steep\ndim 2\ncoords x y\nsignature 2 0\n"
                    "domain x 0.5 2\ndomain y 0.5 2\n"
                    "g 1 1 = (y * 4.969228215983129e+205)\ng 2 2 = x\n")
    with pytest.raises(EvalDomainError, match=(
            r"^overflow to a non-finite value in precurrent component "
            r"\(0, 1, 0, 1\) at \{'x': 1\.434")):
        run_analysis(get_manifold(str(path)))


@pytest.mark.parametrize("target,strategy", [
    ("sphere2", "auto"), ("schwarzschild", "ldl"), ("flrw-flat", "auto"),
    (str(DATA / "painleve-gullstrand.metric"), "auto"),
    (str(DATA / "kerr-boyer-lindquist.metric"), "auto")],
    ids=lambda t: Path(str(t)).stem)
def test_analysis_differentiates_each_node_once_and_never_einstein(
        target, strategy, monkeypatch):
    # the Einstein divergence is computed at the points from the jets of
    # g, so no component of the symbolic G reaches a Differentiator; one
    # differentiator per coordinate serves the whole session, so no
    # (node, coordinate) pair is differentiated twice
    spec = get_manifold(target)
    built = GeometrySession(spec, strategy)
    ricci = geo.ricci_from_mixed(geo.riemann_classical(built.conn,
                                                       built.diff))
    einstein = {e for e in geo.einstein_tensor(
        ricci, geo.scalar_curvature(ricci, built.g_inv), built.metric
    ).comps.flat if type(e) is not ex.Const}
    assert einstein
    handed, pairs = [], []
    call, diff = Differentiator.__call__, Differentiator._diff

    def spy_call(d, e):
        handed.append(e)
        return call(d, e)

    def spy_diff(d, e):
        pairs.append((e, d.coord))
        return diff(d, e)

    monkeypatch.setattr(Differentiator, "__call__", spy_call)
    monkeypatch.setattr(Differentiator, "_diff", spy_diff)
    assert run_analysis(spec, strategy).overall_pass
    assert pairs and handed
    assert not einstein.intersection(handed)
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("target", ["schwarzschild", str(
    Path(__file__).parent / "data" / "kerr-boyer-lindquist.metric")],
    ids=lambda t: Path(t).stem)
def test_shared_contractions_are_built_once_per_analysis(target,
                                                         monkeypatch):
    # the symmetrized derivative of the forms and the raised forms are
    # built once, by their builders, and handed to every other builder
    built, contracted, forms = [], [], []
    for name in ("sym_partial", "raise_forms"):
        def counted(*args, _name=name, _build=getattr(geo, name)):
            built.append(_name)
            return _build(*args)
        monkeypatch.setattr(geo, name, counted)

    def recorded(spec, *operands, _einsum=geo.einsum, **kwargs):
        contracted.append((spec, operands))
        return _einsum(spec, *operands, **kwargs)

    def kept(*args, _make=analysis.make_formset):
        forms.append(_make(*args))
        return forms[-1]

    monkeypatch.setattr(geo, "einsum", recorded)
    monkeypatch.setattr(analysis, "make_formset", kept)
    run_analysis(get_manifold(target), seed=3, n_points=4)
    assert sorted(built) == ["raise_forms", "sym_partial"]
    assert [spec for spec, _ in contracted].count("aib->iab + bia->iab") == 1
    assert sum(spec == "cd,id->ic" and operands[1] is forms[0].comps
               for spec, operands in contracted) == 1



#: the symbolic builders of the classical curvature, the reference of the
#: session's arrays
CURVATURE_BUILDERS = ("riemann_classical", "ricci_from_mixed",
                      "scalar_curvature", "einstein_tensor")

ELEVEN = [*CATALOG_NAMES, *(str(DATA / f"{name}.metric") for name in (
    "painleve-gullstrand", "kerr-boyer-lindquist", "dense-4d"))]


@pytest.mark.parametrize("target", ELEVEN, ids=lambda t: Path(t).stem)
def test_only_symbolic_objects_are_walked(target, monkeypatch):
    # an object is built as an expression only where a tape compiles it
    # (g^-1, A, A^c, P, F, Gamma), tangents differentiate it (g, A, A^c,
    # F, d d g) or another symbolic object is built from it (Gamma_cab):
    # only those are walked, and nothing by scalar_vals; everything else,
    # the classical curvature too, is computed at the points.  The session
    # is the one reader at its points, and the loader's parse of each
    # metric entry is the only one
    walked, scalars, converted, differentiated, parsed = [], [], [], [], []
    built, gradients = [], []
    vals, scalar_vals = GeometrySession.vals, GeometrySession.scalar_vals
    gradient = GeometrySession._gradient

    def spy(session, tensor):
        walked.append((session, tensor))
        return vals(session, tensor)

    def scalar_spy(session, e):
        scalars.append(e)
        return scalar_vals(session, e)

    def reader(module, name, log):
        """Log each call of ``module.name`` with its arguments and the
        code objects of its callers, innermost first."""
        original = getattr(module, name)

        def spied(comps, points, *args):
            frame, codes = sys._getframe(1), []
            while frame is not None:
                codes.append(frame.f_code)
                frame = frame.f_back
            log.append((comps, points, codes))
            return original(comps, points, *args)
        monkeypatch.setattr(module, name, spied)

    def parse_spy(source, *args, _parse=manifolds.parse_expr):
        parsed.append(source)
        return _parse(source, *args)

    def gradient_spy(session, tensor, *args):
        gradients.append(tensor)
        return gradient(session, tensor, *args)

    builders = [getattr(geo, name) for name in CURVATURE_BUILDERS]
    for name in CURVATURE_BUILDERS:
        monkeypatch.setattr(geo, name, lambda *args, _name=name:
                            built.append(_name))
    monkeypatch.setattr(GeometrySession, "vals", spy)
    monkeypatch.setattr(GeometrySession, "scalar_vals", scalar_spy)
    monkeypatch.setattr(GeometrySession, "_gradient", gradient_spy)
    reader(tensor, "values_at", converted)
    reader(analysis, "values_at", converted)
    reader(analysis, "tangents", differentiated)
    monkeypatch.setattr(manifolds, "parse_expr", parse_spy)
    spec = get_manifold(target)
    run_analysis(spec, seed=42, n_points=4)
    s = walked[0][0]
    jet2 = s.metric_jets.second
    symbolic = set(map(id, (
        s.forms, s.curl, s.sym_partial, s.forms_raised, s.metric, s.g_inv,
        s.conn.lower, s.conn.mixed, jet2)))
    assert all(session is s for session, _ in walked)
    assert [s._name_of(t) for _, t in walked if id(t) not in symbolic] == []
    assert scalars == []
    # no symbolic curvature is built, so none is walked; one tangent pass
    # each over A, F, g, A^c and, where a coordinate is in g, d d g
    assert built == []
    riemann, ricci, scalar, einstein = builders
    r = riemann(s.conn, s.diff)
    ric = ricci(r)
    roots = [*r.comps.flat, *ric.comps.flat, *einstein(
        ric, scalar(ric, s.g_inv), s.metric).comps.flat]
    assert not {e for e in roots if type(e) is not ex.Const} & set(s._memo)
    assert sorted(map(s._name_of, gradients)) == sorted([
        "metric", "forms", "curl", "forms_raised",
        *(["metric_jets.second"] if s.metric_jets.pairs else [])])
    # every conversion at the session's points is a vals walk, and each
    # tensor walked is converted once; the rest read the metric at its
    # three check points, g^-1 at each of them and g at the spot check's
    # midpoint
    at_points = [(comps, codes) for comps, points, codes in converted
                 if points is s.points]
    assert all(codes[0] is vals.__code__ for _, codes in at_points)
    ids = [id(comps) for comps, _ in at_points]
    assert len(ids) == len(set(ids))
    assert set(ids) == {id(t.comps) for _, t in walked}
    assert len(converted) == len(at_points) + 5
    # the tangents are the session's, at its points
    assert differentiated and all(
        points is s.points and codes[0] is gradient.__code__
        for _, points, codes in differentiated)
    # no geometry function reads at any point
    assert not {"values_at", "tangents", "gradient"} & set(vars(geo))
    assert not any(code.co_filename == geo.__file__
                   for *_, codes in converted + differentiated
                   for code in codes)
    assert sorted(parsed) == sorted(spec.metric_source.values())
