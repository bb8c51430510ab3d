import math
from pathlib import Path

import numpy as np
import pytest

from metricforms import (
    GeometrySession,
    christoffel_classical,
    christoffel_factored,
    classify_flatness,
    currents,
    exterior_derivative,
    factor_diagonal,
    get_manifold,
    integrate_geodesic,
    invert_metric,
    killing_check,
    lie_derivative_metric,
    precurrents,
    ricci_from_mixed,
    riemann_classical,
    riemann_decomposed,
    scalar_curvature,
    sym_covariant_derivative,
    sym_derivative_via_factors,
)
from metricforms import expr as ex
from metricforms.errors import TensorError
from metricforms.geometry import (
    VERDICT_CLOSED_FLAT,
    VERDICT_CURVED,
    VERDICT_INCONSISTENT,
    classical_rhs,
    factored_rhs,
    sym_partial,
)
from metricforms.manifolds import CATALOG_NAMES
from metricforms.tensor import (
    MetricField,
    antisym_cycle_residual,
    compiled,
    einsum,
    max_abs,
    max_imag,
)

import oracles
from conftest import form_metric_vals, sphere_metric, stacked


@pytest.fixture(scope="module")
def sphere():
    g = sphere_metric(1.3)
    g_inv = invert_metric(g)
    forms = factor_diagonal(g)
    conn = christoffel_classical(g, g_inv)
    return g, g_inv, forms, conn


class TestChristoffel:
    def test_euclidean_cartesian_vanishes(self, sessions):
        s = sessions("euclidean3-cartesian")
        assert max_abs(s.vals(s.conn.lower)) == 0.0
        assert max_abs(s.vals(s.conn_factored.lower)) == 0.0

    def test_sphere_hand_values(self, sphere):
        g, g_inv, forms, conn = sphere
        theta = 1.1
        gm = conn.mixed.evaluate({"theta": theta, "phi": 2.0}).real
        assert gm[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta))
        assert gm[1, 0, 1] == pytest.approx(1 / math.tan(theta))
        assert gm[1, 1, 0] == pytest.approx(1 / math.tan(theta))

    def test_minkowski_cylindrical_hand_value(self, sessions):
        s = sessions("minkowski-cylindrical")
        point = {"r": 1.7, "phi": 1.0, "z": 0.0, "t": 0.0}
        gm = s.conn.mixed.evaluate(point).real
        assert gm[0, 1, 1] == pytest.approx(-1.7)     # radial from azimuthal
        assert gm[1, 0, 1] == pytest.approx(1 / 1.7)  # azimuthal mixing

    def test_against_fd_oracle(self, sphere):
        g, g_inv, forms, conn = sphere
        env = {"theta": 0.9, "phi": 1.4}
        fd = oracles.fd_christoffel_lower(
            lambda p: g.evaluate(p), env, g.chart.coords)
        sym = conn.lower.evaluate(env).real
        assert max_abs(sym - fd) <= 1e-6

    def test_factored_route_matches(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        factored = christoffel_factored(forms, f, g_inv)
        for point in g.chart.sample_points(20, seed=42):
            gap = max(
                max_abs(conn.lower.evaluate(point)
                        - factored.lower.evaluate(point)),
                max_abs(conn.mixed.evaluate(point)
                        - factored.mixed.evaluate(point)))
            assert gap <= 1e-9


class TestExteriorDerivative:
    def test_exact_forms_vanish(self, sessions):
        s = sessions("euclidean2-cartesian")
        assert max_abs(s.vals(s.curl)) == 0.0

    def test_sphere_components(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        theta = 0.8
        fv = f.evaluate({"theta": theta, "phi": 1.0})
        assert max_abs(fv[0]) == 0.0                       # A_1 = r dtheta
        assert fv[1, 0, 1] == pytest.approx(1.3 * math.cos(theta))
        assert fv[1, 1, 0] == pytest.approx(-1.3 * math.cos(theta))

    def test_minkowski_cylindrical_component(self, sessions):
        s = sessions("minkowski-cylindrical")
        fv = s.curl.evaluate({"r": 1.2, "phi": 0.5, "z": 0.0, "t": 0.0})
        assert fv[1, 0, 1] == pytest.approx(1.0)   # d(r dphi) = dr ^ dphi
        nonzero = [i for i in range(4) if max_abs(fv[i]) > 1e-14]
        assert nonzero == [1]


class TestSymDerivative:
    def test_flat_exact_forms_give_zero(self, sessions):
        s = sessions("minkowski")
        assert max_abs(s.vals(s.sym_deriv)) == 0.0

    def test_routes_agree_on_sphere(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        direct = sym_covariant_derivative(forms, conn)
        via = sym_derivative_via_factors(forms, f, g_inv)
        for point in g.chart.sample_points(20, seed=42):
            assert max_abs(direct.evaluate(point)
                           - via.evaluate(point)) <= 1e-9

    def test_cancellation_identity_on_schwarzschild(self, sessions):
        s = sessions("schwarzschild")
        for k, point in enumerate(s.points):
            a = s.forms.evaluate(point)
            sv = s.vals(s.sym_deriv)[k]
            fv = s.vals(s.curl)[k]
            balance = np.einsum("ic,iab->cab", a, sv) + 0.5 * (
                np.einsum("ia,ibc->cab", a, fv)
                + np.einsum("ib,iac->cab", a, fv))
            assert max_abs(balance) <= 1e-9

    def test_closed_single_form_need_not_be_killing(self, sphere):
        # dA_1 = 0 on the sphere factorization, yet S_1 is nonzero: the
        # symmetric derivative is ruled by the exterior derivatives of the
        # whole set, not of each member alone
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        s = sym_covariant_derivative(forms, conn)
        point = {"theta": 1.1, "phi": 2.0}
        assert max_abs(f.evaluate(point)[0]) == 0.0
        expected = 1.3 * math.sin(1.1) * math.cos(1.1)
        assert s.evaluate(point)[0, 1, 1] == pytest.approx(expected)

    def test_direct_route_requires_classical_connection(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        factored = christoffel_factored(forms, f, g_inv)
        with pytest.raises(TensorError):
            sym_covariant_derivative(forms, factored)


class TestCurrents:
    def test_flat_exact_case_vanishes(self, sessions):
        s = sessions("euclidean3-cartesian")
        assert max_abs(s.vals(s.precurrent)) == 0.0
        assert max_abs(s.vals(s.current)) == 0.0

    def test_sphere_hand_value(self, sphere):
        # J_2 = (0, -1/(r sin(theta))), derived by hand from nabla^a F_ab
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        j = currents(precurrents(f, conn), g_inv)
        for point in g.chart.sample_points(10, seed=3):
            jv = j.evaluate(point)
            assert max_abs(jv[0]) <= 1e-12
            assert abs(jv[1, 0]) <= 1e-12
            expected = -1.0 / (1.3 * math.sin(point["theta"]))
            assert jv[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_pair_antisymmetry_exact(self, sessions):
        s = sessions("schwarzschild")
        jp = s.vals(s.precurrent)
        assert max_abs(jp + np.swapaxes(jp, 3, 4)) == 0.0

    def test_cyclic_identity(self, sessions):
        s = sessions("schwarzschild")
        jp = s.vals(s.precurrent)
        worst = max(antisym_cycle_residual(jp[k], (1, 2, 3))
                    for k in range(len(s.points)))
        assert worst <= 1e-8

    def test_contraction_consistency(self, sphere):
        # the current op is literally the trace of the raised pre-current
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        jp = precurrents(f, conn)
        j = currents(jp, g_inv)
        point = {"theta": 1.3, "phi": 4.0}
        jp_v = jp.evaluate(point)
        ginv_v = g_inv.evaluate(point)
        direct = np.einsum("ad,idab->ib", ginv_v, jp_v)
        assert max_abs(direct - j.evaluate(point)) <= 1e-14


class TestRiemannClassical:
    def test_sphere_component_and_scalar(self, sphere):
        g, g_inv, forms, conn = sphere
        mixed, lower = riemann_classical(conn, g)
        ricci = ricci_from_mixed(mixed)
        scal = scalar_curvature(ricci, g_inv)
        for point in g.chart.sample_points(10, seed=6):
            theta = point["theta"]
            rv = lower.evaluate(point)
            expected = (1.3 * math.sin(theta)) ** 2
            assert rv[0, 1, 0, 1] == pytest.approx(expected, rel=1e-10)
            assert ex.evaluate(scal, point) == pytest.approx(2 / 1.3 ** 2,
                                                             rel=1e-10)

    def test_schwarzschild_is_vacuum(self, sessions):
        s = sessions("schwarzschild")
        assert max_abs(s.vals(s.ricci)) <= 1e-8

    def test_minkowski_cylindrical_flat(self, sessions):
        s = sessions("minkowski-cylindrical")
        assert max_abs(s.vals(s.riemann_lower)) <= 1e-8

    def test_against_fd_oracle(self, sphere):
        g, g_inv, forms, conn = sphere
        mixed, lower = riemann_classical(conn, g)
        env = {"theta": 1.0, "phi": 2.0}
        fd = oracles.fd_riemann_mixed(
            lambda p: conn.mixed.evaluate(p).real, env, g.chart.coords)
        assert max_abs(mixed.evaluate(env).real - fd) <= 1e-5

    def test_classical_symmetries(self, sessions):
        s = sessions("flrw-flat")
        rv = s.vals(s.riemann_lower)
        assert max_abs(rv + np.swapaxes(rv, 1, 2)) <= 1e-8
        assert max_abs(rv + np.swapaxes(rv, 3, 4)) <= 1e-8
        assert max_abs(rv - np.transpose(rv, (0, 3, 4, 1, 2))) <= 1e-8


class TestDecomposition:
    def test_flat_exact_case_all_parts_vanish(self, sessions):
        s = sessions("minkowski")
        for part in (s.parts.current_part, s.parts.form_part,
                     s.parts.sym_part):
            assert max_abs(s.vals(part)) == 0.0

    def test_closed_forms_give_flat_sum(self, sessions):
        # flat chart with a non-trivial factorization where dA = 0 would be
        # semi-flat; the cartesian factorizations realize dA = 0 exactly
        s = sessions("euclidean2-cartesian")
        assert max_abs(s.vals(s.parts.total)) == 0.0
        assert max_abs(s.vals(s.riemann_lower)) == 0.0

    @pytest.mark.parametrize("name", [
        "euclidean3-spherical", "minkowski-cylindrical", "sphere2",
        "schwarzschild", "flrw-flat"])
    def test_sum_reproduces_classical(self, sessions, name):
        s = sessions(name)
        gap = max_abs(s.vals(s.parts.total) - s.vals(s.riemann_lower))
        assert gap <= 1e-10   # measured at machine precision on the catalog

    def test_per_term_bianchi(self, sessions):
        s = sessions("schwarzschild")
        for part in (s.parts.current_part, s.parts.form_part,
                     s.parts.sym_part):
            vals = s.vals(part)
            worst = max(antisym_cycle_residual(vals[k], (1, 2, 3))
                        for k in range(len(s.points)))
            assert worst <= 1e-8

    def test_part_antisymmetry_in_last_pair(self, sessions):
        s = sessions("sphere2")
        for part in (s.parts.current_part, s.parts.form_part,
                     s.parts.sym_part):
            vals = s.vals(part)
            assert max_abs(vals + np.swapaxes(vals, 3, 4)) == 0.0


class TestRicciEinstein:
    def test_flat_exact_case_zero(self, sessions):
        s = sessions("minkowski")
        assert max_abs(s.vals(s.factored.ricci)) == 0.0
        assert max_abs(s.vals(s.factored.einstein)) == 0.0

    def test_schwarzschild_vacuum_einstein(self, sessions):
        s = sessions("schwarzschild")
        assert max_abs(s.vals(s.einstein)) <= 1e-8

    def test_factored_formulas_match_classical(self, sessions):
        for name in ("sphere2", "schwarzschild", "flrw-flat"):
            s = sessions(name)
            assert max_abs(s.vals(s.factored.ricci)
                           - s.vals(s.ricci)) <= 1e-9
            assert max_abs(s.vals(s.factored.einstein)
                           - s.vals(s.einstein)) <= 1e-9

    def test_contracted_bianchi(self, sessions):
        for name in ("sphere2", "schwarzschild"):
            s = sessions(name)
            assert max_abs(s.vals(s.einstein_divergence)) <= 1e-7

    def test_flrw_scalar_curvature(self, sessions):
        s = sessions("flrw-flat")
        for point, scal in zip(s.points, s.scalar_vals(s.scalar)):
            assert scal == pytest.approx(6.0 / point["t"] ** 2, rel=1e-10)

    def test_einstein_definition_identity(self, sessions):
        s = sessions("flrw-flat")
        g_vals = s.vals(s.metric)
        scal = s.scalar_vals(s.scalar)
        g_term = 0.5 * g_vals * scal[:, None, None]
        assert max_abs(s.vals(s.einstein)
                       - (s.vals(s.ricci) - g_term)) <= 1e-12


class TestKilling:
    def test_cartesian_exact_forms_are_killing(self, sessions):
        s = sessions("euclidean3-cartesian")
        report = s.killing
        assert report.set_closed
        assert report.killing_residual <= 1e-9
        assert report.lie_vs_2s <= 1e-9

    def test_sphere_azimuthal_form_not_killing(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        s = sym_covariant_derivative(forms, conn)
        points = g.chart.sample_points(10, seed=5)
        lie = lie_derivative_metric(forms, g, g_inv)
        report = killing_check(*(stacked(t.evaluate, points)
                                 for t in (f, s, lie)))
        assert not report.set_closed
        assert report.f_max[1] > 1e-3
        assert report.lie_max[1] > 1e-3       # metric varies along A_2
        assert report.lie_vs_2s <= 1e-9       # identity holds regardless

    def test_lie_identity_on_all_catalog(self, sessions, catalog):
        for name in catalog:
            assert sessions(name).killing.lie_vs_2s <= 1e-9


class TestClassification:
    def test_cartesian_closed_flat(self, sessions):
        assert sessions("euclidean2-cartesian").classification.verdict \
            == VERDICT_CLOSED_FLAT

    def test_sphere_curved(self, sessions):
        assert sessions("sphere2").classification.verdict == VERDICT_CURVED

    def test_minkowski_cylindrical_caveat(self, sessions):
        # closedness is sufficient, not necessary, for flatness: the
        # curvilinear factorization is not closed although R = 0
        verdict = sessions("minkowski-cylindrical").classification
        assert verdict.verdict == VERDICT_CURVED
        assert verdict.r_max <= 1e-8
        assert verdict.f_max > 1e-3
        assert "curvature vanishes" in verdict.note

    def test_inconsistent_diagnostic(self, sessions):
        from metricforms.expr import ZERO

        s = sessions("sphere2")
        fake_f = s.curl.map(lambda e: ZERO)
        verdict = classify_flatness(s.vals(fake_f), s.vals(s.riemann_lower))
        assert verdict.verdict == VERDICT_INCONSISTENT
        assert "fault" in verdict.note

    def test_expected_catalog_verdicts(self, sessions, catalog):
        for name, spec in catalog.items():
            got = sessions(name).classification
            assert got.verdict == spec.expected_verdict, name
            assert (got.r_max <= 1e-8) == spec.expected_flat, name


@pytest.fixture(scope="module")
def closed_forms(catalog):
    """The exact forms of cartesian coordinate functions expressed in the
    cylindrical chart: a closed factorization with non-constant
    coefficients."""
    from metricforms import parse_expr
    from metricforms.expr import ZERO, const
    from metricforms.factorization import FormSet

    spec = catalog["minkowski-cylindrical"]
    chart = spec.chart
    comps = np.empty((4, 4), dtype=object)
    comps[...] = ZERO
    comps[0, 0] = parse_expr("cos(phi)", chart)          # d(r cos phi)
    comps[0, 1] = parse_expr("-(r * sin(phi))", chart)
    comps[1, 0] = parse_expr("sin(phi)", chart)          # d(r sin phi)
    comps[1, 1] = parse_expr("r * cos(phi)", chart)
    comps[2, 2] = const(1.0)                             # dz
    comps[3, 3] = const(1j)                              # i dt
    return spec, FormSet(chart, "ldl", comps=comps,
                         choice="exact cartesian coordinate forms")


class TestSemiFlatLike:
    """dA = 0 while the connection is nonzero: everything built from F
    vanishes, the decomposition gives R = 0, and the forms are Killing;
    geodesics are still not coordinate-straight lines."""

    def test_reconstructs_metric_and_is_closed(self, closed_forms):
        from metricforms import verify_factorization

        spec, forms = closed_forms
        g = spec.metric()
        points = spec.chart.sample_points(10, seed=21)
        assert verify_factorization(*form_metric_vals(forms, g, points)).passed
        f = exterior_derivative(forms)
        for point in points:
            assert max_abs(f.evaluate(point)) <= 1e-15

    def test_decomposition_vanishes_with_classical(self, closed_forms):
        spec, forms = closed_forms
        g = spec.metric()
        g_inv = invert_metric(g)
        conn = christoffel_classical(g, g_inv)
        f = exterior_derivative(forms)
        s = sym_covariant_derivative(forms, conn)
        parts = riemann_decomposed(forms, f, s, precurrents(f, conn))
        point = {"r": 1.5, "phi": 1.0, "z": 0.0, "t": 0.0}
        assert max_abs(parts.total.evaluate(point)) <= 1e-12
        assert max_abs(s.evaluate(point)) <= 1e-12

    def test_connection_nonzero_but_routes_agree(self, closed_forms):
        spec, forms = closed_forms
        g = spec.metric()
        g_inv = invert_metric(g)
        conn = christoffel_classical(g, g_inv)
        f = exterior_derivative(forms)
        factored = christoffel_factored(forms, f, g_inv)
        point = {"r": 1.5, "phi": 1.0, "z": 0.0, "t": 0.0}
        assert max_abs(conn.lower.evaluate(point)) > 0.5
        assert max_abs(conn.lower.evaluate(point)
                       - factored.lower.evaluate(point)) <= 1e-12

    def test_closed_set_is_killing_and_classified_flat(self, closed_forms):
        spec, forms = closed_forms
        g = spec.metric()
        g_inv = invert_metric(g)
        conn = christoffel_classical(g, g_inv)
        f = exterior_derivative(forms)
        s = sym_covariant_derivative(forms, conn)
        points = spec.chart.sample_points(10, seed=22)
        lie = lie_derivative_metric(forms, g, g_inv)
        report = killing_check(*(stacked(t.evaluate, points)
                                 for t in (f, s, lie)))
        assert report.set_closed
        assert report.killing_residual <= 1e-9
        mixed, lower = riemann_classical(conn, g)
        verdict = classify_flatness(stacked(f.evaluate, points),
                                    stacked(lower.evaluate, points))
        assert verdict.verdict == VERDICT_CLOSED_FLAT


class TestGeodesics:
    def test_euclidean_straight_line(self, sessions):
        s = sessions("euclidean2-cartesian")
        start = np.array([-1.0, -1.0])
        velocity = np.array([0.5, 0.25])
        comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                                  start, velocity, 200, 0.01)
        expected = start + comp.classical.s[:, None] * velocity
        assert max_abs(comp.classical.x - expected) <= 1e-12
        assert comp.divergence <= 1e-12

    def test_great_circle_closure(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        radius = 1.3
        start = np.array([math.pi / 2, 0.4])
        velocity = np.array([0.0, 1.0 / radius])
        steps = 1000
        h = 2 * math.pi * radius / steps
        comp = integrate_geodesic(g, g_inv, conn, forms, f, start, velocity,
                                  steps, h)
        assert not comp.classical.exited_domain
        end = comp.classical.x[-1]
        assert abs(end[0] - start[0]) <= 1e-5
        assert abs(end[1] - (start[1] + 2 * math.pi)) <= 1e-5
        assert comp.divergence <= 1e-6
        assert comp.norm_drift <= 1e-6

    def test_tilted_sphere_geodesic_two_routes(self, sphere):
        g, g_inv, forms, conn = sphere
        f = exterior_derivative(forms)
        g0 = g.evaluate({"theta": 1.2, "phi": 2.0})
        u = np.array([0.6, 0.8])
        u = u / math.sqrt(u @ g0 @ u)
        comp = integrate_geodesic(g, g_inv, conn, forms, f,
                                  np.array([1.2, 2.0]), u, 1000, 0.002)
        assert comp.divergence <= 1e-6
        assert comp.norm_drift <= 1e-6

    def test_minkowski_cylindrical_chord(self, sessions):
        # a straight line in cartesian coordinates, expressed in the
        # cylindrical chart: r(s), phi(s) from the analytic chord
        s = sessions("minkowski-cylindrical")
        x0, y0 = 1.2, 0.9
        vx, vy = -0.35, 0.2
        r0 = math.hypot(x0, y0)
        start = np.array([r0, math.atan2(y0, x0), 0.0, 0.0])
        u_r = (x0 * vx + y0 * vy) / r0
        u_phi = (x0 * vy - y0 * vx) / r0 ** 2
        velocity = np.array([u_r, u_phi, 0.3, 0.5])
        steps, h = 1000, 0.001
        comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                                  start, velocity, steps, h)
        assert not comp.classical.exited_domain
        ts = comp.classical.s
        x = x0 + vx * ts
        y = y0 + vy * ts
        expected_r = np.hypot(x, y)
        expected_phi = np.arctan2(y, x)
        assert max_abs(comp.classical.x[:, 0] - expected_r) <= 1e-6
        assert max_abs(comp.classical.x[:, 1] - expected_phi) <= 1e-6
        assert comp.divergence <= 1e-6
        assert comp.norm_drift <= 1e-6

    def test_domain_exit_truncates_with_flag(self, sessions):
        s = sessions("euclidean2-cartesian")
        comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                                  np.array([1.5, 0.0]), np.array([1.0, 0.0]),
                                  200, 0.01)
        assert comp.classical.exited_domain
        assert len(comp.classical.s) < 201


# ---------------------------------------------------------------------------
# geodesic right-hand sides against the numeric formulas they replaced
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
RHS_TARGETS = [*CATALOG_NAMES,
               *(str(DATA / name) for name in ("painleve-gullstrand.metric",
                                               "kerr-boyer-lindquist.metric"))]


@pytest.fixture(scope="module")
def rhs_sessions():
    cache = {}

    def get(target):
        if target not in cache:
            cache[target] = GeometrySession(get_manifold(target), seed=42)
        return cache[target]

    return get


def _reference_rhs(s):
    """(classical, factored) du/ds from component arrays compiled per
    tensor, evaluated at x and contracted with np.einsum."""
    chart = s.chart
    mixed = compiled(s.conn.mixed.comps)
    a = s.forms.comps
    arrays = [compiled(comps) for comps in (
        a, sym_partial(s.forms).comps,
        einsum("cd,id->ic", s.g_inv.comps, a),
        einsum("cd,idb->icb", s.g_inv.comps, s.curl.comps))]

    def at(x):
        return dict(zip(chart.coords, map(float, x)))

    def classical(x, u):
        return -np.einsum("cab,a,b->c", mixed(at(x)).real, u, u)

    def factored(x, u):
        av, pv, auv, fmv = (values(at(x)) for values in arrays)
        quad = np.einsum("iab,a,b->i", pv, u, u)
        du = -np.einsum("ic,i->c", auv, quad)
        du = du + np.einsum("i,icb,b->c", av @ u, fmv, u)
        return du.real

    return classical, factored


def _reference_rk4(rhs, start, velocity, steps, h):
    """Stacked states (x, u) of fixed-step RK4 on numpy arrays."""
    n = len(start)

    def deriv(state):
        return np.concatenate([state[n:], rhs(state[:n], state[n:])])

    state = np.concatenate([start, velocity])
    states = [state]
    for _ in range(steps):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * h * k1)
        k3 = deriv(state + 0.5 * h * k2)
        k4 = deriv(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(state)
    return np.array(states)


@pytest.mark.parametrize("target", RHS_TARGETS,
                         ids=[Path(t).stem for t in RHS_TARGETS])
def test_rhs_match_numeric_reference(rhs_sessions, target):
    s = rhs_sessions(target)
    rng = np.random.default_rng(7)
    fused = (classical_rhs(s.conn), factored_rhs(s.forms, s.curl, s.g_inv))
    for point in s.chart.sample_points(5, seed=11):
        x = tuple(point[c] for c in s.chart.coords)
        u = tuple(rng.normal(size=s.chart.dim).tolist())
        for rhs, reference in zip(fused, _reference_rhs(s)):
            got = rhs(x, u)
            assert type(got) is tuple
            assert all(type(v) is float for v in got)
            want = reference(np.array(x), np.array(u))
            assert max_abs(np.array(got) - want) <= 1e-13 * max_abs(want)


def test_schwarzschild_trajectory_matches_numeric_reference(rhs_sessions):
    s = rhs_sessions("schwarzschild")
    start = np.array([5.0, 1.2, 1.0, 0.0])
    velocity = np.array([0.1, 0.05, 0.1, 1.2])
    comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                              start, velocity, 200, 0.005)
    assert len(comp.classical.s) == 201
    for traj, rhs in zip((comp.classical, comp.factored), _reference_rhs(s)):
        want = _reference_rk4(rhs, start, velocity, 200, 0.005)
        got = np.hstack([traj.x, traj.u])
        assert max_abs(got - want) <= 1e-13 * max_abs(want)


# ---------------------------------------------------------------------------
# the norm monitor against the per-point loop it replaced
# ---------------------------------------------------------------------------

NORM_TARGETS = [*RHS_TARGETS, str(DATA / "dense-4d.metric")]


def _reference_norm_drift(g, traj):
    """Relative drift of g(u, u), evaluated point by point."""
    metric = compiled(g.comps)
    gs = [metric(dict(zip(g.chart.coords, map(float, x)))) for x in traj.x]
    assert max_imag(np.array(gs)) == 0.0
    norms = np.array([float(u @ gv.real @ u) for gv, u in zip(gs, traj.u)])
    return float(np.max(np.abs(norms - norms[0]))
                 / max(1e-12, abs(norms[0])))


@pytest.mark.parametrize("target", NORM_TARGETS,
                         ids=[Path(t).stem for t in NORM_TARGETS])
def test_norm_drift_matches_per_point_reference(rhs_sessions, target):
    s = rhs_sessions(target)
    chart = s.chart
    mid = chart.midpoint()
    start = np.array([mid[c] for c in chart.coords])
    widths = np.array([hi - lo for lo, hi in chart.domains])
    velocity = np.random.default_rng(5).uniform(-1, 1, chart.dim) * widths
    comp = integrate_geodesic(s.metric, s.g_inv, s.conn, s.forms, s.curl,
                              start, velocity, 200, 0.001)
    assert len(comp.classical.s) > 1
    assert comp.norm_drift == _reference_norm_drift(s.metric,
                                                    comp.classical)


def test_metric_non_real_on_the_path_raises(rhs_sessions):
    # straight lines of the plane, monitored with a metric whose sqrt(x)
    # turns non-real once the path crosses x = 0
    s = rhs_sessions("euclidean2-cartesian")
    x = ex.sym("x")
    comps = np.array([[ex.add(1, ex.mul(1e-3, ex.sqrt(x))), ex.ZERO],
                      [ex.ZERO, ex.ONE]], dtype=object)
    g = MetricField(s.chart, comps)
    with pytest.raises(TensorError, match="non-real"):
        integrate_geodesic(g, s.g_inv, s.conn, s.forms, s.curl,
                           np.array([0.05, 0.0]), np.array([-1.0, 0.0]),
                           20, 0.01)


# ---------------------------------------------------------------------------
# einsum builders against the index loops they replaced
# ---------------------------------------------------------------------------

def _loop_partials(chart, comps):
    out = []
    for coord in chart.coords:
        d = ex.Differentiator(coord)
        arr = np.empty(comps.shape, dtype=object)
        for idx in np.ndindex(comps.shape):
            arr[idx] = d(comps[idx])
        out.append(arr)
    return out


def _loop_christoffel(g, g_inv):
    n = g.chart.dim
    dg = _loop_partials(g.chart, g.comps)
    lower = np.empty((n, n, n), dtype=object)
    mixed = np.empty((n, n, n), dtype=object)
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                lower[c, a, b] = ex.mul(ex.HALF, ex.add(
                    dg[a][c, b], dg[b][c, a], ex.neg(dg[c][a, b])))
                lower[c, b, a] = lower[c, a, b]
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                mixed[c, a, b] = ex.add(
                    *[ex.mul(g_inv.comps[c, d], lower[d, a, b])
                      for d in range(n)])
                mixed[c, b, a] = mixed[c, a, b]
    return lower, mixed


def _loop_precurrents(chart, fc, gm):
    m, n = fc.shape[:2]
    df = _loop_partials(chart, fc)
    jp = np.empty((m, n, n, n), dtype=object)
    for i in range(m):
        for a in range(n):
            for b in range(n):
                jp[i, a, b, b] = ex.ZERO
                for c in range(b + 1, n):
                    corr = [ex.mul(gm[e, a, b], fc[i, e, c]) for e in range(n)]
                    corr += [ex.mul(gm[e, a, c], fc[i, b, e])
                             for e in range(n)]
                    jp[i, a, b, c] = ex.sub(df[a][i, b, c], ex.add(*corr))
                    jp[i, a, c, b] = ex.neg(jp[i, a, b, c])
    return jp


def _loop_riemann(gm, g):
    n = g.chart.dim
    dgm = _loop_partials(g.chart, gm)
    mixed = np.empty((n, n, n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                mixed[a, b, c, c] = ex.ZERO
                for d in range(c + 1, n):
                    quad = [ex.mul(gm[a, e, c], gm[e, b, d]) for e in range(n)]
                    quad += [ex.neg(ex.mul(gm[a, e, d], gm[e, b, c]))
                             for e in range(n)]
                    mixed[a, b, c, d] = ex.add(
                        dgm[c][a, b, d], ex.neg(dgm[d][a, b, c]), *quad)
                    mixed[a, b, d, c] = ex.neg(mixed[a, b, c, d])
    lower = np.empty((n, n, n, n), dtype=object)
    for idx in np.ndindex(lower.shape):
        a, rest = idx[0], idx[1:]
        lower[idx] = ex.add(*[ex.mul(g.comps[a, e], mixed[(e,) + rest])
                              for e in range(n)])
    return mixed, lower


def _same_nodes(got, want):
    assert got.shape == want.shape
    return all(got[idx] is want[idx] for idx in np.ndindex(want.shape))


@pytest.mark.parametrize("name", ["sphere2", "schwarzschild",
                                  "painleve-gullstrand",
                                  "kerr-boyer-lindquist"])
def test_einsum_builders_return_the_loop_nodes(name, catalog):
    spec = catalog.get(name) or get_manifold(
        str(Path(__file__).parent / "data" / f"{name}.metric"))
    session = GeometrySession(spec)
    g, g_inv, conn = session.metric, session.g_inv, session.conn
    lower, mixed = _loop_christoffel(g, g_inv)
    assert _same_nodes(conn.lower.comps, lower)
    assert _same_nodes(conn.mixed.comps, mixed)
    assert _same_nodes(session.precurrent.comps,
                       _loop_precurrents(session.chart, session.curl.comps,
                                         conn.mixed.comps))
    r_mixed, r_lower = _loop_riemann(conn.mixed.comps, g)
    assert _same_nodes(session.riemann_mixed.comps, r_mixed)
    assert _same_nodes(session.riemann_lower.comps, r_lower)


# ---------------------------------------------------------------------------
# only the factorization simplifies
# ---------------------------------------------------------------------------

#: every symbolic object a GeometrySession builds
SESSION_TENSORS = ("g_inv", "conn", "conn_factored", "curl", "sym_deriv",
                   "sym_deriv_alt", "sym_trace", "precurrent", "current",
                   "riemann", "parts", "ricci", "scalar", "einstein",
                   "factored", "einstein_divergence", "metric_compat",
                   "lie_deriv")


@pytest.mark.parametrize("target", [
    "schwarzschild", "flrw-flat", str(DATA / "painleve-gullstrand.metric"),
    str(DATA / "kerr-boyer-lindquist.metric")],
    ids=lambda t: Path(t).stem)
def test_geometry_builders_never_simplify(target, monkeypatch):
    session = GeometrySession(get_manifold(target), seed=42)
    session.forms, session.metric.ldl      # the factorization simplifies
    calls = []
    simplify = ex.simplify
    monkeypatch.setattr(ex, "simplify",
                        lambda e: calls.append(e) or simplify(e))
    for name in SESSION_TENSORS:
        getattr(session, name)
    session.parts.total, session.factored.einstein
    classical_rhs(session.conn)
    factored_rhs(session.forms, session.curl, session.g_inv)
    assert len(calls) == 0
