import numpy as np
import pytest

from ddelyap.audits import audit_many, random_smooth_segment
from ddelyap.drivers import DriverSpec, realize
from ddelyap.fibers import (
    ContinuousSegment,
    GridSpec,
    LpSegment,
    embed_segment,
    norm_c,
    norm_lp,
)
from ddelyap.propagation import (
    assemble_unit_operator,
    evolve_l_to_c,
    fundamental_matrix,
    lc_operator_singular_values,
    propagate,
    step_bounds,
    unit_step_block,
    unit_step_c,
    unit_step_l,
)


def constant_driver(A0, B0, window=(-3.0, 12.0), seed=0):
    spec = DriverSpec("constant", np.atleast_2d(A0).shape[0], {"A0": A0, "B0": B0}, seed=seed)
    return realize(spec, window)


@pytest.fixture
def telegraph_driver():
    rng = np.random.default_rng(8)
    spec = DriverSpec(
        "telegraph",
        2,
        {
            "states": [
                (rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 2)) * 0.4),
                (rng.normal(size=(2, 2)) * 0.3, rng.normal(size=(2, 2)) * 0.5),
            ],
            "generator": [[-1.0, 1.0], [1.0, -1.0]],
        },
        seed=77,
    )
    return realize(spec, (-6.0, 25.0))


@pytest.fixture
def qp_driver():
    rng = np.random.default_rng(9)
    spec = DriverSpec(
        "quasi_periodic",
        2,
        {
            "freqs": [2.0 * np.pi, np.sqrt(2.0)],
            "a0": rng.normal(size=(2, 2)) * 0.3,
            "b0": rng.normal(size=(2, 2)) * 0.4,
            "a_cos": rng.normal(size=(2, 2, 2)) * 0.2,
            "a_sin": rng.normal(size=(2, 2, 2)) * 0.2,
            "b_cos": rng.normal(size=(2, 2, 2)) * 0.2,
            "b_sin": rng.normal(size=(2, 2, 2)) * 0.2,
        },
        seed=5,
    )
    return realize(spec, (-6.0, 25.0))


class TestFundamentalMatrix:
    def test_zero_matrix_gives_identity(self):
        drv = constant_driver(np.zeros((2, 2)), np.zeros((2, 2)))
        fm = fundamental_matrix(drv, 0.3, 0.9)
        assert np.allclose(fm.matrix, np.eye(2), atol=1e-14)

    def test_equal_times_identity(self, telegraph_driver):
        fm = fundamental_matrix(telegraph_driver, 1.5, 1.5)
        assert np.array_equal(fm.matrix, np.eye(2))

    def test_diagonal_exponential(self):
        A = np.diag([-1.0, -2.0])
        drv = constant_driver(A, np.zeros((2, 2)))
        fm = fundamental_matrix(drv, 0.0, 1.0)
        assert np.allclose(fm.matrix, np.diag([np.e**-1.0, np.e**-2.0]), atol=1e-8)

    def test_exponential_norm_bound(self, telegraph_driver, qp_driver):
        rng = np.random.default_rng(0)
        for drv in (telegraph_driver, qp_driver):
            for _ in range(10):
                t1 = rng.uniform(-2.0, 8.0)
                t2 = t1 + rng.uniform(0.05, 1.0)
                fm = fundamental_matrix(drv, t1, t2)
                bound = np.exp(drv.a_integral(t1, t2))
                assert np.linalg.norm(fm.matrix, 2) <= bound * (1.0 + 1e-8)

    def test_span_longer_than_unit_rejected(self, telegraph_driver):
        with pytest.raises(ValueError):
            fundamental_matrix(telegraph_driver, 0.0, 1.5)


class TestStepBounds:
    def test_zero_a_gives_c_one(self):
        drv = constant_driver(np.zeros((2, 2)), np.eye(2))
        sb = step_bounds(drv, 0.0, GridSpec(16))
        assert sb.c == pytest.approx(1.0)
        assert sb.d == pytest.approx(1.0, abs=1e-12)

    def test_zero_b_gives_d_zero(self):
        drv = constant_driver(np.eye(2), np.zeros((2, 2)))
        sb = step_bounds(drv, 0.0, GridSpec(16))
        assert sb.d == 0.0

    def test_c_below_exponential_bound(self, telegraph_driver):
        sb = step_bounds(telegraph_driver, 0.7, GridSpec(32))
        assert 1.0 <= sb.c <= sb.c_upper * (1.0 + 1e-8)

    def test_constant_scalar_c_attains_exponential(self):
        drv = constant_driver(0.8 * np.eye(2), np.zeros((2, 2)))
        sb = step_bounds(drv, 0.0, GridSpec(32))
        assert sb.c == pytest.approx(np.exp(0.8), rel=1e-7)


class TestUnitStep:
    def test_no_dynamics_freezes_head_value(self):
        drv = constant_driver(np.zeros((2, 2)), np.zeros((2, 2)))
        g = GridSpec(8)
        rng = np.random.default_rng(1)
        u = ContinuousSegment(g, rng.normal(size=(9, 2)))
        z = unit_step_c(drv, 0.0, u)
        assert np.allclose(z.values, np.tile(u.values[-1], (9, 1)), atol=1e-14)

    def test_pure_delay_ramp(self):
        # z' = z(t-1) from a constant segment v gives z(t) = (1 + t) v
        drv = constant_driver(np.zeros((2, 2)), np.eye(2))
        g = GridSpec(16)
        v = np.array([0.5, -2.0])
        u = ContinuousSegment(g, np.tile(v, (17, 1)))
        z = unit_step_c(drv, 0.0, u)
        expected = np.outer(2.0 + g.nodes, v)
        assert np.max(np.abs(z.values - expected)) < 1e-6

    def test_variation_of_constants_oracle(self, qp_driver):
        # independent oracle at small M: quadrature of the one-span solution formula
        g = GridSpec(12)
        rng = np.random.default_rng(2)
        u = random_smooth_segment(g, 2, rng, "lp")
        drv = qp_driver
        base = 0.25
        fine = 12 * 16

        def hist(tau):
            # same local cubic evaluation the integrator uses, on the stored nodes
            from ddelyap.propagation import _nodes_eval

            return _nodes_eval(u.density[:, :, None], (tau + 1.0) * g.M)[:, 0]

        ts = np.linspace(0.0, 1.0, fine + 1)
        vals = []
        for tau in ts:
            B = drv.matrices(base + tau)[1]
            phi = fundamental_matrix(drv, base + tau, base + 1.0, substeps=64).matrix
            vals.append(phi @ (B @ hist(tau - 1.0)))
        integral = np.trapezoid(np.array(vals), ts, axis=0)
        phi0 = fundamental_matrix(drv, base, base + 1.0, substeps=12 * 8).matrix
        oracle = phi0 @ u.head + integral

        out = unit_step_l(drv, base, u)
        assert np.linalg.norm(out.head - oracle) < 1e-5

    def test_growth_bound_c_fiber(self, telegraph_driver):
        g = GridSpec(24)
        rng = np.random.default_rng(3)
        sb = step_bounds(telegraph_driver, 2.0, g)
        for _ in range(10):
            u = random_smooth_segment(g, 2, rng)
            z = unit_step_c(telegraph_driver, 2.0, u)
            assert norm_c(z) <= 3.0 * sb.c * (1.0 + sb.d) * norm_c(u) * (1.0 + 1e-9)

    def test_growth_bound_l_fiber(self, telegraph_driver):
        g = GridSpec(24)
        rng = np.random.default_rng(4)
        sb = step_bounds(telegraph_driver, 2.0, g)
        for _ in range(10):
            u = random_smooth_segment(g, 2, rng, "lp")
            z = unit_step_l(telegraph_driver, 2.0, u)
            assert norm_lp(z) <= 3.0 * sb.c * (1.0 + sb.d) * norm_lp(u) * (1.0 + 1e-9)

    def test_zero_in_zero_out(self, telegraph_driver):
        g = GridSpec(8)
        u = LpSegment(g, np.zeros(2), np.zeros((9, 2)))
        z = unit_step_l(telegraph_driver, 0.0, u)
        assert norm_lp(z) == 0.0


class TestIntertwining:
    def test_embed_commutes_exactly(self, telegraph_driver, qp_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(5)
        for drv in (telegraph_driver, qp_driver):
            for base in (0.0, 1.3):
                u = ContinuousSegment(g, rng.normal(size=(17, 2)))
                lhs = embed_segment(unit_step_c(drv, base, u))
                rhs = unit_step_l(drv, base, embed_segment(u))
                assert np.array_equal(lhs.head, rhs.head)
                assert np.array_equal(lhs.density, rhs.density)

    def test_linearity_exact(self, telegraph_driver):
        g = GridSpec(12)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(13, 2))
        b = rng.normal(size=(13, 2))
        za = unit_step_c(telegraph_driver, 0.0, ContinuousSegment(g, a))
        zb = unit_step_c(telegraph_driver, 0.0, ContinuousSegment(g, b))
        zab = unit_step_c(telegraph_driver, 0.0, ContinuousSegment(g, 2.0 * a - 3.0 * b))
        assert np.allclose(zab.values, 2.0 * za.values - 3.0 * zb.values, atol=1e-11)


class TestPropagate:
    def test_time_zero_is_identity(self, telegraph_driver):
        g = GridSpec(8)
        rng = np.random.default_rng(7)
        u = ContinuousSegment(g, rng.normal(size=(9, 2)))
        z = propagate(telegraph_driver, 0.0, u, 0.0)
        assert np.array_equal(z.values, u.values)

    def test_integer_composition_exact(self, telegraph_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(8)
        u = ContinuousSegment(g, rng.normal(size=(17, 2)))
        two = propagate(telegraph_driver, 0.0, u, 2.0)
        comp = unit_step_c(telegraph_driver, 1.0, unit_step_c(telegraph_driver, 0.0, u))
        assert np.array_equal(two.values, comp.values)

    def test_half_then_unit_bracketing(self, telegraph_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(9)
        u = ContinuousSegment(g, rng.normal(size=(17, 2)))
        a = propagate(telegraph_driver, 0.0, u, 1.5)
        b = unit_step_c(telegraph_driver, 0.5, propagate(telegraph_driver, 0.0, u, 0.5))
        assert np.max(np.abs(a.values - b.values)) <= 1e-8

    def test_fractional_cocycle_smooth(self, qp_driver):
        g = GridSpec(64)
        rng = np.random.default_rng(10)
        raw = random_smooth_segment(g, 2, rng)
        u = propagate(qp_driver, 0.0, raw, 2.0)
        t1, t2 = 0.437, 1.293
        x = propagate(qp_driver, 2.0, u, t1 + t2)
        y = propagate(qp_driver, 2.0 + t1, propagate(qp_driver, 2.0, u, t1), t2)
        assert np.max(np.abs(x.values - y.values)) <= 1e-6

    def test_fractional_step_checks_window(self, telegraph_driver):
        g = GridSpec(8)
        u = ContinuousSegment(g, np.ones((9, 2)))
        with pytest.raises(ValueError, match="outside realized window"):
            propagate(telegraph_driver, 24.8, u, 0.7)

    def test_fractional_step_checks_dimension(self, telegraph_driver):
        g = GridSpec(8)
        u = ContinuousSegment(g, np.ones((9, 3)))
        with pytest.raises(ValueError, match="segment dimension 3"):
            propagate(telegraph_driver, 0.0, u, 0.5)

    def test_lp_base_time_node_continuous_in_f(self, qp_driver):
        g = GridSpec(16)
        u = random_smooth_segment(g, 2, np.random.default_rng(15), "lp")
        assert np.max(np.abs(u.head - u.density[-1])) > 0.1
        a = propagate(qp_driver, 0.0, u, 0.5)
        b = propagate(qp_driver, 0.0, u, 0.5 + 1e-9)
        # node 8 sits at the base time, where the solution starts from the head
        assert np.array_equal(a.density[8], u.head)
        assert np.max(np.abs(a.density[8] - b.density[8])) <= 1e-6

    @pytest.mark.parametrize("kind", ["continuous", "lp"])
    @pytest.mark.parametrize("t", [77 / 512, 331 / 512])
    def test_fractional_step_matches_fine_grid(self, qp_driver, kind, t):
        # cubic data is read exactly from the nodes on both grids; t is off
        # the coarse grid and on the fine one
        rng = np.random.default_rng(16)
        coeffs = rng.normal(size=(4, 2))
        head = rng.normal(size=2)
        out = []
        for M in (64, 512):
            g = GridSpec(M)
            vals = np.polynomial.polynomial.polyval(g.nodes, coeffs).T
            u = ContinuousSegment(g, vals) if kind == "continuous" else LpSegment(g, head, vals)
            w = propagate(qp_driver, 1.3, u, t)
            out.append(w.values if kind == "continuous" else np.vstack([w.head, w.density]))
        coarse, fine = out
        fine = fine[::8] if kind == "continuous" else np.vstack([fine[:1], fine[1::8]])
        assert np.max(np.abs(coarse - fine)) <= 1e-6 * np.max(np.abs(fine))

    def test_negative_time_rejected(self, telegraph_driver):
        g = GridSpec(8)
        u = ContinuousSegment(g, np.zeros((9, 2)))
        with pytest.raises(ValueError):
            propagate(telegraph_driver, 0.0, u, -0.5)


class TestLtoC:
    def test_embedded_input_reduces_to_c_step(self, telegraph_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(11)
        u = ContinuousSegment(g, rng.normal(size=(17, 2)))
        w = evolve_l_to_c(telegraph_driver, 0.0, embed_segment(u), 1.0)
        assert np.array_equal(w.values, unit_step_c(telegraph_driver, 0.0, u).values)

    def test_norm_bound_at_one(self, telegraph_driver):
        g = GridSpec(24)
        rng = np.random.default_rng(12)
        sb = step_bounds(telegraph_driver, 1.0, g)
        for _ in range(10):
            u = random_smooth_segment(g, 2, rng, "lp")
            w = evolve_l_to_c(telegraph_driver, 1.0, u, 1.0)
            assert norm_c(w) <= sb.c * (1.0 + sb.d) * norm_lp(u) * (1.0 + 1e-9)

    def test_embedding_relation_along_orbit(self, telegraph_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(13)
        u = random_smooth_segment(g, 2, rng, "lp")
        for t in (1.0, 2.0, 3.0):
            lhs = embed_segment(evolve_l_to_c(telegraph_driver, 0.0, u, t))
            rhs = propagate(telegraph_driver, 0.0, u, t)
            assert np.max(np.abs(lhs.head - rhs.head)) <= 1e-9
            assert np.max(np.abs(lhs.density - rhs.density)) <= 1e-9

    def test_semigroup_factorization(self, telegraph_driver):
        g = GridSpec(16)
        rng = np.random.default_rng(14)
        u = random_smooth_segment(g, 2, rng, "lp")
        lhs = evolve_l_to_c(telegraph_driver, 0.0, u, 3.0)
        first = evolve_l_to_c(telegraph_driver, 0.0, u, 1.0)
        rhs = propagate(telegraph_driver, 1.0, first, 2.0)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_short_time_rejected(self, telegraph_driver):
        g = GridSpec(8)
        u = LpSegment(g, np.zeros(2), np.zeros((9, 2)))
        with pytest.raises(ValueError):
            evolve_l_to_c(telegraph_driver, 0.0, u, 0.5)


class TestAssembledOperator:
    def test_rank_of_frozen_dynamics(self):
        drv = constant_driver(np.zeros((2, 2)), np.zeros((2, 2)))
        g = GridSpec(8)
        op = assemble_unit_operator(drv, 0.0, "continuous", g)
        assert op.matrix.shape == (18, 18)
        assert np.linalg.matrix_rank(op.matrix, tol=1e-12) == 2

    def test_matches_direct_propagation(self, telegraph_driver):
        g = GridSpec(12)
        rng = np.random.default_rng(15)
        for fiber in ("continuous", "lp"):
            op = assemble_unit_operator(telegraph_driver, 0.0, fiber, g)
            X = rng.normal(size=(op.matrix.shape[1], 20))
            direct = unit_step_block(telegraph_driver, 0.0, fiber, X, g)
            applied = op.matrix @ X
            rel = np.max(np.abs(applied - direct)) / np.max(np.abs(direct))
            assert rel <= 1e-10

    def test_csv_export(self, tmp_path, telegraph_driver):
        g = GridSpec(8)
        op = assemble_unit_operator(telegraph_driver, 0.0, "continuous", g)
        path = tmp_path / "op.csv"
        op.to_csv(path)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, op.matrix, atol=1e-12)

    def test_finite_rank_tail_when_no_delay_term(self):
        drv = constant_driver(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
        sv = lc_operator_singular_values(drv, 0.0, GridSpec(32))
        assert sv[2] / sv[0] < 1e-12
        assert sv.shape[0] == 2 * 33  # min of the two weighted coordinate counts


class TestInequalityAudit:
    def test_no_violations_across_driver_kinds(self, telegraph_driver, qp_driver):
        drivers = [
            telegraph_driver,
            qp_driver,
            constant_driver(0.6 * np.eye(2), np.zeros((2, 2)), window=(-6.0, 25.0)),
        ]
        report = audit_many(drivers, GridSpec(24), 20, seed=3)
        assert report["violations"] == 0
