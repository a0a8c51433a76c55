import math

import numpy as np
import pytest

from ddelyap.audits import audit_many, random_smooth_segment
from ddelyap.drivers import DriverSpec, realize
from ddelyap.fibers import (
    ContinuousSegment,
    GridSpec,
    LpSegment,
    embed_segment,
    fiber_dim,
    norm_c,
    norm_lp,
)
from ddelyap.propagation import (
    _flows,
    assemble_unit_operator,
    evolve_l_to_c,
    fundamental_matrix,
    lc_operator_singular_values,
    orbit_step_bounds,
    propagate,
    step_bounds,
    unit_step_block,
    unit_step_c,
    unit_step_l,
)
from ddelyap.spectrum import step_bound_slopes


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


# Plain per-piece RK4 reference for the block step: one RK4 span per gap
# between output breakpoints, split at switch times, scalar coefficient and
# history samples at every stage time.


def _ref_nodes_eval(values, xi):
    last = values.shape[0] - 1
    xi = min(max(xi, 0.0), float(last))
    i = int(math.floor(xi))
    if float(i) == xi:
        return values[i]
    i0 = min(max(i - 1, 0), last - 3)
    t = xi - i0
    w = (
        -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
        t * (t - 2.0) * (t - 3.0) / 2.0,
        -t * (t - 1.0) * (t - 3.0) / 2.0,
        t * (t - 1.0) * (t - 2.0) / 6.0,
    )
    return sum(w[j] * values[i0 + j] for j in range(4))


def _ref_rk4_piece(driver, a, b, z, forcing):
    delta, mid = b - a, 0.5 * (a + b)
    if driver.piecewise_constant:
        (A_a, B_a) = (A_m, B_m) = (A_b, B_b) = driver.matrices(mid)
    else:
        (A_a, B_a), (A_m, B_m), (A_b, B_b) = (driver.matrices(t) for t in (a, mid, b))
    g_a, g_m, g_b = B_a @ forcing(a), B_m @ forcing(mid), B_b @ forcing(b)
    k1 = A_a @ z + g_a
    k2 = A_m @ (z + 0.5 * delta * k1) + g_m
    k3 = A_m @ (z + 0.5 * delta * k2) + g_m
    k4 = A_b @ (z + delta * k3) + g_b
    return z + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_rk4_span(driver, a, b, z, forcing):
    eps = 1e-12
    cuts = driver.switch_times_in(a + eps, b - eps)
    if cuts.size == 0:
        return _ref_rk4_piece(driver, a, b, z, forcing)
    times = np.concatenate([[a], cuts, [b]])
    for lo, hi in zip(times[:-1], times[1:]):
        if hi - lo >= eps:
            z = _ref_rk4_piece(driver, lo, hi, z, forcing)
    return z


def reference_span_block(driver, base_time, fiber_kind, X, grid, f):
    N, M, h = driver.dimension, grid.M, grid.h
    K = X.shape[1]
    if fiber_kind == "continuous":
        hist = X.reshape(M + 1, N, K)
        z = hist[-1]
    else:
        z = X[:N]
        hist = X[N:].reshape(M + 1, N, K)
    shift = f * M
    first = M - int(math.floor(shift))
    times = [base_time + (j + shift - M) * h for j in range(first, M + 1)]
    lead = times[0] > base_time
    if lead:
        times.insert(0, base_time)
    out = [z]
    for a, b in zip(times[:-1], times[1:]):
        z = _ref_rk4_span(driver, a, b, z, lambda t: _ref_nodes_eval(hist, (t - base_time) * M))
        out.append(z)
    out = [_ref_nodes_eval(hist, j + shift) for j in range(first)] + out[1 if lead else 0 :]
    flat = np.array(out).reshape(-1, K)
    return flat if fiber_kind == "continuous" else np.vstack([out[-1], flat])


def block_step(driver, base_time, fiber_kind, X, grid, f):
    """The program's block step through public entry points: a unit step or a fractional propagate."""
    if f == 1.0:
        return unit_step_block(driver, base_time, fiber_kind, X, grid)
    cls = ContinuousSegment if fiber_kind == "continuous" else LpSegment
    cols = [
        propagate(driver, base_time, cls.from_coords(grid, x, driver.dimension), f).coords()
        for x in X.T
    ]
    return np.column_stack(cols)


class TestAffineChainMatchesPiecewiseRK4:
    @pytest.fixture
    def drivers(self, telegraph_driver, qp_driver):
        rng = np.random.default_rng(17)
        return {
            "constant": constant_driver(0.5 * rng.normal(size=(2, 2)), 0.5 * rng.normal(size=(2, 2))),
            "quasi_periodic": qp_driver,
            "telegraph": telegraph_driver,
            "shifted": telegraph_driver.shifted(0.37),
        }

    @pytest.mark.parametrize("name", ["constant", "quasi_periodic", "telegraph", "shifted"])
    @pytest.mark.parametrize("fiber_kind", ["continuous", "lp"])
    @pytest.mark.parametrize("f", [1.0, 0.37])
    def test_matches_reference(self, drivers, name, fiber_kind, f):
        drv = drivers[name]
        g = GridSpec(16)
        X = np.random.default_rng(18).normal(size=(fiber_dim(g, 2, fiber_kind), 3))
        for base in (1.3, 4.0):
            ref = reference_span_block(drv, base, fiber_kind, X, g, f)
            new = block_step(drv, base, fiber_kind, X, g, f)
            assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["constant", "quasi_periodic", "telegraph", "shifted"])
    def test_unforced_fundamental_matrix(self, drivers, name):
        drv = drivers[name]
        n, t1, t2 = 40, 1.3, 2.1
        h = (t2 - t1) / n
        Z = np.eye(2)
        for j in range(n):
            Z = _ref_rk4_span(drv, t1 + j * h, t1 + (j + 1) * h, Z, lambda t: np.zeros((2, 2)))
        new = fundamental_matrix(drv, t1, t2, substeps=n).matrix
        assert np.max(np.abs(new - Z)) <= 1e-12 * np.max(np.abs(Z))

    @pytest.mark.parametrize("fiber_kind", ["continuous", "lp"])
    @pytest.mark.parametrize("f", [1.0, 0.37])
    def test_switch_next_to_a_node(self, telegraph_driver, fiber_kind, f):
        # a switch 5e-14 before output node 10: the cut is dropped, not split off
        g = GridSpec(16)
        s = telegraph_driver.switch_times[telegraph_driver.switch_times > 2.0][0]
        base = s - (10 + f * g.M - g.M) * g.h + 5e-14
        node = base + (10 + f * g.M - g.M) * g.h
        assert 0.0 < node - s < 1e-13
        X = np.random.default_rng(19).normal(size=(fiber_dim(g, 2, fiber_kind), 3))
        ref = reference_span_block(telegraph_driver, base, fiber_kind, X, g, f)
        new = block_step(telegraph_driver, base, fiber_kind, X, g, f)
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


# Plain per-span reference for the stacked flows: each gap split at switch
# times, every piece's RK4 map built from I with its own coefficient samples,
# and the maps chained Z <- R_p Z span by span.


def _ref_rk4_map(driver, lo, hi):
    delta, mid, I = hi - lo, 0.5 * (lo + hi), np.eye(driver.dimension)
    if driver.piecewise_constant:
        A_a = A_m = A_b = driver.matrices(mid)[0]
    else:
        A_a, A_m, A_b = driver.matrices_at(np.array([lo, mid, hi]))[0]
    k1 = A_a @ I
    k2 = A_m @ (I + 0.5 * delta * k1)
    k3 = A_m @ (I + 0.5 * delta * k2)
    k4 = A_b @ (I + delta * k3)
    return I + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_flows(driver, times):
    eps, N = 1e-12, driver.dimension
    out = np.empty(times.shape + (N, N))
    for s, span in enumerate(times):
        Z = out[s, 0] = np.eye(N)
        for j, (a, b) in enumerate(zip(span[:-1], span[1:]), start=1):
            edges = np.concatenate([[a], driver.switch_times_in(a + eps, b - eps), [b]])
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi - lo >= eps or hi == b:
                    Z = _ref_rk4_map(driver, lo, hi) @ Z
            out[s, j] = Z
    return out


def reference_c(phis):
    """Largest SVD norm, floored at 1, of the flows between the node pairs i < j of each span."""
    return np.array([
        max(1.0, max(np.linalg.svd(P[j] @ np.linalg.inv(P[i]), compute_uv=False)[0]
                     for i in range(len(P)) for j in range(i + 1, len(P))))
        for P in phis
    ])


def spans(bases, M):
    return np.asarray(bases, dtype=float)[:, None] + np.arange(M + 1) * (1.0 / M)


class TestStackedFlows:
    @pytest.fixture
    def drivers(self, telegraph_driver, qp_driver):
        rng = np.random.default_rng(24)
        fast = DriverSpec(
            "telegraph",
            2,
            {
                "states": [(rng.normal(size=(2, 2)) * 0.4, np.eye(2)), (rng.normal(size=(2, 2)) * 0.4, -np.eye(2))],
                "generator": [[-20.0, 20.0], [20.0, -20.0]],
            },
            seed=3,
        )
        return {
            "constant": constant_driver(0.5 * rng.normal(size=(2, 2)), 0.5 * rng.normal(size=(2, 2))),
            "quasi_periodic": qp_driver,
            "telegraph": telegraph_driver,
            "shifted": telegraph_driver.shifted(0.37),
            "telegraph_rate_20": realize(fast, (-6.0, 25.0)),
        }

    @pytest.mark.parametrize("name", ["constant", "quasi_periodic", "telegraph", "shifted", "telegraph_rate_20"])
    @pytest.mark.parametrize("M", [32, 49])
    @pytest.mark.parametrize("bases", [[-2.0, -1.0, 0.0, 1.0, 2.0], [1.3], [1.0, 2.5, 4.0]])
    def test_matches_per_span_chain(self, drivers, name, M, bases):
        # touching spans, one span, and spans with gaps whose pieces are dropped
        times = spans(bases, M)
        assert np.array_equal(_flows(drivers[name], times), reference_flows(drivers[name], times))

    def test_span_ends_miss_the_next_base(self):
        # why the pieces joining consecutive spans are dropped, not integrated
        times = spans([-1.0, 0.0, 1.0], 49)
        assert times[0, -1] != times[1, 0] and times[1, -1] != times[2, 0]

    @pytest.mark.parametrize("offset", [5e-14, -5e-14])
    def test_switch_next_to_an_integer_base(self, telegraph_driver, offset):
        s = telegraph_driver.switch_times[telegraph_driver.switch_times > 3.0][0]
        drv = telegraph_driver.shifted(s - 3.0 - offset)
        assert np.min(np.abs(drv.switch_times_in(2.5, 3.5) - 3.0)) < 1e-13
        times = spans([1.0, 2.0, 3.0, 4.0], 32)
        assert np.array_equal(_flows(drv, times), reference_flows(drv, times))

    @pytest.mark.parametrize("name", ["quasi_periodic", "telegraph"])
    def test_fundamental_matrix_is_one_span(self, drivers, name):
        n, t1, t2 = 40, 1.3, 2.1
        ref = reference_flows(drivers[name], (t1 + np.arange(n + 1) * ((t2 - t1) / n))[None])
        assert np.array_equal(fundamental_matrix(drivers[name], t1, t2, substeps=n).matrix, ref[0, -1])

    @pytest.mark.parametrize("name", ["constant", "quasi_periodic", "telegraph", "shifted", "telegraph_rate_20"])
    def test_orbit_bounds_match_per_base(self, drivers, name):
        drv, g = drivers[name], GridSpec(32)
        ts = np.arange(-3.0, 9.0)  # more bases than one block holds
        c, d = orbit_step_bounds(drv, ts, g)
        per_base = [step_bounds(drv, t, g) for t in ts]
        assert np.array_equal(d, [sb.d for sb in per_base])
        assert np.allclose(c, [sb.c for sb in per_base], rtol=1e-15, atol=0.0)
        assert np.allclose(c, reference_c(reference_flows(drv, spans(ts, g.M))), rtol=1e-14, atol=0.0)

    def test_overlapping_spans_rejected(self, telegraph_driver):
        with pytest.raises(ValueError, match="overlap"):
            orbit_step_bounds(telegraph_driver, np.array([1.0, 1.5]), GridSpec(16))
        with pytest.raises(ValueError, match="window"):
            orbit_step_bounds(telegraph_driver, np.array([1.0, 24.5]), GridSpec(16))

    def test_slopes_match_per_base(self, telegraph_driver):
        g = GridSpec(32)
        out = step_bound_slopes(telegraph_driver, 4, g)
        for name, ts in (("forward", np.arange(0.0, 5.0)), ("backward", np.arange(-4.0, 1.0))):
            per_base = [step_bounds(telegraph_driver, t, g) for t in ts]
            cs, ds = np.array([sb.c for sb in per_base]), np.array([sb.d for sb in per_base])
            assert out[f"d_range_{name}"] == (ds.min(), ds.max())
            assert np.allclose(out[f"c_range_{name}"], (cs.min(), cs.max()), rtol=1e-15, atol=0.0)
            assert out[f"c_slope_{name}"] == pytest.approx(np.polyfit(ts, np.log(cs), 1)[0], rel=1e-12, abs=1e-18)
            assert out[f"d_slope_{name}"] == pytest.approx(np.polyfit(ts, np.log(ds), 1)[0], rel=1e-12, abs=1e-18)

    def test_three_dimensional_driver(self):
        rng = np.random.default_rng(25)
        spec = DriverSpec(
            "quasi_periodic",
            3,
            {
                "freqs": [2.0 * np.pi],
                "a0": rng.normal(size=(3, 3)) * 0.3,
                "b0": rng.normal(size=(3, 3)) * 0.4,
                "a_cos": rng.normal(size=(1, 3, 3)) * 0.2,
                "a_sin": rng.normal(size=(1, 3, 3)) * 0.2,
                "b_cos": rng.normal(size=(1, 3, 3)) * 0.2,
                "b_sin": rng.normal(size=(1, 3, 3)) * 0.2,
            },
        )
        drv, g = realize(spec, (-2.0, 4.0)), GridSpec(16)
        sb = step_bounds(drv, 0.5, g)
        times = spans([0.5], g.M)
        assert sb.c == pytest.approx(reference_c(reference_flows(drv, times))[0], rel=1e-15, abs=0.0)
        bq = np.linalg.svd(drv.matrices_at(times[0])[1], compute_uv=False)[:, 0] ** drv.spec.q
        assert sb.d == pytest.approx(np.trapezoid(bq, times[0]) ** (1.0 / drv.spec.q), rel=1e-14)


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

    @pytest.mark.parametrize("t", [1 + 77 / 512, 1 + 331 / 512, 2 + 77 / 512])
    def test_lp_whole_span_before_fraction(self, qp_driver, t):
        # pair-fiber data past one span: the whole span smooths the head-density
        # jump before the fraction, so the coarse grid keeps the integrator's order
        rng = np.random.default_rng(16)
        coeffs = rng.normal(size=(4, 2))
        head = rng.normal(size=2)
        out = []
        for M in (64, 512):
            g = GridSpec(M)
            w = propagate(qp_driver, 1.3, LpSegment(g, head, np.polynomial.polynomial.polyval(g.nodes, coeffs).T), t)
            out.append(np.vstack([w.head, w.density]))
        coarse, fine = out
        fine = np.vstack([fine[:1], fine[1::8]])
        assert np.max(np.abs(coarse - fine)) <= 1e-5 * np.max(np.abs(fine))

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

    def test_two_unit_steps_are_the_l_to_c_step(self, telegraph_driver, qp_driver):
        # the identity the audits use to reuse their orbit instead of recomputing it
        g = GridSpec(16)
        rng = np.random.default_rng(15)
        for drv in (telegraph_driver, qp_driver):
            for base in rng.uniform(-4.0, 20.0, 5):
                u = random_smooth_segment(g, 2, rng, "lp")
                ut1 = unit_step_l(drv, base + 1.0, unit_step_l(drv, base, u))
                assert np.array_equal(ut1.density, evolve_l_to_c(drv, base, u, 2.0).values)

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
