import math

import numpy as np
import pytest

from ddelyap.drivers import DriverSpec, _stream, realize
from ddelyap.fibers import (
    GridSpec,
    SubspaceFrame,
    containment_angle,
    embedding_matrix,
    orthonormalize,
    principal_angles,
)
from ddelyap.oracles import characteristic_roots, monodromy_exponents, monodromy_frames
from ddelyap.propagation import assemble_unit_operator, unit_step_block
from ddelyap.spectrum import (
    SpectrumConfig,
    compare_fibers,
    oseledets_frames,
    probe_block,
    qr_spectrum,
    required_window,
    step_bound_slopes,
    temperedness_check,
    top_exponent,
    vector_growth_rate,
)

OMEGA = 0.5671432904097838


def make_driver(kind, seed=2024, scale=0.5, window=None, config=None):
    rng = np.random.default_rng(3)
    if kind == "zero":
        spec = DriverSpec("constant", 2, {"A0": np.zeros((2, 2)), "B0": np.zeros((2, 2))}, seed=seed)
    elif kind == "delay_identity":
        spec = DriverSpec("constant", 2, {"A0": np.zeros((2, 2)), "B0": np.eye(2)}, seed=seed)
    elif kind == "ode_diag":
        spec = DriverSpec("constant", 2, {"A0": np.diag([-1.0, -2.0]), "B0": np.zeros((2, 2))}, seed=seed)
    elif kind == "telegraph":
        A1 = np.array([[0.2, 0.5], [-0.3, -0.4]])
        B1 = np.array([[0.6, -0.2], [0.1, 0.5]])
        A2 = np.array([[-0.5, 0.1], [0.2, 0.3]])
        B2 = np.array([[-0.3, 0.4], [0.5, -0.1]])
        spec = DriverSpec(
            "telegraph",
            2,
            {"states": [(A1, B1), (A2, B2)], "generator": [[-1.0, 1.0], [1.0, -1.0]]},
            seed=seed,
        )
    else:
        raise ValueError(kind)
    if window is None:
        window = required_window(config)
    return realize(spec, window)


@pytest.fixture(scope="module")
def zero_cfg():
    return SpectrumConfig(k=3, horizon=40, transient=5, push_steps=10, filtration_steps=8)


@pytest.fixture(scope="module")
def zero_driver(zero_cfg):
    return make_driver("zero", config=zero_cfg)


class TestTopExponent:
    def test_frozen_dynamics_rate_zero(self, zero_driver, zero_cfg):
        g = GridSpec(32)
        te = top_exponent(zero_driver, "continuous", g, zero_cfg)
        assert abs(te.value) <= 1e-8
        te_l = top_exponent(zero_driver, "lp", g, zero_cfg)
        assert abs(te_l.value) <= 1e-8

    def test_pure_delay_identity(self):
        cfg = SpectrumConfig(k=1, horizon=120, transient=20, push_steps=10, filtration_steps=8)
        drv = make_driver("delay_identity", config=cfg)
        g = GridSpec(64)
        te = top_exponent(drv, "continuous", g, cfg)
        assert te.value == pytest.approx(OMEGA, abs=1e-3)

    def test_ode_rate(self):
        cfg = SpectrumConfig(k=1, horizon=80, transient=15, push_steps=10, filtration_steps=8)
        drv = make_driver("ode_diag", config=cfg)
        g = GridSpec(64)
        te = top_exponent(drv, "continuous", g, cfg)
        assert te.value == pytest.approx(-1.0, abs=1e-6)


class TestQRSpectrum:
    def test_floor_detection_past_rank(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        qr = qr_spectrum(zero_driver, "continuous", g, zero_cfg)
        assert np.allclose(qr.exponents[:2], 0.0, atol=1e-10)
        assert qr.floor_flags[2]
        assert qr.exponents[2] <= -20.0 * 0.999
        assert len(qr.groups) == 1 and qr.groups[0]["multiplicity"] == 2

    def test_ode_two_rates(self):
        cfg = SpectrumConfig(k=2, horizon=80, transient=15, push_steps=10, filtration_steps=8)
        drv = make_driver("ode_diag", config=cfg)
        g = GridSpec(64)
        qr = qr_spectrum(drv, "continuous", g, cfg)
        assert qr.exponents[0] == pytest.approx(-1.0, abs=1e-4)
        assert qr.exponents[1] == pytest.approx(-2.0, abs=1e-4)

    def test_probe_scaling_invariance(self):
        cfg = SpectrumConfig(k=2, horizon=60, transient=10, push_steps=10, filtration_steps=8)
        drv = make_driver("telegraph", config=cfg)
        g = GridSpec(24)
        probe = probe_block(drv, "continuous", g, 2)
        a = qr_spectrum(drv, "continuous", g, cfg, probe=probe)
        # the scale lands in the first R record, which the transient discards
        b = qr_spectrum(drv, "continuous", g, cfg, probe=probe * 37.5)
        assert np.max(np.abs(a.exponents - b.exponents)) <= 1e-6

    def test_k1_matches_top(self):
        cfg = SpectrumConfig(k=1, horizon=60, transient=10, push_steps=10, filtration_steps=8)
        drv = make_driver("telegraph", config=cfg)
        g = GridSpec(24)
        qr = qr_spectrum(drv, "continuous", g, cfg)
        te = top_exponent(drv, "continuous", g, cfg)
        assert abs(qr.exponents[0] - te.value) <= 1e-6

    def test_renorm_interval_independence(self):
        drv = make_driver(
            "telegraph",
            config=SpectrumConfig(k=2, horizon=200, transient=40, push_steps=10, filtration_steps=8),
        )
        g = GridSpec(24)
        results = []
        for re in (1, 5, 10):
            cfg = SpectrumConfig(
                k=2, horizon=200, transient=40, renorm_every=re, push_steps=10, filtration_steps=8
            )
            probe = probe_block(drv, "continuous", g, 2)
            results.append(qr_spectrum(drv, "continuous", g, cfg, probe=probe).exponents)
        for other in results[1:]:
            assert np.max(np.abs(results[0] - other)) <= 1e-6


def reference_qr(driver, fiber_kind, grid, config):
    """Plain-loop discrete QR: unit_step_block, then signed QR every renorm_every steps."""
    Q = probe_block(driver, fiber_kind, grid, config.k)
    reseed = _stream(driver.spec.seed, 17)
    floor_inc = config.floor_rate * config.renorm_every
    records, reseeds = [], 0
    for step in range(config.horizon):
        Q = unit_step_block(driver, float(step), fiber_kind, Q, grid)
        if (step + 1) % config.renorm_every == 0:
            Q, R = np.linalg.qr(Q)
            Q = Q * np.where(np.diag(R) < 0, -1.0, 1.0)
            with np.errstate(divide="ignore"):
                inc = np.log(np.abs(np.diag(R)))
            dead = ~np.isfinite(inc) | (inc < floor_inc)
            inc[dead] = floor_inc
            if dead.any():
                fresh = reseed.standard_normal((Q.shape[0], int(dead.sum())))
                fresh -= Q @ (Q.T @ fresh)
                Q[:, dead] = fresh / np.linalg.norm(fresh, axis=0)
                reseeds += int(dead.sum())
            records.append(inc)
    transient = math.ceil(config.effective_transient / config.renorm_every)
    expo = (np.array(records[transient:]) / config.renorm_every).mean(axis=0)
    return np.sort(expo)[::-1], reseeds


class TestPlainLoopReference:
    @pytest.mark.parametrize("renorm_every", [1, 3])
    def test_qr_spectrum_with_reseeds(self, zero_driver, zero_cfg, renorm_every):
        # rank-2 unit step with k = 3: the third column dies and is reseeded
        cfg = SpectrumConfig(k=3, horizon=40, transient=6, renorm_every=renorm_every, floor_rate=-5.0)
        g = GridSpec(16)
        qr = qr_spectrum(zero_driver, "continuous", g, cfg)
        expo, reseeds = reference_qr(zero_driver, "continuous", g, cfg)
        assert np.array_equal(qr.exponents, expo)
        assert qr.reseeds == reseeds == 40 // renorm_every

    @pytest.mark.parametrize("fiber_kind", ["continuous", "lp"])
    def test_qr_spectrum_renorm_interval(self, fiber_kind):
        # horizon 40 is not a multiple of 3: the last step runs without a QR
        cfg = SpectrumConfig(k=2, horizon=40, transient=6, renorm_every=3, push_steps=10)
        drv = make_driver("telegraph", config=cfg)
        g = GridSpec(16)
        qr = qr_spectrum(drv, fiber_kind, g, cfg)
        expo, reseeds = reference_qr(drv, fiber_kind, g, cfg)
        assert np.array_equal(qr.exponents, expo)
        assert qr.reseeds == reseeds == 0

    def test_vector_growth_rate(self):
        cfg = SpectrumConfig(k=1, horizon=40)
        drv = make_driver("telegraph", config=cfg)
        g = GridSpec(16)
        v = np.random.default_rng(1).normal(size=34)
        x = v / np.linalg.norm(v)
        logs = [0.0]
        for t in range(30):
            x = unit_step_block(drv, float(t), "continuous", x, g)
            n = np.linalg.norm(x)
            logs.append(logs[-1] + math.log(n))
            x /= n
        expected = np.polyfit(np.arange(5, 31, dtype=float), logs[5:], 1)[0]
        slope, _ = vector_growth_rate(drv, "continuous", g, v, 30, transient=5)
        assert slope == pytest.approx(expected, abs=1e-12)


class TestStepSizeGuard:
    def test_stiff_decay(self):
        # h |A| = 6.25 at M = 8 lies outside RK4's stability region, where the rate comes out near +28.9
        A, B = -50.0 * np.eye(2), 0.5 * np.eye(2)
        cfg = SpectrumConfig(k=1, horizon=200, transient=30)
        drv = realize(DriverSpec("constant", 2, {"A0": A, "B0": B}), required_window(cfg))
        with pytest.raises(ValueError, match="grid.M"):
            qr_spectrum(drv, "continuous", GridSpec(8), cfg)
        root = characteristic_roots(A, B, 1)[0].value
        qr = qr_spectrum(drv, "continuous", GridSpec(32), cfg)
        assert qr.exponents[0] == pytest.approx(root.real, abs=1e-2)


def test_push_beyond_realized_window_raises():
    # a telegraph path realized on (-5, 10) once gave a top exponent of 0.409 at horizon 150
    spec = DriverSpec(
        "telegraph",
        2,
        {
            "states": [
                (np.array([[0.2, 0.5], [-0.3, -0.4]]), np.array([[0.6, -0.2], [0.1, 0.5]])),
                (np.array([[-0.5, 0.1], [0.2, 0.3]]), np.array([[-0.3, 0.4], [0.5, -0.1]])),
            ],
            "generator": [[-1.0, 1.0], [1.0, -1.0]],
        },
        seed=7,
    )
    drv = realize(spec, (-5.0, 10.0))
    with pytest.raises(ValueError, match="outside realized window"):
        qr_spectrum(drv, "continuous", GridSpec(16), SpectrumConfig(k=2, horizon=150, transient=30))


def test_qr_matches_close_complex_root_pairs():
    # the pairs -1.74742 +- 4.41633i and -2.04179 +- 4.50620i lie 0.29 apart in real part
    A, B = np.array([[-0.5, 0.3], [0.1, -1.0]]), np.array([[0.8, 0.2], [0.0, 0.6]])
    cfg = SpectrumConfig(k=6, horizon=300)
    drv = realize(DriverSpec("constant", 2, {"A0": A, "B0": B}), required_window(cfg))
    qr = qr_spectrum(drv, "continuous", GridSpec(32), cfg)
    roots = [r.value.real for r in characteristic_roots(A, B, 6)]
    assert qr.exponents == pytest.approx(roots, abs=5e-3)


@pytest.fixture(scope="module")
def periodic_setup():
    spec = DriverSpec(
        "quasi_periodic",
        2,
        {
            "freqs": [2.0 * np.pi],
            "a0": [[-0.2, 0.5], [0.0, -0.5]],
            "b0": [[0.8, 0.1], [0.2, -0.6]],
            "a_cos": [[[0.3, 0.0], [0.1, -0.2]]],
            "a_sin": [[[0.0, 0.25], [-0.3, 0.1]]],
            "b_cos": [[[0.2, -0.1], [0.0, 0.3]]],
            "b_sin": [[[-0.15, 0.2], [0.1, 0.0]]],
        },
        seed=11,
    )
    # k=5 keeps whole complex pairs inside the block; a cut pair member
    # only time-averages at 1/T while the pair mean converges geometrically
    cfg = SpectrumConfig(k=5, horizon=240, transient=48, push_steps=90, filtration_steps=70)
    drv = realize(spec, required_window(cfg))
    g = GridSpec(32)
    return drv, g, cfg


class TestPeriodicVsMonodromy:
    def test_exponents_match_monodromy_eigensolve(self, periodic_setup):
        drv, g, cfg = periodic_setup
        qr = qr_spectrum(drv, "continuous", g, cfg)
        grouped = np.concatenate([[gr["value"]] * gr["multiplicity"] for gr in qr.groups])
        mono = monodromy_exponents(assemble_unit_operator(drv, 0.0, "continuous", g).matrix, 4)
        n = min(4, len(grouped))
        assert np.max(np.abs(grouped[:n] - mono[:n])) <= 1e-6

    def test_frames_match_monodromy_eigenvectors(self, periodic_setup):
        drv, g, cfg = periodic_setup
        rep = oseledets_frames(drv, "continuous", g, cfg)
        groups = monodromy_frames(assemble_unit_operator(drv, 0.0, "continuous", g).matrix)
        for i in range(len(rep.groups)):
            ang = np.max(principal_angles(rep.E_frames[0][i], groups[i][1]))
            assert ang <= 1e-4


class TestOseledetsFrames:
    def test_trivial_invariant_spaces_continuous(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        rep = oseledets_frames(zero_driver, "continuous", g, zero_cfg)
        # E1 is the constant segments
        const = np.zeros((17 * 2, 2))
        for n in range(2):
            const[n::2, n] = 1.0
        const /= np.linalg.norm(const, axis=0)
        ang = np.max(principal_angles(rep.E_frames[0][0], SubspaceFrame(34, const)))
        assert ang <= 1e-6
        # remainder filtration contains the value-at-zero kernel
        kernel = np.eye(34)[:, : 17 * 2 - 2]  # all nodes except the last one
        assert containment_angle(kernel, rep.F_frames[0][-1]) <= 1e-6

    def test_trivial_invariant_spaces_lp(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        rep = oseledets_frames(zero_driver, "lp", g, zero_cfg)
        d = (16 + 2) * 2
        headless = np.eye(d)[:, 2:]
        assert containment_angle(headless, rep.F_frames[0][-1]) <= 1e-6

    def test_equivariance_and_nesting(self):
        cfg = SpectrumConfig(k=4, horizon=300, transient=50, push_steps=80, filtration_steps=50)
        drv = make_driver("telegraph", config=cfg)
        g = GridSpec(32)
        rep = oseledets_frames(drv, "continuous", g, cfg)
        for ang in rep.diagnostics["equivariance_angles"][0]:
            assert ang <= 1e-6
        # filtration nesting: F_{i+1} frame vectors lie in span(F_i)
        frames = rep.F_frames[0]
        for a, b in zip(frames[:-1], frames[1:]):
            assert containment_angle(b.vectors, a) <= 1e-8

    def test_backward_rates_trivial(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        rep = oseledets_frames(zero_driver, "continuous", g, zero_cfg)
        for slope in rep.diagnostics["backward_slopes"][0]:
            assert abs(slope) <= 1e-8

    def test_backward_rate_check_entry_point(self, zero_driver, zero_cfg):
        # the backward rates of an E frame are read from the report's diagnostics
        g = GridSpec(16)
        rep = oseledets_frames(zero_driver, "continuous", g, zero_cfg)
        slopes = rep.diagnostics["backward_slopes"]
        assert len(slopes) == len(rep.E_frames[0])
        assert len(slopes[0]) == rep.E_frames[0][0].dim
        assert max(abs(s) for s in slopes[0]) <= 1e-8

    def test_backward_rates_constant_cases(self):
        cfg = SpectrumConfig(k=2, horizon=120, transient=20, push_steps=40, filtration_steps=30)
        drv = make_driver("delay_identity", config=cfg)
        g = GridSpec(48)
        rep = oseledets_frames(drv, "continuous", g, cfg)
        for slope in rep.diagnostics["backward_slopes"][0]:
            assert slope == pytest.approx(OMEGA, abs=5e-3)

        cfg2 = SpectrumConfig(k=2, horizon=120, transient=20, push_steps=40, filtration_steps=30)
        drv2 = make_driver("ode_diag", config=cfg2)
        rep2 = oseledets_frames(drv2, "continuous", g, cfg2)
        assert rep2.diagnostics["backward_slopes"][1][0] == pytest.approx(-2.0, abs=1e-3)


class TestVectorRates:
    def test_e1_vector_rate(self):
        cfg = SpectrumConfig(k=2, horizon=150, transient=25, push_steps=50, filtration_steps=40)
        drv = make_driver("delay_identity", config=cfg)
        g = GridSpec(48)
        rep = oseledets_frames(drv, "continuous", g, cfg)
        v = rep.E_frames[0][0].vectors[:, 0]
        slope, cls = vector_growth_rate(
            drv, "continuous", g, v, 100, transient=20, exponents=rep.exponents
        )
        assert slope == pytest.approx(OMEGA, abs=2e-3)
        assert cls == 0

    def test_generic_vector_sees_top(self):
        cfg = SpectrumConfig(k=2, horizon=150, transient=25, push_steps=50, filtration_steps=40)
        drv = make_driver("delay_identity", config=cfg)
        g = GridSpec(48)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(49 * 2,))
        slope, _ = vector_growth_rate(drv, "continuous", g, v, 80, transient=15)
        assert slope == pytest.approx(OMEGA, abs=2e-3)

    def test_dead_vector_classified_minus_inf(self, zero_driver):
        g = GridSpec(16)
        v = np.zeros(34)
        v[0] = 1.0  # value at node s=-1 only; dies after one unit
        slope, cls = vector_growth_rate(zero_driver, "continuous", g, v, 20)
        assert slope == -np.inf and cls == "-inf"


class TestTemperedAndBounds:
    def test_trivial_projection_constant(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        rep = oseledets_frames(zero_driver, "continuous", g, zero_cfg)
        out = temperedness_check(rep, zero_driver, 30, n_samples=7)
        for slope in out["slopes"].values():
            assert abs(slope) <= 1e-10

    def test_constant_coefficient_slopes(self):
        cfg = SpectrumConfig(k=2, horizon=200, transient=30, push_steps=40, filtration_steps=30)
        drv = make_driver("delay_identity", window=(-42.0, 232.0))
        g = GridSpec(32)
        rep = oseledets_frames(drv, "continuous", g, cfg)
        out = temperedness_check(rep, drv, 200, n_samples=11)
        for slope in out["slopes"].values():
            assert abs(slope) <= 1e-2

    def test_filtration_past_window_raises(self):
        cfg = SpectrumConfig(k=1, horizon=20, transient=5, push_steps=10, filtration_steps=8)
        drv = make_driver("delay_identity", config=cfg)  # realized on (-12, 22)
        rep = oseledets_frames(drv, "continuous", GridSpec(16), cfg)
        # the filtration at t = 20 reaches t = 28
        with pytest.raises(ValueError, match="outside realized window"):
            temperedness_check(rep, drv, 20, n_samples=2)

    def test_bound_slopes_constant_zero(self):
        drv = make_driver("delay_identity", window=(-42.0, 42.0))
        out = step_bound_slopes(drv, 40, GridSpec(16))
        assert abs(out["c_slope_forward"]) <= 1e-12
        assert abs(out["d_slope_forward"]) <= 1e-12
        assert abs(out["c_slope_backward"]) <= 1e-12


class TestCompare:
    def test_trivial_all_pass(self, zero_driver, zero_cfg):
        g = GridSpec(16)
        pc = probe_block(zero_driver, "continuous", g, zero_cfg.k)
        pl = orthonormalize(embedding_matrix(g, 2) @ pc).vectors
        rc = oseledets_frames(zero_driver, "continuous", g, zero_cfg, probe=pc)
        rl = oseledets_frames(zero_driver, "lp", g, zero_cfg, probe=pl)
        cmp = compare_fibers(rc, rl, g, 2)
        assert cmp.all_pass
        assert np.max(cmp.exponent_gaps) <= 1e-8
        assert max(cmp.e_angles) <= 1e-8

    def test_delay_identity_top_gap(self):
        cfg = SpectrumConfig(k=2, horizon=150, transient=25, push_steps=40, filtration_steps=30)
        drv = make_driver("delay_identity", config=cfg)
        g = GridSpec(48)
        pc = probe_block(drv, "continuous", g, 2)
        pl = orthonormalize(embedding_matrix(g, 2) @ pc).vectors
        rc = oseledets_frames(drv, "continuous", g, cfg, probe=pc)
        rl = oseledets_frames(drv, "lp", g, cfg, probe=pl)
        assert abs(rc.exponents[0] - OMEGA) <= 1e-3
        assert abs(rc.exponents[0] - rl.exponents[0]) <= 1e-4
        cmp = compare_fibers(rc, rl, g, 2)
        assert cmp.all_pass


def test_push_rejects_non_finite_blocks():
    # B = 1e308 I overflows within one unit step; the QR run must not turn the
    # infinities into a floor-flagged exponent
    spec = DriverSpec("constant", 2, {"A0": np.zeros((2, 2)), "B0": 1e308 * np.eye(2)})
    drv = realize(spec, (-5.0, 50.0))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"QR spectrum: the unit step from t = 0\.0 gave a non-finite block"):
        qr_spectrum(drv, "continuous", GridSpec(8), SpectrumConfig(k=1, horizon=40))
