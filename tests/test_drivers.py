import numpy as np
import pytest

from ddelyap.config import ConfigError, parse_config
from ddelyap.drivers import (
    DriverSpec,
    realize,
    spectral_norm,
    stationary_distribution,
    summability_report,
)


def constant_spec(A0, B0, seed=0, N=None):
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    return DriverSpec("constant", N or A0.shape[0], {"A0": A0, "B0": B0}, seed=seed)


def two_state_spec(states, rates=(1.0, 1.0), seed=0):
    gen = np.array([[-rates[0], rates[0]], [rates[1], -rates[1]]])
    return DriverSpec("telegraph", states[0][0].shape[0], {"states": states, "generator": gen}, seed=seed)


@pytest.fixture
def telegraph_states():
    rng = np.random.default_rng(0)
    return [
        (rng.normal(size=(2, 2)) * 0.5, rng.normal(size=(2, 2)) * 0.5),
        (rng.normal(size=(2, 2)) * 0.5, rng.normal(size=(2, 2)) * 0.5),
    ]


def test_constant_path_everywhere():
    A0, B0 = np.diag([1.0, 2.0]), np.eye(2)
    drv = realize(constant_spec(A0, B0), (-5.0, 5.0))
    for t in (-4.9, 0.0, 3.7):
        sample = drv.coefficients(t)
        assert np.array_equal(sample.A, A0)
        assert np.array_equal(sample.B, B0)
        assert sample.a == pytest.approx(2.0)
        assert sample.b == pytest.approx(1.0)


def test_norms_are_spectral():
    A = np.array([[0.0, 3.0], [0.0, 0.0]])
    drv = realize(constant_spec(A, np.zeros((2, 2))), (0.0, 1.0))
    s = drv.coefficients(0.5)
    assert s.a == pytest.approx(np.linalg.svd(A, compute_uv=False)[0])


def test_single_state_telegraph_is_constant():
    A1, B1 = np.eye(2), 2.0 * np.eye(2)
    spec = DriverSpec(
        "telegraph", 2, {"states": [(A1, B1)], "generator": np.zeros((1, 1))}, seed=3
    )
    drv = realize(spec, (-10.0, 10.0))
    for t in (-9.0, 0.0, 9.9):
        s = drv.coefficients(t)
        assert np.array_equal(s.A, A1)
        assert np.array_equal(s.B, B1)


def test_telegraph_mean_sojourn(telegraph_states):
    drv = realize(two_state_spec(telegraph_states, seed=12345), (0.0, 100.0))
    times = drv.switch_times
    inside = times[(times >= 0.0) & (times <= 100.0)]
    sojourns = np.diff(inside)
    assert abs(np.mean(sojourns) - 1.0) <= 0.1


def test_telegraph_switch_sides(telegraph_states):
    drv = realize(two_state_spec(telegraph_states, seed=7), (0.0, 50.0))
    t_switch = drv.switch_times[(drv.switch_times > 1.0) & (drv.switch_times < 49.0)][0]
    before = drv.coefficients(t_switch - 1e-9)
    after = drv.coefficients(t_switch + 1e-9)
    assert not np.array_equal(before.A, after.A)


def test_determinism_and_overlap(telegraph_states):
    spec = two_state_spec(telegraph_states, seed=99)
    d1 = realize(spec, (-10.0, 30.0))
    d2 = realize(spec, (-10.0, 30.0))
    assert np.array_equal(d1.switch_times, d2.switch_times)
    d3 = realize(spec, (-25.0, 12.0))
    for t in np.linspace(-9.5, 11.5, 101):
        assert np.array_equal(d1.matrices(t)[0], d3.matrices(t)[0])
        assert np.array_equal(d1.matrices(t)[1], d3.matrices(t)[1])


def test_shift_flow_property(telegraph_states):
    drv = realize(two_state_spec(telegraph_states, seed=4), (-20.0, 20.0))
    s = 3.25
    shifted = drv.shifted(s)
    for t in (-5.0, 0.0, 2.5, 11.0):
        a1, b1 = drv.matrices(s + t)
        a2, b2 = shifted.matrices(t)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    # composition of shifts
    again = shifted.shifted(1.5)
    assert np.array_equal(again.matrices(0.0)[0], drv.matrices(s + 1.5)[0])


def test_backward_window(telegraph_states):
    drv = realize(two_state_spec(telegraph_states, seed=11), (-50.0, 1.0))
    sample = drv.coefficients(-49.5)
    assert np.all(np.isfinite(sample.A))


def test_quasi_periodic_periodicity():
    w = 1.7
    rng = np.random.default_rng(2)
    spec = DriverSpec(
        "quasi_periodic",
        2,
        {
            "freqs": [w],
            "a0": rng.normal(size=(2, 2)),
            "b0": rng.normal(size=(2, 2)),
            "a_cos": rng.normal(size=(1, 2, 2)),
            "a_sin": rng.normal(size=(1, 2, 2)),
            "b_cos": rng.normal(size=(1, 2, 2)),
            "b_sin": rng.normal(size=(1, 2, 2)),
        },
        seed=0,
    )
    drv = realize(spec, (0.0, 50.0))
    t = 2.3
    period = 2.0 * np.pi / w
    s1, s2 = drv.coefficients(t), drv.coefficients(t + period)
    assert np.allclose(s1.A, s2.A, atol=1e-12)
    assert np.allclose(s1.B, s2.B, atol=1e-12)


def test_outside_window_raises():
    drv = realize(constant_spec(np.zeros((2, 2)), np.zeros((2, 2))), (0.0, 1.0))
    with pytest.raises(ValueError):
        drv.coefficients(2.0)


def test_invalid_windows_and_generators(telegraph_states):
    spec = two_state_spec(telegraph_states)
    with pytest.raises(ValueError):
        realize(spec, (2.0, 1.0))
    with pytest.raises(ValueError):
        realize(spec, (0.0, np.inf))
    with pytest.raises(ValueError):
        DriverSpec(
            "telegraph",
            2,
            {"states": telegraph_states, "generator": [[0.5, 0.5], [1.0, -1.0]]},
        )
    with pytest.raises(ValueError):
        DriverSpec(
            "telegraph",
            2,
            {"states": telegraph_states, "generator": [[1.0, -1.0], [-1.0, 1.0]]},
        )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_frequency_rejected():
    with pytest.raises(ValueError):
        DriverSpec(
            "quasi_periodic",
            1,
            {
                "freqs": [0.0],
                "a0": [[1.0]],
                "b0": [[0.0]],
                "a_cos": [[[0.0]]],
                "a_sin": [[[0.0]]],
                "b_cos": [[[0.0]]],
                "b_sin": [[[0.0]]],
            },
        )


def test_dimension_one_warns():
    with pytest.warns(UserWarning):
        constant_spec(np.array([[0.5]]), np.array([[0.1]]), N=1)


def test_summability_constant_zero_cases():
    drv = realize(constant_spec(np.zeros((2, 2)), np.eye(2)), (-1.0, 20.0))
    rep = summability_report(drv, 10.0)
    assert rep["mean_a"] == pytest.approx(0.0, abs=1e-12)
    drv2 = realize(constant_spec(np.eye(2), np.zeros((2, 2))), (-1.0, 20.0))
    rep2 = summability_report(drv2, 10.0)
    assert rep2["mean_lnplus_int_bq"] == pytest.approx(0.0, abs=1e-12)
    assert rep2["mean_a"] == pytest.approx(1.0, rel=1e-10)


def test_summability_telegraph_stationary(telegraph_states):
    spec = two_state_spec(telegraph_states, seed=31)
    drv = realize(spec, (-1.0, 1001.0))
    rep = summability_report(drv, 1000.0)
    # two-state chain with equal rates has stationary law (1/2, 1/2)
    a_states = [spectral_norm(A) for A, _ in telegraph_states]
    expected = 0.5 * (a_states[0] + a_states[1])
    assert abs(rep["mean_a"] - expected) <= 0.05 * expected


def test_summability_rejects_bad_horizon():
    drv = realize(constant_spec(np.eye(2), np.eye(2)), (-1.0, 5.0))
    with pytest.raises(ValueError):
        summability_report(drv, 0.0)
    with pytest.raises(ValueError):
        summability_report(drv, 50.0)


def test_stationary_distribution_two_state():
    pi = stationary_distribution(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("generator", [[[0.0, 0.0], [0.0, 0.0]], [[-1.0, 1.0], [0.0, 0.0]]])
def test_reducible_generators_rejected(telegraph_states, generator):
    with pytest.raises(ValueError, match="irreducible"):
        stationary_distribution(np.array(generator))
    with pytest.raises(ValueError, match="irreducible"):
        DriverSpec("telegraph", 2, {"states": telegraph_states, "generator": generator})
    doc = {
        "experiment": "spectrum",
        "driver": {
            "kind": "telegraph",
            "dimension": 2,
            "states": [{"A": A.tolist(), "B": B.tolist()} for A, B in telegraph_states],
            "generator": generator,
        },
        "grid": {"M": 16},
        "spectrum": {"k": 2, "horizon": 30},
    }
    with pytest.raises(ConfigError, match="irreducible"):
        parse_config(doc)


def test_a_bound_covers_every_driver_kind(telegraph_states):
    rng = np.random.default_rng(5)
    qp = DriverSpec(
        "quasi_periodic",
        2,
        {
            "freqs": [1.3, 2.9],
            "a0": rng.normal(size=(2, 2)),
            "b0": rng.normal(size=(2, 2)),
            "a_cos": rng.normal(size=(2, 2, 2)),
            "a_sin": rng.normal(size=(2, 2, 2)),
            "b_cos": rng.normal(size=(2, 2, 2)),
            "b_sin": rng.normal(size=(2, 2, 2)),
        },
    )
    specs = [constant_spec(np.diag([-3.0, 1.0]), np.eye(2)), qp, two_state_spec(telegraph_states)]
    ts = np.linspace(-10.0, 10.0, 401)
    for spec in specs:
        drv = realize(spec, (-12.0, 12.0))
        for d in (drv, drv.shifted(1.5)):
            assert max(spectral_norm(d.matrices(t)[0]) for t in ts) <= d.a_bound + 1e-12
    assert realize(specs[0], (0.0, 1.0)).a_bound == pytest.approx(3.0)
    assert realize(specs[2], (0.0, 1.0)).a_bound == max(spectral_norm(A) for A, _ in telegraph_states)
