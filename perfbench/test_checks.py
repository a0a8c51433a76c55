"""Each output check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ddelyap import fundamental_matrix, realize, step_bounds  # noqa: E402
from ddelyap.config import parse_config  # noqa: E402
from ddelyap.experiments import run_experiment  # noqa: E402

SEED = 5


def _run(workload, tmp_path_factory):
    out = tmp_path_factory.mktemp(workload)
    cases = workloads.WORKLOADS[workload](SEED)
    for name, raw in cases:
        run_experiment(parse_config(raw), out / name)
    return out, cases


def _load(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out, [(name, raw)] = _run("telegraph_compare", tmp_path_factory)
    return raw, _load(out / name / "spectrum_continuous.json"), _load(out / name / "spectrum_lp.json")


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    out, cases = _run("analytic_oracles", tmp_path_factory)
    return {name: (raw, out / name) for name, raw in cases}


@pytest.fixture(scope="module")
def bounds_run(tmp_path_factory):
    out, [(name, raw)] = _run("telegraph_bounds", tmp_path_factory)
    cfg = parse_config(raw)
    H = cfg.bounds_horizon
    driver = realize(cfg.driver, (-(H + 2.0), H + 2.0))
    return raw, cfg, driver, _load(out / name / "bounds.json")


def test_compare_accepts_real_output(compare_run):
    assert checks.check_compare(*compare_run) == []


def test_compare_rejects_shifted_exponent(compare_run):
    raw, rep_c, rep_l = copy.deepcopy(compare_run)
    rep_l["exponents"][1] += 2 * raw["compare"]["tolerances"]["exponent_gap"]
    assert any("differ by" in p for p in checks.check_compare(raw, rep_c, rep_l))


def test_compare_rejects_unsorted_exponents(compare_run):
    raw, rep_c, rep_l = copy.deepcopy(compare_run)
    for rep in (rep_c, rep_l):
        rep["exponents"][0], rep["exponents"][-1] = rep["exponents"][-1], rep["exponents"][0]
    assert any("nonincreasing" in p for p in checks.check_compare(raw, rep_c, rep_l))


def test_compare_rejects_rotated_frame(compare_run):
    raw, rep_c, rep_l = copy.deepcopy(compare_run)
    frame = np.array(rep_l["e_frames"]["0"][0])
    w = np.random.default_rng(0).standard_normal(frame.shape[0])
    w -= frame @ (frame.T @ w)
    w /= np.linalg.norm(w)
    frame[:, 0] = np.cos(0.05) * frame[:, 0] + np.sin(0.05) * w
    rep_l["e_frames"]["0"][0] = frame.tolist()
    assert any("embedded E frame" in p for p in checks.check_compare(raw, rep_c, rep_l))


def test_compare_rejects_equivariance_angle(compare_run):
    raw, rep_c, rep_l = copy.deepcopy(compare_run)
    rep_c["diagnostics"]["equivariance_angles"]["0"][0] = 0.2
    assert any("equivariance" in p for p in checks.check_compare(raw, rep_c, rep_l))


@pytest.mark.parametrize("case", ["diagonal_0", "diagonal_1"])
def test_diagonal_oracle(oracle_run, case):
    raw, out = oracle_run[case]
    oracle = _load(out / "oracle.json")
    assert checks.check_diagonal_oracle(raw, oracle) == []
    shifted = copy.deepcopy(oracle)
    shifted["rows"][0]["estimate"] += 2 * raw["oracle"]["tolerance"]
    assert any("Lambert W" in p for p in checks.check_diagonal_oracle(raw, shifted))
    wrong_root = copy.deepcopy(oracle)
    wrong_root["rows"][-1]["oracle"] += 1e-6
    assert any("characteristic root" in p for p in checks.check_diagonal_oracle(raw, wrong_root))


def test_periodic_oracle(oracle_run):
    from ddelyap import assemble_unit_operator, required_window

    raw, out = oracle_run["periodic"]
    cfg = parse_config(raw)
    driver = realize(cfg.driver, required_window(cfg.spectrum))
    period_map = assemble_unit_operator(driver, 0.0, cfg.fiber, cfg.grid).matrix
    oracle = _load(out / "oracle.json")
    assert checks.check_periodic_oracle(raw, oracle, period_map) == []
    oracle["rows"][2]["estimate"] -= 3 * raw["oracle"]["tolerance"]
    assert checks.check_periodic_oracle(raw, oracle, period_map) != []


def test_converge(oracle_run):
    raw, out = oracle_run["converge"]
    converge = _load(out / "converge.json")
    assert checks.check_converge(raw, converge) == []
    low_order = copy.deepcopy(converge)
    low_order["observed_orders"] = [2.0]
    assert any("observed orders" in p for p in checks.check_converge(raw, low_order))
    shifted = copy.deepcopy(converge)
    shifted["rows"][-1]["exponents"][0] += 1e-4
    assert any("finest estimate" in p for p in checks.check_converge(raw, shifted))


def test_fundamental_matrix_against_expm(bounds_run):
    raw, _, driver, _ = bounds_run
    t1 = driver.switch_times[len(driver.switch_times) // 2] - 0.3  # span across a switch
    span = (t1, t1 + 0.9)
    program = fundamental_matrix(driver, *span).matrix
    reference = checks.expm_product(raw, driver.switch_times, driver.states, *span)
    assert checks.check_fundamental([span], [program], [reference]) == []
    rotation = np.array([[np.cos(1e-4), -np.sin(1e-4)], [np.sin(1e-4), np.cos(1e-4)]])
    assert checks.check_fundamental([span], [rotation @ program], [reference]) != []


def test_step_bound_d_against_trapezoid(bounds_run):
    raw, cfg, driver, _ = bounds_run
    times = [-3.7, 0.25, 11.5]
    program = [step_bounds(driver, t, cfg.grid).d for t in times]
    reference = [checks.step_bound_d(raw, driver.switch_times, driver.states, t) for t in times]
    assert checks.check_step_bound_d(times, program, reference) == []
    program[1] *= 1.001
    assert len(checks.check_step_bound_d(times, program, reference)) == 1


def test_audit(bounds_run):
    raw, _, _, bounds = bounds_run
    assert checks.check_audit(raw, bounds) == []
    bounds = copy.deepcopy(bounds)
    bounds["audit"]["violations"] = 1
    assert checks.check_audit(raw, bounds) != []


def test_self_time_subtracts_children():
    spans = {
        "table": np.array(["inner", "outer"]),
        "name": np.array([1, 0, 0]),
        "start": np.array([0.0, 1.0, 5.0]),
        "end": np.array([10.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 0]),
        "work": np.array([0, 2, 3]),
    }
    totals = tracing.layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "self_s": 7.0, "work": 0}
    assert totals["inner"] == {"calls": 2, "self_s": 3.0, "work": 5}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
