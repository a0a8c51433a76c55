"""Experiment runners behind the CLI: wiring, report files, run manifest."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .audits import audit_many
from .config import ExperimentConfig
from .drivers import realize
from .fibers import GridSpec, embedding_matrix, orthonormalize
from .oracles import characteristic_roots, monodromy_exponents
from .propagation import assemble_unit_operator
from .spectrum import (
    compare_fibers,
    oseledets_frames,
    probe_block,
    qr_spectrum,
    required_window,
    step_bound_slopes,
)

__all__ = ["RunManifest", "run_experiment"]


@dataclass
class RunManifest:
    config_hash: str
    version: str
    experiment: str
    wall_clock: float = 0.0
    stages: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    started_at: str = ""

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "experiment": self.experiment,
            "wall_clock": self.wall_clock,
            "stages": self.stages,
            "outputs": self.outputs,
            "flags": self.flags,
            "started_at": self.started_at,
        }


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _expanded_exponents(groups, k):
    vals = []
    for g in groups:
        vals.extend([g["value"]] * g["multiplicity"])
    return np.array(vals[:k])


class _Stages:
    def __init__(self, manifest: RunManifest):
        self.manifest = manifest

    def run(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.manifest.stages[name] = round(time.perf_counter() - t0, 4)
        return out


def run_experiment(cfg: ExperimentConfig, out_dir):
    """Execute one configured experiment; returns (manifest, strict_ok)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=cfg.hash,
        version=__version__,
        experiment=cfg.experiment,
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    t_start = time.perf_counter()
    runner = {
        "spectrum": _run_spectrum,
        "compare": _run_compare,
        "converge": _run_converge,
        "oracle": _run_oracle,
        "bounds": _run_bounds,
    }[cfg.experiment]
    strict_ok = runner(cfg, out, manifest, _Stages(manifest))
    manifest.wall_clock = round(time.perf_counter() - t_start, 4)
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, manifest.to_dict())
    manifest.outputs.append(str(manifest_path))
    return manifest, strict_ok


def _emit_spectrum_report(report, cfg, out: Path, manifest, name: str) -> None:
    doc = report.to_dict()
    doc["config_hash"] = cfg.hash
    path = out / f"{name}.json"
    _write_json(path, doc)
    manifest.outputs.append(str(path))
    csv_path = out / f"{name}_series.csv"
    k = report.series.shape[1]
    _write_csv(csv_path, ["step"] + [f"lambda_{i+1}" for i in range(k)], report.series_rows())
    manifest.outputs.append(str(csv_path))


def _run_spectrum(cfg, out, manifest, stages):
    driver = stages.run(
        "realize", lambda: realize(cfg.driver, required_window(cfg.spectrum))
    )
    report = stages.run(
        "spectrum",
        lambda: oseledets_frames(driver, cfg.fiber, cfg.grid, cfg.spectrum),
    )
    _emit_spectrum_report(report, cfg, out, manifest, "spectrum_report")
    return True


def _run_compare(cfg, out, manifest, stages):
    driver = stages.run(
        "realize", lambda: realize(cfg.driver, required_window(cfg.spectrum))
    )
    pc = probe_block(driver, "continuous", cfg.grid, cfg.spectrum.k, cfg.spectrum.probe_seed)
    pl = orthonormalize(embedding_matrix(cfg.grid, cfg.driver.dimension) @ pc).vectors
    rep_c = stages.run(
        "continuous_fiber",
        lambda: oseledets_frames(driver, "continuous", cfg.grid, cfg.spectrum, probe=pc),
    )
    rep_l = stages.run(
        "lp_fiber",
        lambda: oseledets_frames(driver, "lp", cfg.grid, cfg.spectrum, probe=pl),
    )
    cmp = stages.run(
        "compare",
        lambda: compare_fibers(
            rep_c, rep_l, cfg.grid, cfg.driver.dimension, cfg.compare_tolerances
        ),
    )
    _emit_spectrum_report(rep_c, cfg, out, manifest, "spectrum_continuous")
    _emit_spectrum_report(rep_l, cfg, out, manifest, "spectrum_lp")
    doc = cmp.to_dict()
    doc["config_hash"] = cfg.hash
    path = out / "comparison.json"
    _write_json(path, doc)
    manifest.outputs.append(str(path))
    if not cmp.all_pass:
        manifest.flags.append("comparison checks failed")
    return cmp.all_pass


def _run_converge(cfg, out, manifest, stages):
    factors = cfg.converge_factors

    def one(factor):
        grid = GridSpec(cfg.grid.M * factor)
        driver = realize(cfg.driver, required_window(cfg.spectrum))
        qr = qr_spectrum(driver, cfg.fiber, grid, cfg.spectrum)
        return factor, grid.M, _expanded_exponents(qr.groups, cfg.spectrum.k)

    results = stages.run("converge_runs", lambda: [one(f) for f in factors])
    results.sort(key=lambda r: r[1])
    rows = []
    for factor, M, exps in results:
        rows.append([M] + [float(x) for x in exps])
    k = min(len(r) - 1 for r in rows)
    header = ["M"] + [f"lambda_{i+1}" for i in range(k)]
    _write_csv(out / "converge.csv", header, rows)
    manifest.outputs.append(str(out / "converge.csv"))

    gaps = []
    for (f1, m1, e1), (f2, m2, e2) in zip(results[:-1], results[1:]):
        n = min(len(e1), len(e2))
        gaps.append(
            {
                "M_coarse": m1,
                "M_fine": m2,
                "max_gap": float(np.max(np.abs(e1[:n] - e2[:n]))),
            }
        )
    orders = []
    for g1, g2 in zip(gaps[:-1], gaps[1:]):
        if g2["max_gap"] > 0:
            ratio = g1["max_gap"] / g2["max_gap"]
            orders.append(float(np.log2(max(ratio, 1e-16))))
    doc = {
        "config_hash": cfg.hash,
        "rows": [{"M": r[0], "exponents": r[1:]} for r in rows],
        "gaps": gaps,
        "observed_orders": orders,
    }
    _write_json(out / "converge.json", doc)
    manifest.outputs.append(str(out / "converge.json"))
    return True


def _is_unit_periodic(spec) -> bool:
    if spec.kind != "quasi_periodic":
        return False
    freqs = np.asarray(spec.params["freqs"], dtype=float)
    ratios = freqs / (2.0 * np.pi)
    return bool(np.all(np.abs(ratios - np.round(ratios)) < 1e-9))


def _run_oracle(cfg, out, manifest, stages):
    driver = stages.run(
        "realize", lambda: realize(cfg.driver, required_window(cfg.spectrum))
    )
    qr = stages.run(
        "qr_spectrum", lambda: qr_spectrum(driver, cfg.fiber, cfg.grid, cfg.spectrum)
    )
    estimates = _expanded_exponents(qr.groups, cfg.oracle_count)
    if cfg.driver.kind == "constant":
        roots = stages.run(
            "characteristic_roots",
            lambda: characteristic_roots(
                cfg.driver.params["A0"], cfg.driver.params["B0"], cfg.oracle_count
            ),
        )
        oracle_vals = np.array([r.value.real for r in roots])[: len(estimates)]
        oracle_kind = "characteristic_roots"
    elif _is_unit_periodic(cfg.driver):
        mono = stages.run(
            "monodromy",
            lambda: monodromy_exponents(
                assemble_unit_operator(driver, 0.0, cfg.fiber, cfg.grid).matrix,
                cfg.oracle_count,
            ),
        )
        oracle_vals = mono[: len(estimates)]
        oracle_kind = "monodromy_eigensolve"
    else:
        manifest.flags.append("oracle experiment needs constant or unit-periodic coefficients")
        return False
    n = min(len(estimates), len(oracle_vals))
    gaps = np.abs(estimates[:n] - oracle_vals[:n])
    rows = [
        [i + 1, float(estimates[i]), float(oracle_vals[i]), float(gaps[i])] for i in range(n)
    ]
    _write_csv(out / "oracle.csv", ["index", "estimate", "oracle", "gap"], rows)
    manifest.outputs.append(str(out / "oracle.csv"))
    doc = {
        "config_hash": cfg.hash,
        "oracle_kind": oracle_kind,
        "rows": [
            {"index": r[0], "estimate": r[1], "oracle": r[2], "gap": r[3]} for r in rows
        ],
        "max_gap": float(np.max(gaps)) if n else None,
        "tolerance": cfg.oracle_tolerance,
    }
    _write_json(out / "oracle.json", doc)
    manifest.outputs.append(str(out / "oracle.json"))
    ok = bool(n and np.max(gaps) <= cfg.oracle_tolerance)
    if not ok:
        manifest.flags.append("oracle gaps exceed tolerance")
    return ok


def _run_bounds(cfg, out, manifest, stages):
    horizon = cfg.bounds_horizon
    driver = stages.run(
        "realize", lambda: realize(cfg.driver, (-(horizon + 2.0), horizon + 2.0))
    )
    slopes = stages.run(
        "bound_slopes", lambda: step_bound_slopes(driver, horizon, cfg.grid)
    )
    audit = stages.run(
        "inequality_audit",
        lambda: audit_many([driver], cfg.grid, cfg.bounds_samples, seed=cfg.driver.seed),
    )
    slope_ok = all(
        abs(v) <= cfg.bounds_slope_tol for k, v in slopes.items() if "slope" in k
    )
    doc = {
        "config_hash": cfg.hash,
        "slopes": {k: v for k, v in slopes.items()},
        "slope_tolerance": cfg.bounds_slope_tol,
        "slopes_within_tolerance": slope_ok,
        "audit": {
            "samples": audit["samples"],
            "violations": audit["violations"],
            "by_name": audit["by_name"],
        },
    }
    _write_json(out / "bounds.json", doc)
    manifest.outputs.append(str(out / "bounds.json"))
    if not slope_ok:
        manifest.flags.append("bound slopes exceed tolerance")
    if audit["violations"]:
        manifest.flags.append("inequality audit violations")
    return slope_ok and audit["violations"] == 0
