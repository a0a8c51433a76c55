"""Measurement process of the benchmark; run.py starts it with one BLAS thread.

Times the set-up (fresh interpreter to parsed configs), then whole
repetitions of the workload's experiments through run_experiment, checks the
outputs, and prints one JSON result line.  With --trace 1 it alternates
untraced and traced repetitions and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<span name>.<calls|columns|self_s>" read off the trace,
# plus the three derived ones at the end.
PER_LAYER = [
    "drivers.matrices.calls",
    "drivers.matrices.self_s",
    "drivers.switch_times_in.calls",
    "drivers.switch_times_in.self_s",
    "drivers.a_integral.calls",
    "drivers.a_integral.self_s",
    "drivers.realize.self_s",
    "propagation.unit_step_block.calls",
    "propagation.unit_step_block.columns",
    "propagation.unit_step_block.self_s",
    "propagation.assemble_unit_operator.calls",
    "propagation.assemble_unit_operator.self_s",
    "propagation.step_bounds.calls",
    "propagation.step_bounds.self_s",
    "propagation.fundamental_matrix.calls",
    "propagation.fundamental_matrix.self_s",
    "propagation.segment_step.calls",
    "propagation.segment_step.self_s",
    "spectrum.qr_spectrum.self_s",
    "spectrum.oseledets_frames.self_s",
    "spectrum.compare_fibers.self_s",
    "spectrum.step_bound_slopes.self_s",
    "fibers.subspace_intersection.calls",
    "fibers.subspace_intersection.self_s",
    "fibers.principal_angles.calls",
    "fibers.principal_angles.self_s",
    "oracles.characteristic_roots.self_s",
    "oracles.monodromy_exponents.self_s",
    "audits.audit_sample.calls",
    "audits.audit_sample.self_s",
    "experiments.run_experiment.self_s",
    "spectrum.filtration_use_ratio",
    "experiments.report_bytes",
    "trace.overhead_s",
]
STAT_UNITS = {"calls": "count", "columns": "count", "self_s": "s"}
DERIVED_UNITS = {
    "spectrum.filtration_use_ratio": "ratio",
    "experiments.report_bytes": "B",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {m: DERIVED_UNITS.get(m) or STAT_UNITS[m.rpartition(".")[2]] for m in PER_LAYER}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--started", type=float, required=True, help="time.monotonic() when run.py started this process")
    return p.parse_args(argv)


def pin_to_one_cpu():
    """Pin this process to one CPU; returns a reader of the seconds the host stole from it.

    On a virtual machine the hypervisor can deschedule the CPU for seconds at
    a time; /proc/stat counts that as steal.  Subtracting it keeps those
    pauses, which the program does not cause, out of the timings.  Where the
    counter is missing the reader returns 0 and timings stay plain wall time.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    tick = os.sysconf("SC_CLK_TCK")
    prefix = f"cpu{cpu} "

    def stolen() -> float:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(prefix):
                    fields = line.split()
                    return int(fields[8]) / tick if len(fields) > 8 else 0.0
        return 0.0

    return stolen


def report_files(out: Path, names) -> dict:
    """Bytes of every report written, keyed by path; manifests carry timestamps and are left out."""
    return {
        str(f.relative_to(out)): f.read_bytes()
        for name in names
        for f in sorted((out / name).iterdir())
        if f.name != "manifest.json"
    }


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def spectrum_reports(case_dir: Path) -> list[dict]:
    return [_load(f) for f in sorted(case_dir.glob("spectrum*.json"))]


def implied_counts(cfg, reports) -> dict:
    """Unit steps and assemblies that oseledets_frames makes for the given reports.

    Per fiber: the QR horizon, the push from -push_steps to the last sample
    time, one assembly per distinct filtration factor, and one equivariance
    step per group at each sample time s with s + 1 also sampled.
    """
    sp = cfg.spectrum
    st = set(sp.sample_times)
    factors = set().union(*(range(s, s + sp.filtration_steps) for s in st))
    equiv_times = sum(1 for s in st if s + 1 in st)
    steps = sum(
        sp.horizon + sp.push_steps + max(st) + len(factors) + equiv_times * len(r["groups"])
        for r in reports
    )
    return {"unit_steps": steps, "assemblies": len(factors) * len(reports)}


def filtration_columns_used(cfg, reports) -> int:
    """Filtration factors times the D columns each one acts on."""
    sp = cfg.spectrum
    return sum(
        len(sp.sample_times) * sp.filtration_steps * sum(g["multiplicity"] for g in r["groups"])
        for r in reports
    )


def run_checks(args, cases, cfgs, out: Path) -> list[str]:
    import checks
    import workloads
    from ddelyap import assemble_unit_operator, fundamental_matrix, realize, required_window, step_bounds

    problems = []
    for (name, raw), cfg in zip(cases, cfgs):
        d = out / name
        if cfg.experiment == "compare":
            problems += checks.check_compare(
                raw, _load(d / "spectrum_continuous.json"), _load(d / "spectrum_lp.json")
            )
        elif cfg.experiment == "oracle" and cfg.driver.kind == "constant":
            problems += checks.check_diagonal_oracle(raw, _load(d / "oracle.json"))
        elif cfg.experiment == "oracle":
            driver = realize(cfg.driver, required_window(cfg.spectrum))
            period_map = assemble_unit_operator(driver, 0.0, cfg.fiber, cfg.grid).matrix
            problems += checks.check_periodic_oracle(raw, _load(d / "oracle.json"), period_map)
        elif cfg.experiment == "converge":
            problems += checks.check_converge(raw, _load(d / "converge.json"))
        elif cfg.experiment == "bounds":
            H = cfg.bounds_horizon
            driver = realize(cfg.driver, (-(H + 2.0), H + 2.0))
            sw, states = driver.switch_times, driver.states
            rng = workloads.seeded_rng(args.seed, 4)
            t1 = rng.uniform(-H, H, 20)
            spans = list(zip(t1, t1 + rng.uniform(0.05, 1.0, 20)))
            problems += checks.check_fundamental(
                spans,
                [fundamental_matrix(driver, a, b).matrix for a, b in spans],
                [checks.expm_product(raw, sw, states, a, b) for a, b in spans],
            )
            times = rng.uniform(-H, H - 1.0, 20)
            problems += checks.check_step_bound_d(
                times,
                [step_bounds(driver, t, cfg.grid).d for t in times],
                [checks.step_bound_d(raw, sw, states, t) for t in times],
            )
            problems += checks.check_audit(raw, _load(d / "bounds.json"))
    return problems


def layer_metrics(per_rep: list[dict], cases, cfgs, out: Path) -> tuple[dict, list[str]]:
    """Per-layer metric values from the traced repetitions' totals."""
    counts = [
        {k: (v["calls"], v["work"]) if isinstance(v, dict) else v for k, v in t.items()}
        for t in per_rep
    ]
    problems = [] if all(c == counts[0] for c in counts) else ["trace counts differ between traced repetitions"]
    names = [name for name, _ in cases]
    reports = {name: spectrum_reports(out / name) for name in names}
    used = sum(filtration_columns_used(cfg, reports[name]) for name, cfg in zip(names, cfgs))
    assembled = per_rep[0]["assembled_columns"]
    values = {
        "spectrum.filtration_use_ratio": used / assembled if assembled else float(used > 0),
        "experiments.report_bytes": sum(len(b) for b in report_files(out, names).values()),
    }
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in values or stat not in STAT_UNITS:
            continue
        rows = [t.get(span, {"calls": 0, "self_s": 0.0, "work": 0}) for t in per_rep]
        if stat == "self_s":
            values[metric] = statistics.median(r["self_s"] for r in rows)
        else:
            values[metric] = rows[0]["calls" if stat == "calls" else "work"]
    if all(cfg.experiment in ("compare", "spectrum") for cfg in cfgs):
        implied = [implied_counts(cfg, reports[name]) for name, cfg in zip(names, cfgs)]
        want = {k: sum(c[k] for c in implied) for k in ("unit_steps", "assemblies")}
        got = {
            "unit_steps": values["propagation.unit_step_block.calls"],
            "assemblies": values["propagation.assemble_unit_operator.calls"],
        }
        if got != want:
            problems.append(f"trace counts {got} differ from those the config implies, {want}")
    return values, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    import ddelyap
    import ddelyap.config
    import ddelyap.experiments

    t_import = time.monotonic()
    if Path(ddelyap.__file__).resolve().parent != SRC / "ddelyap":
        print(f"ddelyap imported from {ddelyap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # Imported only now so that their scipy modules stay out of setup_s.
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    cases = workloads.WORKLOADS[args.workload](args.seed)
    paths = []
    for name, raw in cases:
        paths.append(out / "configs" / f"{name}.json")
        paths[-1].write_text(json.dumps(raw, indent=2) + "\n")
    t0 = time.monotonic()
    cfgs = [ddelyap.config.load_config(p) for p in paths]
    setup_s = (t_import - args.started) + (time.monotonic() - t0)

    attempted = failed = 0
    stolen = pin_to_one_cpu()
    steal = []

    def rep(run) -> float:
        """Wall time of one repetition less the time stolen from its CPU."""
        nonlocal attempted, failed
        gc.collect()
        s = stolen()
        t = time.perf_counter()
        for (name, _), cfg in zip(cases, cfgs):
            attempted += 1
            try:
                _, ok = run(cfg, out / name)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                failed += 1
                print(f"{name}: experiment failed or flagged its own checks", file=sys.stderr)
        wall = time.perf_counter() - t
        steal.append(stolen() - s)
        return wall - steal[-1]

    names = [name for name, _ in cases]
    run_experiment = ddelyap.experiments.run_experiment
    warmup = rep(run_experiment)
    first_reports = report_files(out, names)
    untraced, traced, per_rep = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        untraced.append(rep(run_experiment))
        if args.trace:
            traced_run = tracer.install()
            try:
                traced.append(rep(traced_run))
            finally:
                tracer.uninstall()
            per_rep.append(tracing.layer_totals(tracer.arrays()))
        per_round = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + per_round > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if report_files(out, names) != first_reports:
        problems.append("reports differ between repetitions")
    try:
        problems += run_checks(args, cases, cfgs, out)
    except Exception as exc:  # a missing or malformed output fails the run's checks
        traceback.print_exc()
        problems.append(f"checks could not run on the outputs: {exc!r}")

    if args.trace:
        values, trace_problems = layer_metrics(per_rep, cases, cfgs, out)
        problems += trace_problems
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.save(out / "trace_spans.npz")
        units = PER_LAYER_UNITS
    else:
        values = {"run_s": statistics.median(untraced), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    print(
        f"{args.workload} seed {args.seed}: warm-up {warmup:.3f} s, "
        f"{len(untraced)} untraced repetitions {[round(t, 3) for t in untraced]}"
        + (f", {len(traced)} traced {[round(t, 3) for t in traced]}" if traced else "")
        + f"; {sum(steal):.2f} s stolen by the host, subtracted"
    )
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
