"""Alternating perfbench pairs of two checkouts, recorded in one BENCH_*.json file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_label.json \
        --pairs telegraph_compare:10 analytic_oracles:3 telegraph_bounds:3 --seed 3 --seconds 32

Each pair runs `perfbench/run.py` untraced in both checkouts, the side that
goes first alternating from pair to pair, and keeps both result lines.  The
summary gives each side's median and quartiles of every end-to-end metric and
the pairs the change won on `run_s`.  After the last pair of a workload the
report files both checkouts wrote for it are compared leaf by leaf; every
shipped config under `configs/` is also run through the CLI in both
checkouts and compared the same way.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
# leaf names that hold Lyapunov exponents (QR estimates, group values, gaps) and frame angles
LARGEST = {"exponent": ("exponent", "estimate", "groups.value"), "angle": ("angle",)}
INDEX = re.compile(r"\[\d+\]|\.\d+(?=[.[]|$)")  # list positions and numeric dict keys in a leaf path


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    return {"summary": lines[0], "result": json.loads(lines[-1])}


def leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def report_leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return dict(leaves(json.loads(path.read_text())))
    with path.open() as fh:
        return {"series": [float(x) for row in csv.reader(fh) for x in row if re.fullmatch(r"[-+.\deE]+", x)]}


def deviations(a: Path, b: Path) -> dict:
    """Largest absolute difference per report file and leaf name (list indices dropped)."""
    out: dict[str, float] = {}
    for fa in sorted(a.rglob("*")):
        if fa.suffix not in (".json", ".csv") or fa.name == "manifest.json" or fa.parent.name == "configs":
            continue
        la, lb = report_leaves(fa), report_leaves(b / fa.relative_to(a))
        for key, va in la.items():
            xs, ys = (va, lb[key]) if isinstance(va, list) else ([va], [lb[key]])
            for x, y in zip(xs, ys):
                if isinstance(x, (int, float)) and not isinstance(x, bool):
                    name = f"{fa.relative_to(a)}:{INDEX.sub('', key)}"
                    out[name] = max(out.get(name, 0.0), abs(float(x) - float(y)))
                elif x != y:
                    raise SystemExit(f"{fa}: {key} differs: {x!r} vs {y!r}")
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pairs", nargs="+", required=True, help="workload:count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "config_deviations": {}}
    for spec in args.pairs:
        workload, count = spec.split(":")
        runs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: perfbench(sides[side], workload, args.seed, args.seconds) for side in order}
            runs.append({"first": order[0], **pair})
            print(workload, i, {s: pair[s]["result"]["metrics"]["run_s"]["value"] for s in order}, flush=True)
        summary = {
            side: {m: quartiles([r[side]["result"]["metrics"][m]["value"] for r in runs]) for m in METRICS}
            for side in sides
        }
        summary["change_wins_run_s"] = sum(
            r["change"]["result"]["metrics"]["run_s"]["value"] < r["parent"]["result"]["metrics"]["run_s"]["value"]
            for r in runs
        )
        summary["all_correct"] = all(r[s]["result"]["correct"] and not r[s]["result"]["failed"] for r in runs for s in sides)
        summary["report_deviations"] = deviations(*(sides[s] / "perfbench" / "out" / workload for s in sides))
        record["workloads"][workload] = {"pairs": len(runs), "summary": summary, "runs": runs}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((sides["change"] / "configs").glob("*.json")):
            for side, root in sides.items():
                env = dict(os.environ, PYTHONPATH=str(root / "src"))
                subprocess.run([sys.executable, "-m", "ddelyap.cli", "run", "--config", str(config),
                                "--out", f"{tmp}/{side}/{config.stem}"], env=env, check=True, capture_output=True)
            record["config_deviations"][config.stem] = deviations(Path(tmp, "parent", config.stem),
                                                                  Path(tmp, "change", config.stem))
    found = [d for w in record["workloads"].values() for d in [w["summary"]["report_deviations"]]]
    found += list(record["config_deviations"].values())
    record["largest"] = {
        kind: max((v for d in found for k, v in d.items() if any(w in k for w in words)), default=0.0)
        for kind, words in LARGEST.items()
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
