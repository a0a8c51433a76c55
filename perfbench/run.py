"""Benchmark command for ddelyap.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Starts one measurement process (worker.py) with a single BLAS/OpenMP thread,
set before numpy loads; the worker imports ddelyap from the repository's
own `src`.  The launcher passes the moment the process was started so
the worker can time its cold set-up, waits for it, and relays its output;
the last line is the JSON result.  This launcher imports only the standard
library.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ddelyap benchmark")
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    package = BENCH.parent / "src" / "ddelyap" / "__init__.py"
    if not package.is_file():
        print(f"no ddelyap sources at {package.parent}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started", repr(started),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"measurement process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
