"""Command-line entry point: run, validate, version.

Exit codes: 0 success, 1 configuration error, 2 numerical failure while
running, 3 strict acceptance check failed (compare/oracle with --strict).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, load_config
from .experiments import RunManifest, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddelyap",
        description="Lyapunov exponents and Oseledets subspaces for random linear delay equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    run_p.add_argument("--seed", type=int, default=None, help="override the driver seed")
    run_p.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when compare/oracle checks fail their tolerances",
    )

    val_p = sub.add_parser("validate", help="check a config file without running")
    val_p.add_argument("--config", required=True)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 1
        print(f"ok: {cfg.experiment} experiment, config hash {cfg.hash}")
        return 0

    # run
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    try:
        manifest, strict_ok = run_experiment(cfg, out_dir)
    except Exception as exc:  # numerical failure: partial outputs plus flagged manifest
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            config_hash=cfg.hash,
            version=__version__,
            experiment=cfg.experiment,
            started_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
            flags=[f"numerical failure: {type(exc).__name__}: {exc}"],
        )
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n"
        )
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    print(f"{cfg.experiment}: wrote {len(manifest.outputs)} files to {out_dir}")
    for path in manifest.outputs:
        print(f"  {path}")
    if args.strict and cfg.experiment in ("compare", "oracle") and not strict_ok:
        print("strict check failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
