"""Command-line interface.

Usage (installed as ``whatsup-repro``, also ``python -m repro``)::

    whatsup-repro list                     # available experiments
    whatsup-repro run table3               # reproduce one table/figure
    whatsup-repro run all --scale small    # everything, in registry order
    whatsup-repro run fig4 --seed 7 --scale medium

The pipeline gates (``REPRO_BATCH_SIM``, ``REPRO_BATCH_DELIVERY``,
``REPRO_NATIVE``) are read from the environment;
scripts pin them with :class:`repro.api.RunConfig` instead.

Every experiment prints the paper-shaped table/series for its id; the same
code paths back the pytest-benchmark suite under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS, get_scale, run_experiment
from repro.utils.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="whatsup-repro",
        description=(
            "Reproduction of 'WHATSUP: A Decentralized Instant News "
            "Recommender' (IPDPS 2013) — run any of the paper's tables "
            "and figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run_p = sub.add_parser("run", help="run experiments by id")
    run_p.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all'",
    )
    run_p.add_argument(
        "--scale",
        default=None,
        help="scale profile: small (default), medium, paper; "
        "also settable via REPRO_SCALE",
    )
    run_p.add_argument("--seed", type=int, default=1, help="root seed (default 1)")
    return parser


def _cmd_list() -> int:
    print("Available experiments:")
    for exp_id in sorted(EXPERIMENTS):
        fn = EXPERIMENTS[exp_id]
        doc = (fn.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {exp_id:16s} {summary}")
    return 0


def _cmd_run(exp_ids: list[str], scale_name: str | None, seed: int) -> int:
    scale = get_scale(scale_name)
    if len(exp_ids) == 1 and exp_ids[0].lower() == "all":
        exp_ids = sorted(EXPERIMENTS)
    status = 0
    for exp_id in exp_ids:
        start = time.perf_counter()
        try:
            report = run_experiment(exp_id, scale, seed)
        except ReproError as exc:
            print(f"[{exp_id}] error: {exc}", file=sys.stderr)
            status = 1
            continue
        elapsed = time.perf_counter() - start
        print(f"\n== {report.exp_id}: {report.title} ({elapsed:.1f}s) ==")
        print(report.text)
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiments, args.scale, args.seed)
    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
