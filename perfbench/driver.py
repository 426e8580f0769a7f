"""The benchmark driver: runs units one at a time and reports metrics.

Each unit runs in a fresh child process (``perfbench.unit``), one after
another, so the load never exceeds one simulation at a time.  Units are
started until ``--seconds`` would be exceeded (at least ``MIN_UNITS``),
each followed by a set-up-only unit while fewer than ``MIN_SETUPS``
set-ups were timed; set-up-only units then top the count up.  The driver
prints a human-readable report followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` untraced and traced units alternate; the JSON then
holds the per-layer metrics, the tracing overhead (traced minus untraced
``run_s``) and whether both kinds of unit produced the same outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import WORKLOADS

__all__ = ["main"]

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = Path(__file__).resolve().parent / "out"

#: fewest units a run makes, however long they take
MIN_UNITS = 1
MIN_TRACED_PAIRS = 1
#: set-up samples behind ``setup_s``; set-up-only units make up the rest
MIN_SETUPS = 7
#: a unit that outlives this is killed and counted as failed
UNIT_TIMEOUT_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    return env


def ensure_native() -> bool:
    """Build the native kernels in place if missing; report availability."""
    probe = [
        sys.executable,
        "-c",
        "import repro._native as n; print(int(n.native_available()))",
    ]
    env = _child_env()
    done = subprocess.run(
        probe, env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    if done.stdout.strip() == "1":
        return True
    subprocess.run(
        [sys.executable, "-m", "repro._native.build_native"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    done = subprocess.run(
        probe, env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip() == "1"


def run_unit(
    workload: str, seed: int, *, traced: bool = False, setup_only: bool = False
) -> dict:
    """Run one unit in a fresh process; a crash becomes a failed unit."""
    cmd = [
        sys.executable,
        "-m",
        "perfbench.unit",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if traced:
        cmd += ["--trace", "--spans", str(OUT_DIR / f"{workload}-spans.npz")]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd,
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {UNIT_TIMEOUT_S} s"}
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {done.returncode}: " + " | ".join(tail), "wall": wall}
    out = json.loads(lines[-1])
    out["wall"] = wall
    out["setup_only"] = setup_only
    return out


def unit_failures(units: list[dict]) -> dict[int, list[str]]:
    """Why each failing unit failed, by unit index.

    A unit fails when it crashed, when one of its own checks failed, or
    when its outcome differs from the first completed unit's: every unit
    of a run uses the same seed, so outcomes must repeat exactly.
    """
    failures: dict[int, list[str]] = {}
    reference = next(
        (u for u in units if "error" not in u and not u["setup_only"]), None
    )
    for i, unit in enumerate(units):
        if "error" in unit:
            failures[i] = [unit["error"]]
            continue
        if unit["setup_only"]:
            continue
        reasons = list(unit["problems"])
        for key in ("digest", "f1", "item_msgs_per_user"):
            if unit[key] != reference[key]:
                reasons.append(f"{key} {unit[key]!r} differs from {reference[key]!r}")
        if reasons:
            failures[i] = reasons
    return failures


def cycle_metrics(units: list[dict]) -> dict[str, float]:
    """Per-cycle host time, pooled over the completed units."""
    cycle_ms = [1000.0 * s for u in units if "error" not in u for s in u["cycle_s"]]
    deciles = statistics.quantiles(cycle_ms, n=10, method="inclusive")
    return {"cycle_ms_p50": deciles[4], "cycle_ms_p90": deciles[8]}


def end_to_end(units: list[dict], probes: list[dict]) -> dict[str, float]:
    ok = [u for u in units if "error" not in u]
    setups = [u["setup_s"] for u in ok + probes if "error" not in u]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(u["run_s"] for u in ok),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ok),
        "f1": ok[0]["f1"],
        "item_msgs_per_user": ok[0]["item_msgs_per_user"],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    ok_traced = [u for u in traced if "error" not in u]
    ok_plain = [u for u in plain if "error" not in u]
    keys = ok_traced[0]["layers"].keys()
    m = {k: statistics.median(u["layers"][k] for u in ok_traced) for k in keys}
    m.update(cycle_metrics(ok_plain))
    m["trace.untraced_run_s"] = statistics.median(u["run_s"] for u in ok_plain)
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    digests = {u["digest"] for u in ok_traced + ok_plain}
    m["trace.digests_equal"] = 1 if len(digests) == 1 else 0
    return m


def _more_units(units: list[dict], deadline: float, minimum: int, step: int) -> bool:
    """Whether *step* more units, each as long as the longest so far, fit."""
    if len(units) < minimum:
        return True
    longest = max(u.get("wall", 0.0) for u in units)
    return time.perf_counter() + step * longest <= deadline


def _declared(*kinds: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for kind in kinds for m in BENCHMARK[kind]}


def report(
    args, native: bool, units: list[dict], failed: int, n_cycles: int, metrics: dict
) -> None:
    """Print the human-readable report (everything but the JSON line)."""
    ok = [u for u in units if "error" not in u and not u["setup_only"]]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "native_built": native,
        "run_config": ok[0]["run_config"],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(
        f"failed_share {failed / len(units):.4f} ratio "
        f"(base: {len(units)} units attempted, {failed} failed)"
    )
    print(f"cycle samples pooled for cycle_ms_* (untraced units): {n_cycles}")
    units_of = _declared("end_to_end", "per_layer")
    for name, value in metrics.items():
        print(f"  {name:<36} {value!r} {units_of.get(name, '')}")
    if not args.trace:
        return
    hits = metrics["similarity.cache_hits"]
    lookups = hits + metrics["similarity.cache_misses"]
    ratio = f"{hits / lookups:.4f}" if lookups else "n/a"
    print(f"similarity.cache_hit_ratio {ratio} (base: {lookups} lookups)")
    print(
        "delivery.useful_ratio base: "
        f"{metrics.get('network.item_delivered', 0)} delivered item copies; "
        "network.loss_rate base: every message sent"
    )
    print(
        "split (share of engine run + drain time): item path "
        f"{metrics['split.item_path_share']:.3f}, gossip "
        f"{metrics['split.gossip_share']:.3f}"
    )
    digests = sorted({u["digest"] for u in ok})
    print("outcome digests (traced and untraced): " + ", ".join(digests))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gates = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if gates:
        print(
            "refusing to run: REPRO_* variables would change the measured "
            f"program: {', '.join(gates)}",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    native = ensure_native()
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.perf_counter() + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    if args.trace:
        while _more_units(plain + traced, deadline, 2 * MIN_TRACED_PAIRS, step=2):
            plain.append(run_unit(args.workload, args.seed))
            traced.append(run_unit(args.workload, args.seed, traced=True))
    probes: list[dict] = []
    if not args.trace:
        # set-up-only units are spread over the window, so that setup_s
        # samples the host's pace across it as run_s does
        while _more_units(plain, deadline, MIN_UNITS, step=1):
            plain.append(run_unit(args.workload, args.seed))
            if len(plain) + len(probes) < MIN_SETUPS:
                probes.append(run_unit(args.workload, args.seed, setup_only=True))
        while len(plain) + len(probes) < MIN_SETUPS:
            probes.append(run_unit(args.workload, args.seed, setup_only=True))
    units = plain + traced + probes
    failures = unit_failures(units)
    for i, reasons in sorted(failures.items()):
        for reason in reasons:
            print(f"FAILED unit {i}: {reason}", file=sys.stderr)
    if all("error" in u for u in plain) or (
        args.trace and all("error" in u for u in traced)
    ):
        print("no unit completed; nothing to report", file=sys.stderr)
        return 1

    # a traced unit whose digest differs from an untraced one is already
    # a failed unit: every unit's outcome is compared with the first's
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        # cycle times are reported, not gated: see README.md
        metrics = end_to_end(plain, probes) | cycle_metrics(plain)
    n_cycles = sum(len(u["cycle_s"]) for u in plain if "error" not in u)
    report(args, native, units, len(failures), n_cycles, metrics)
    units_of = _declared("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not failures,
        "attempted": len(units),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units_of.items()
        },
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "units": units}, default=repr)
    )
    print(json.dumps(result))
    return 0
