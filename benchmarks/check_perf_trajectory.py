"""CI perf-trajectory gate: compare a fresh throughput run to the baseline.

Reads a freshly produced ``bench_scale_throughput.py`` report and the
committed ``BENCH_scale_throughput.json`` baseline, then compares
``batch_cps`` — and, when both reports carry it, ``native_cps`` — per
scenario:

* a regression beyond ``--threshold`` (default 25%) **fails** the check for
  scenarios large enough to measure reliably;
* small scenarios (``small-*`` — the only ones ``--quick`` CI runs) are too
  noisy on shared runners, so regressions there only **warn**;
* a fresh report without ``native_cps`` (no compiler on the runner) only
  warns — the no-compiler fallback leg is a supported configuration;
* a failed equivalence flag in the fresh report always fails — a perf win
  that changes outcomes is not a win.

Usage (the CI ``perf-trajectory`` job)::

    python benchmarks/bench_scale_throughput.py --quick --out fresh.json
    python benchmarks/check_perf_trajectory.py fresh.json \
        --baseline BENCH_scale_throughput.json

Exit status: 0 when no hard failure, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: scenario-name prefixes treated as warn-only (too noisy for a hard gate)
WARN_ONLY_PREFIXES = ("small-",)


def compare(
    fresh: dict, baseline: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Return ``(failures, warnings)`` message lists for the two reports."""
    failures: list[str] = []
    warnings: list[str] = []

    block = fresh.get("equivalence", {})
    flags = [v for k, v in block.items() if k.endswith("identical")]
    if flags and not all(flags):
        failures.append(f"equivalence check FAILED in the fresh report: {block}")

    base_scenarios = baseline.get("scenarios", {})
    for name, entry in fresh.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if base is None:
            warnings.append(f"{name}: no baseline entry, skipping")
            continue
        for key in ("batch_cps", "native_cps"):
            base_cps = base.get(key)
            new_cps = entry.get(key)
            if not base_cps:
                if key == "batch_cps":
                    # batch_cps is mandatory in every baseline; a silent
                    # skip here would gate zero comparisons while green
                    warnings.append(f"{name}: baseline missing {key}")
                continue  # native: not tracked in this baseline yet
            if not new_cps:
                # a fresh report without the native path (no compiler on
                # the runner) is the supported fallback configuration
                warnings.append(f"{name}: no fresh {key} (fallback leg?)")
                continue
            ratio = new_cps / base_cps
            line = (
                f"{name} {key}: {new_cps:.3f} vs baseline {base_cps:.3f} "
                f"cycles/sec ({ratio:.2f}x)"
            )
            if ratio < 1.0 - threshold:
                if name.startswith(WARN_ONLY_PREFIXES):
                    warnings.append(f"{line} - regression (warn-only scale)")
                else:
                    failures.append(f"{line} - regression beyond threshold")
            else:
                warnings.append(f"{line} - ok")
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path, help="fresh benchmark JSON")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_scale_throughput.json",
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional cycles/sec regression (default 0.25)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures, notes = compare(fresh, baseline, args.threshold)

    for note in notes:
        print(f"[perf-trajectory] {note}")
    for failure in failures:
        print(f"[perf-trajectory] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("[perf-trajectory] no hard regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
