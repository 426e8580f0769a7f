"""Tests for the benchmark's own code: checks, tracer, driver, workloads.

The smoke runs start ``perfbench.unit`` in a child process with every
``REPRO_*`` variable removed, so they measure the default configuration
whatever gate matrix the surrounding test run uses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.checks import check_log, check_scores  # noqa: E402
from perfbench.tracer import Tracer, self_times, trace_sites  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics the driver adds from several units (the rest come
#: from one traced unit)
DRIVER_LAYER_KEYS = {
    "cycle_ms_p50",
    "cycle_ms_p90",
    "trace.untraced_run_s",
    "trace.overhead_s",
    "trace.digests_equal",
}


def _clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _log(items, nodes, hops) -> dict[str, np.ndarray]:
    return {
        "d_item": np.asarray(items, dtype=np.int64),
        "d_node": np.asarray(nodes, dtype=np.int64),
        "d_hops": np.asarray(hops, dtype=np.int64),
    }


# -- output checks ------------------------------------------------------ #

#: item 0 from node 0 reaches nodes 1 and 2; item 1 from node 1 reaches 0
SOUND = _log([0, 0, 0, 1, 1], [0, 1, 2, 1, 0], [0, 1, 1, 0, 1])
SOURCES = {0: 0, 1: 1}


def test_sound_log_passes_exact_accounting():
    # 3 non-source first receipts + 2 duplicates + 1 in flight
    assert (
        check_log(
            SOUND,
            duplicates=2,
            delivered_copies=6,
            in_flight=1,
            sources=SOURCES,
            exact=True,
        )
        == []
    )


def test_duplicated_first_receipt_is_rejected():
    log = _log([0, 0, 0, 0], [0, 1, 2, 1], [0, 1, 1, 2])
    problems = check_log(
        log, duplicates=0, delivered_copies=3, in_flight=0, sources={0: 0}, exact=True
    )
    assert any("two first receipts" in p for p in problems)


def test_item_missing_its_source_is_rejected():
    log = _log([0, 0], [1, 2], [0, 1])
    problems = check_log(
        log, duplicates=0, delivered_copies=1, in_flight=0, sources={0: 0}, exact=True
    )
    assert any("never reached their source" in p for p in problems)


@pytest.mark.parametrize(
    ("delivered", "exact", "ok"),
    [(5, True, False), (7, True, False), (7, False, True), (5, False, False)],
)
def test_delivered_copies_accounting(delivered, exact, ok):
    problems = check_log(
        SOUND,
        duplicates=2,
        delivered_copies=delivered,
        in_flight=1,
        sources=SOURCES,
        exact=exact,
    )
    assert (problems == []) is ok


def test_scores_outside_unit_interval_are_rejected():
    assert check_scores(0.5, 1.0, 0.0) == []
    assert len(check_scores(-0.1, 1.2, 0.5)) == 2


# -- tracer ------------------------------------------------------------- #


def test_self_times_are_exact_on_nested_spans():
    # root [0, 16] holds a [1, 9] (which holds b [2, 4] and c [5, 8]) and
    # a second a [10, 14]; every value is exact in binary floating point
    names = ["root", "a", "b", "c"]
    spans = [  # (name, start, end, parent)
        (0, 0.0, 16.0, -1),
        (1, 1.0, 9.0, 0),
        (2, 2.0, 4.0, 1),
        (3, 5.0, 8.0, 1),
        (1, 10.0, 14.0, 0),
    ]
    ids, starts, ends, parents = (list(col) for col in zip(*spans))
    got = self_times(names, ids, starts, ends, parents)
    assert got == {
        "root": {"calls": 1, "total_s": 16.0, "self_s": 4.0},
        "a": {"calls": 2, "total_s": 12.0, "self_s": 7.0},
        "b": {"calls": 1, "total_s": 2.0, "self_s": 2.0},
        "c": {"calls": 1, "total_s": 3.0, "self_s": 3.0},
    }
    assert sum(row["self_s"] for row in got.values()) == 16.0


def test_tracer_records_parents_and_restores_originals():
    from repro.api import RunConfig
    from repro.experiments.factory import build_system
    from repro.experiments.runner import score_system
    from repro.experiments.scale import SCALES

    sites = trace_sites()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    tracer = Tracer()
    with RunConfig().apply():
        tracer.install(sites)
        try:
            ds = SCALES["small"].survey(seed=3)
            system = build_system("whatsup", ds, fanout=5, seed=3)
            system.run(4, drain=False)
            score_system(system, ds)
        finally:
            tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    summary = tracer.summary()
    for name in ("engine.run", "node.begin_cycle", "rps.handle", "events.log"):
        assert summary[name]["calls"] > 0
    # every span lies inside its parent
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]


# -- workloads and driver ----------------------------------------------- #


def test_benchmark_json_lists_every_workload():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_its_checks(workload):
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "perfbench.unit",
            "--workload",
            workload,
            "--seed",
            "2",
            "--tiny",
            "--trace",
        ],
        cwd=ROOT,
        env=_clean_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["problems"] == []
    assert out["restored"] is True
    assert 0.0 <= out["f1"] <= 1.0
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(out["layers"]) == declared - DRIVER_LAYER_KEYS
    if WORKLOADS[workload].kind == "sweep":
        assert out["layers"]["runner.points"] == out["points"] > 1


def test_driver_refuses_repro_variables():
    env = _clean_env()
    env["REPRO_BATCH_SIM"] = "0"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digg-lossy"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "REPRO_BATCH_SIM" in done.stderr
    assert done.stdout == ""


def test_driver_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey-f16"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env={k: v for k, v in _clean_env().items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
