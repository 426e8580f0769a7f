"""One benchmark unit, run in a fresh process by the driver.

A unit imports the program, generates the workload's dataset, builds the
system (set-up), runs it to a scored result (run), checks the outputs and
prints one JSON object as its last line of standard output::

    python -m perfbench.unit --workload survey-f16 --seed 1 [--trace] [--tiny]

With ``--trace`` every layer's lookup sites are wrapped for the whole unit
and the per-layer numbers are added to the JSON.
"""

import time

#: process-relative origin of the set-up clock: taken before the program
#: (and numpy) are imported, so ``setup_s`` includes the import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402, F401
from repro._native import native_available  # noqa: E402
from repro.api import RunConfig  # noqa: E402
from repro.core.similarity import default_score_cache  # noqa: E402
from repro.experiments import run_experiment, runner, sweeps  # noqa: E402
from repro.experiments.factory import build_system  # noqa: E402
from repro.experiments.runner import score_system  # noqa: E402
from repro.experiments.scale import SCALES, ScaleProfile  # noqa: E402
from repro.network.message import MessageKind  # noqa: E402
from repro.network.transport import UniformLossTransport  # noqa: E402
from repro.simulation.churn import ChurnModel  # noqa: E402

from perfbench.checks import (  # noqa: E402
    check_log,
    check_scores,
    log_digest,
    outcome_digest,
    recorded_digest,
)
from perfbench.tracer import Tracer, trace_sites  # noqa: E402
from perfbench.workloads import DATASET_SEED, WORKLOADS, Workload  # noqa: E402

clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class FixedDataScale(ScaleProfile):
    """A scale profile whose datasets ignore the seed they are asked for.

    ``run_experiment`` passes one seed to both the dataset and the
    systems; this keeps the dataset fixed while the run seed varies.
    """

    def survey(self, seed: int = 1):
        return super().survey(DATASET_SEED)

    def synthetic(self, seed: int = 1):
        return super().synthetic(DATASET_SEED)

    def digg(self, seed: int = 1):
        return super().digg(DATASET_SEED)


def scale_for(wl: Workload, tiny: bool) -> FixedDataScale:
    """The scale profile a workload runs at."""
    base = SCALES[wl.scale]
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    fields.update(wl.tiny_overrides if tiny else wl.overrides)
    return FixedDataScale(**fields)


def _system_checks(system) -> tuple[list[str], str]:
    """Invariant problems and log digest of one run system."""
    engine = system.engine
    schedule = engine.schedule
    sources = {
        schedule.index_of(item.item_id): int(item.source)
        for cycle in range(engine.now)
        for item in schedule.items_at(cycle)
    }
    arrays = system.log.arrays()
    problems = check_log(
        arrays,
        duplicates=system.log.duplicates,
        delivered_copies=engine.stats.delivered[MessageKind.ITEM],
        in_flight=engine.pending_item_messages(),
        sources=sources,
        exact=engine.churn is None,
    )
    return problems, log_digest(arrays, system.log.duplicates)


def _watch(engine, stamps: list[float]) -> None:
    """Record a host timestamp after every cycle of *engine*."""
    engine.add_observer(lambda _engine, _cycle: stamps.append(clock()))


def run_single(
    wl: Workload, seed: int, tiny: bool, setup_only: bool
) -> tuple[dict, list]:
    ds = scale_for(wl, tiny).dataset(wl.dataset)
    transport = churn = None
    if wl.lossy:
        transport = UniformLossTransport(0.2)
        churn = ChurnModel(
            0.01,
            rejoin_after=5,
            start_cycle=5,
            protected=frozenset(int(item.source) for item in ds.items),
        )
    system = build_system(
        "whatsup",
        ds,
        fanout=wl.f_like,
        seed=seed,
        transport=transport,
        churn=churn,
    )
    setup_s = clock() - _T0
    if setup_only:
        return {"setup_s": setup_s}, []

    cycles = wl.tiny_cycles if tiny else wl.cycles
    start = clock()
    stamps = [start]
    _watch(system.engine, stamps)
    system.run(cycles, drain=cycles is None)
    result = score_system(system, ds)
    run_s = clock() - start

    problems, digest = _system_checks(system)
    problems += check_scores(result.precision, result.recall, result.f1)
    row = [result.f1, result.messages_per_user]
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cycle_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "f1": result.f1,
        "item_msgs_per_user": result.messages_per_user,
        "problems": problems,
        "digest": outcome_digest([digest], row),
    }
    return out, [system]


def run_sweep(
    wl: Workload, seed: int, tiny: bool, setup_only: bool, hooks: Tracer
) -> tuple[dict, list]:
    scale = scale_for(wl, tiny)
    scale.dataset(wl.dataset)
    setup_s = clock() - _T0
    if setup_only:
        return {"setup_s": setup_s}, []

    # run_one looks build_system up in the runner module: attach the
    # per-cycle observer to every point's system there
    points: list[tuple[object, list[float]]] = []
    build = runner.build_system

    def build_and_watch(*args, **kwargs):
        system = build(*args, **kwargs)
        stamps = [clock()]
        _watch(system.engine, stamps)
        points.append((system, stamps))
        return system

    hooks.patch(runner, "build_system", build_and_watch)
    start = clock()
    report = run_experiment("table3", scale, seed)
    run_s = clock() - start

    problems: list[str] = []
    digests: list[str] = []
    cycle_s: list[float] = []
    for system, stamps in points:
        point_problems, digest = _system_checks(system)
        problems += [f"{system.system_name}: {p}" for p in point_problems]
        digests.append(digest)
        cycle_s += [b - a for a, b in zip(stamps, stamps[1:])]
    rows = report.data["all"]
    for label, precision, recall, f1, _mpu in rows:
        problems += [f"{label}: {p}" for p in check_scores(precision, recall, f1)]
    best = report.data["best"]["whatsup"]
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cycle_s": cycle_s,
        "f1": best[3],
        "item_msgs_per_user": best[4],
        "problems": problems,
        "digest": outcome_digest(digests, rows),
        "points": len(points),
    }
    return out, [system for system, _ in points]


def layer_metrics(tracer: Tracer, systems: list, run_s: float) -> dict[str, float]:
    """The per-layer numbers of one traced unit (see README.md)."""
    summary = tracer.summary()

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return float(summary.get(name, {}).get("self_s", 0.0))

    def total_s(name: str) -> float:
        return float(summary.get(name, {}).get("total_s", 0.0))

    m: dict[str, float] = {
        "datasets.dataset.s": total_s("datasets.dataset"),
        "system.build.s": total_s("system.build"),
        "engine.self_s": self_s("engine.run") + self_s("engine.run_until_drained"),
    }
    for name in (
        "engine.gossip",
        "engine.send_fanout",
        "engine.send_item",
        "node.begin_cycle",
        "node.receive_items",
        "node.receive_item",
        "node.publish",
        "rps.initiate",
        "rps.handle",
        "vicinity.initiate",
        "vicinity.handle",
        "profiles.snapshot",
        "profiles.integrate",
        "similarity.score_candidates",
        "beep.forward",
        "beep.forward_batch",
        "events.log",
        "transport.attempt",
        "churn.apply",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    native = [row for key, row in summary.items() if key.startswith("native.")]
    m["native.calls"] = sum(int(row["calls"]) for row in native)
    m["native.self_s"] = sum(row["self_s"] for row in native)

    # the split: whole node-level entry points, children included, as a
    # share of the engine's cycle loop (run + drain)
    engine_s = total_s("engine.run") + total_s("engine.run_until_drained")
    item_s = sum(
        total_s(n) for n in ("node.receive_items", "node.receive_item", "node.publish")
    )
    m["split.engine_s"] = engine_s
    m["split.item_path_share"] = item_s / engine_s if engine_s else 0.0
    m["split.gossip_share"] = total_s("node.begin_cycle") / engine_s if engine_s else 0.0

    point_s = sorted(tracer.durations("runner.point."))
    m["runner.points"] = len(point_s)
    m["runner.point_s_p50"] = statistics.median(point_s) if point_s else 0.0
    m["runner.point_s_max"] = point_s[-1] if point_s else 0.0
    m["baselines.cf.s"] = sum(tracer.durations("runner.point.cf-"))
    m["baselines.gossip.s"] = sum(tracer.durations("runner.point.gossip"))
    m["retrieval.evaluate.s"] = total_s("retrieval.evaluate")

    cache = default_score_cache()
    m["similarity.cache_hits"] = cache.hits
    m["similarity.cache_misses"] = cache.misses

    # counters summed over every system the unit ran (one, or a sweep's
    # points); per-node state over the WHATSUP nodes among them
    engines = [system.engine for system in systems]
    logs = [system.log.arrays() for system in systems]
    first = sum(int(a["d_item"].size - (a["d_hops"] == 0).sum()) for a in logs)
    delivered = sum(e.stats.delivered[MessageKind.ITEM] for e in engines)
    sent = sum(e.stats.total_sent() for e in engines)
    dropped = sum(sum(e.stats.dropped.values()) for e in engines)
    m["engine.cycles"] = sum(e.cycles_run for e in engines)
    m["network.item_msgs"] = sum(e.stats.item_messages() for e in engines)
    m["network.gossip_msgs"] = sum(e.stats.gossip_messages() for e in engines)
    m["network.item_bytes"] = sum(
        e.stats.bytes_delivered[MessageKind.ITEM] for e in engines
    )
    m["network.loss_rate"] = dropped / sent if sent else 0.0
    m["network.item_delivered"] = delivered
    m["delivery.duplicates"] = sum(system.log.duplicates for system in systems)
    m["delivery.first_receipts"] = first
    m["delivery.useful_ratio"] = first / delivered if delivered else 0.0
    nodes = [n for system in systems for n in system.nodes if hasattr(n, "wup")]
    m["views.state_bytes_per_node"] = (
        sum(n.rps.view.storage_nbytes() + n.wup.view.storage_nbytes() for n in nodes)
        / len(nodes)
    )
    m["profiles.state_bytes_per_node"] = sum(
        n.profile.storage_nbytes() for n in nodes
    ) / len(nodes)
    m["churn.kills"] = sum(e.churn.total_kills for e in engines if e.churn is not None)
    m["trace.run_s"] = run_s
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop after set-up, skip checks"
    )
    parser.add_argument("--spans", type=Path, help="write the span table here")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    # the sweep's observer hook is patched and restored like a span wrapper
    hooks = Tracer()
    tracer = Tracer() if args.trace else None
    sites = trace_sites()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    originals.append((runner, "build_system", runner.build_system))
    originals.append((sweeps, "run_one", sweeps.run_one))
    if tracer is not None:
        tracer.install(sites)
        tracer.patch(
            sweeps,
            "run_one",
            tracer.wrap_labelled(sweeps.run_one, "runner.point.", lambda a: a[0]),
        )
    try:
        if wl.kind == "sweep":
            out, systems = run_sweep(
                wl, args.seed, args.tiny, args.setup_only, hooks
            )
        else:
            out, systems = run_single(wl, args.seed, args.tiny, args.setup_only)
    finally:
        hooks.uninstall()
        if tracer is not None:
            tracer.uninstall()
    if args.setup_only:
        print(json.dumps(out))
        return 0
    out["restored"] = all(getattr(o, a) is f for o, a, f in originals)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = None if args.tiny else recorded_digest(wl.name, args.seed)
    out["digest_recorded"] = expected
    if expected is not None and out["digest"] != expected:
        out["problems"].append(
            f"outcome digest {out['digest']} != recorded {expected}"
        )
    if not out["restored"]:
        out["problems"].append("a wrapped function was not restored")
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, systems, out["run_s"])
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
    out["native"] = native_available()
    out["run_config"] = dataclasses.asdict(RunConfig())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
