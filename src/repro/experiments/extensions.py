"""Extension experiments beyond the paper's printed evaluation.

* ``ext-churn`` — the robustness-to-churn claim (§I: gossip's "simplicity
  of deployment and robustness") quantified: F1 under increasing
  crash/rejoin churn;
* ``ext-privacy`` — the §VII future-work mechanisms: randomized-response
  profile obfuscation (accuracy vs disclosure) and onion-routed exchanges
  (unchanged accuracy, multiplied bandwidth).
"""

from __future__ import annotations

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scale import ScaleProfile
from repro.metrics.retrieval import evaluate_dissemination
from repro.privacy import OnionRoutedTransport, obfuscated_whatsup_system
from repro.simulation.churn import ChurnModel
from repro.utils.tables import format_table

__all__ = [
    "exp_ext_churn",
    "exp_ext_privacy",
    "exp_ext_latency",
    "exp_ext_drift",
    "exp_shard_outage",
]


def exp_ext_churn(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """F1 under node churn (crash + rejoin)."""
    ds = scale.survey(seed)
    config = WhatsUpConfig(f_like=8)
    rows = []
    for kill_rate, rejoin in (
        (0.0, None),
        (0.01, 5),
        (0.03, 5),
        (0.05, 5),
        (0.03, None),
    ):
        churn = (
            ChurnModel(kill_rate=kill_rate, rejoin_after=rejoin, start_cycle=5)
            if kill_rate > 0
            else None
        )
        system = WhatsUpSystem(ds, config, seed=seed, churn=churn)
        system.run()
        scores = evaluate_dissemination(system.reached_matrix(), ds.likes)
        label = (
            "no churn"
            if churn is None
            else (
                f"{kill_rate:.0%}/cycle, "
                f"rejoin={'never' if rejoin is None else rejoin}"
            )
        )
        kills = churn.total_kills if churn else 0
        rows.append((label, kills, scores.precision, scores.recall, scores.f1))
    text = format_table(
        ["Churn", "Kills", "Precision", "Recall", "F1-Score"],
        rows,
        title=f"Extension: churn robustness (fLIKE=8, scale={scale.name})",
    )
    return ExperimentReport(
        "ext-churn", "Robustness under churn", text, {"rows": rows}
    )


def exp_ext_privacy(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Privacy mechanisms: obfuscation and onion routing (§VII)."""
    ds = scale.survey(seed)
    config = WhatsUpConfig(f_like=8)
    rows = []

    baseline = WhatsUpSystem(ds, config, seed=seed)
    baseline.run()
    base = evaluate_dissemination(baseline.reached_matrix(), ds.likes)
    rows.append(("no privacy", base.precision, base.recall, base.f1, 1.0))

    for flip, suppress in ((0.05, 0.1), (0.15, 0.3), (0.3, 0.5)):
        system = obfuscated_whatsup_system(
            ds, config, flip=flip, suppress=suppress, seed=seed
        )
        system.run()
        s = evaluate_dissemination(system.reached_matrix(), ds.likes)
        rows.append(
            (
                f"obfuscation flip={flip} suppress={suppress}",
                s.precision,
                s.recall,
                s.f1,
                1.0,
            )
        )

    onion = OnionRoutedTransport(extra_hops=2)
    system = WhatsUpSystem(ds, config, seed=seed, transport=onion)
    system.run()
    s = evaluate_dissemination(system.reached_matrix(), ds.likes)
    rows.append(
        (
            "onion routing, 2 relays",
            s.precision,
            s.recall,
            s.f1,
            onion.bandwidth_multiplier(1024),
        )
    )

    text = format_table(
        ["Mechanism", "Precision", "Recall", "F1-Score", "BW multiplier"],
        rows,
        title=f"Extension: privacy mechanisms (fLIKE=8, scale={scale.name})",
    )
    return ExperimentReport(
        "ext-privacy", "Privacy mechanisms (§VII)", text, {"rows": rows}
    )


def exp_ext_latency(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Dissemination latency (the paper's footnote-1 future work).

    Compares how fast liked news reaches its audience under WHATSUP,
    plain CF and homogeneous gossip at equal fanout, on the one-hop-per-
    cycle model and under a heterogeneous-delay network
    (:class:`~repro.network.transport.LatencyTransport` with a slow-node
    tail).
    """
    import numpy as np

    from repro.experiments.factory import build_system
    from repro.metrics.retrieval import evaluate_dissemination
    from repro.metrics.temporal import latency_summary, time_to_audience
    from repro.network.transport import LatencyTransport

    ds = scale.survey(seed)
    pub = np.array([it.created_at for it in ds.items])
    rows = []
    for label, name, transport in (
        ("whatsup", "whatsup", None),
        ("cf-wup", "cf-wup", None),
        ("gossip", "gossip", None),
        (
            "whatsup (slow links)",
            "whatsup",
            LatencyTransport(tail=0.5, slow_fraction=0.2),
        ),
    ):
        system = build_system(name, ds, fanout=8, seed=seed, transport=transport)
        system.run()
        summary = latency_summary(system.log, pub, liked_only=True)
        tta = time_to_audience(system.log, pub, ds.n_items, fraction=0.9)
        scores = evaluate_dissemination(system.reached_matrix(), ds.likes)
        rows.append(
            (
                label,
                summary.mean,
                summary.median,
                summary.p90,
                float(tta.mean()),
                scores.f1,
            )
        )
    text = format_table(
        [
            "System",
            "Mean lat.",
            "Median",
            "p90",
            "Mean t-to-90% audience",
            "F1-Score",
        ],
        rows,
        title=(
            f"Extension: dissemination latency in cycles "
            f"(fanout=8, scale={scale.name})"
        ),
        float_fmt=".2f",
    )
    return ExperimentReport(
        "ext-latency", "Dissemination latency (footnote 1)", text, {"rows": rows}
    )


def exp_ext_drift(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Profile-window trade-off under interest drift (§II-E / §IV-D).

    On a static workload, longer windows only help; under drift the paper's
    claimed trade-off appears: short windows lose CF signal, long windows
    keep stale opinions.  This experiment sweeps the window on the drifting
    survey workload.
    """
    from repro.datasets.drift import drifting_survey_dataset
    from repro.experiments.factory import build_system
    from repro.metrics.retrieval import evaluate_dissemination

    ds = drifting_survey_dataset(
        n_base_users=max(60, scale.survey_base_users // 2),
        n_base_items=240,
        n_phases=3,
        drift=0.6,
        publish_cycles=90,
        seed=seed,
    )
    rows = []
    for window in (4, 9, 18, 36, 72):
        cfg = WhatsUpConfig(f_like=8, profile_window=window)
        system = build_system("whatsup", ds, seed=seed, config=cfg)
        system.run()
        scores = evaluate_dissemination(system.reached_matrix(), ds.likes)
        rows.append(
            (
                f"{window} cycles ({window / 90:.2f} of run)",
                scores.precision,
                scores.recall,
                scores.f1,
            )
        )
    text = format_table(
        ["Profile window", "Precision", "Recall", "F1-Score"],
        rows,
        title=f"Extension: window sweep under interest drift (scale={scale.name})",
    )
    return ExperimentReport(
        "ext-drift",
        "Profile window under interest drift",
        text,
        {"rows": rows, "windows": [4, 9, 18, 36, 72]},
    )


def exp_shard_outage(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Dissemination under a correlated, residue-class outage.

    A failure domain (one host, one rack, one region of the id space)
    takes out many nodes at once.  Here every node with ``node_id % N``
    equal to one residue is killed at the same cycle.  Unlike the
    independent crashes of ``ext-churn``, such an outage is
    *correlated*: a quarter of every neighbourhood disappears at once,
    and every view in the system is hit simultaneously.  This experiment
    quantifies what the paper's robustness claim (§I) buys under that
    adversarial pattern — delivery volume and recall with and without
    the outage, for two outage widths and two failure points.  The id
    ``shard-outage`` is kept for continuity with earlier reports.
    """
    from repro.simulation.churn import CorrelatedOutageChurn

    ds = scale.survey(seed)
    config = WhatsUpConfig(f_like=8)
    publish = ds.publish_cycles
    start = max(2, publish // 3)
    down = max(4, publish // 3)
    rows = []
    for label, churn in (
        ("no outage", None),
        (
            f"1/4 of nodes down {down} cycles",
            CorrelatedOutageChurn(
                4, target_class=1, start_cycle=start, down_for=down
            ),
        ),
        (
            f"1/2 of nodes down {down} cycles",
            CorrelatedOutageChurn(
                2, target_class=1, start_cycle=start, down_for=down
            ),
        ),
        (
            "1/4 of nodes down, never rejoin",
            CorrelatedOutageChurn(
                4, target_class=1, start_cycle=start, down_for=10 * publish
            ),
        ),
    ):
        system = WhatsUpSystem(ds, config, seed=seed, churn=churn)
        system.run()
        scores = evaluate_dissemination(system.reached_matrix(), ds.likes)
        rows.append(
            (
                label,
                churn.total_kills if churn else 0,
                round(system.stats.messages_per_user(ds.n_users), 2),
                scores.precision,
                scores.recall,
                scores.f1,
            )
        )
    text = format_table(
        ["Outage", "Killed", "Mess./User", "Precision", "Recall", "F1-Score"],
        rows,
        title=(
            "Extension: correlated residue-class outage "
            f"(fLIKE=8, scale={scale.name})"
        ),
    )
    return ExperimentReport(
        "shard-outage",
        "Correlated residue-class outage",
        text,
        {"rows": rows, "start_cycle": start, "down_for": down},
    )
