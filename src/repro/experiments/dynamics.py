"""Interest dynamics experiments (paper Figure 7, Section V-C).

Two interventions, both on the survey workload:

* **joining node** — a new user with interests identical to a running
  *reference node* cold-starts mid-run (Section II-D); we track how many
  cycles its WUP view needs to become as good as the reference's;
* **changing node** — two random users *swap* interests mid-run (the
  paper's upper bound on gradual interest drift); we track how long their
  views take to re-converge.

The paper's measurement: "the average similarity between the reference node
and the members of its WUP view", compared with the same measure applied to
the joining/changing node.  The headline numbers: the WUP metric needs ~20
cycles for a joiner (cosine: >100) and ~40 for a swap (cosine: >100), and
the joiner starts receiving liked news immediately (Figure 7c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.node import WhatsUpNode
from repro.core.similarity import get_metric
from repro.datasets import survey_dataset
from repro.datasets.base import Dataset, OpinionOracle

__all__ = ["DynamicsTrace", "run_dynamics_experiment", "view_similarity_to"]


def view_similarity_to(reference: WhatsUpNode, node: WhatsUpNode, metric) -> float:
    """Average similarity between *reference*'s profile and *node*'s WUP view.

    The paper's Figure 7 measure: how well a node's view would serve the
    reference interests.
    """
    entries = node.wup.view.entries()
    if not entries:
        return 0.0
    ref_profile = reference.profile.snapshot()
    return float(
        np.mean([metric(ref_profile, e.profile) for e in entries])
    )


class _SwappableOracle:
    """Ground-truth oracle with an indirection layer for interest swaps."""

    def __init__(self, dataset: Dataset) -> None:
        self._oracle = OpinionOracle(dataset)
        self._alias: dict[int, int] = {}

    def swap(self, a: int, b: int) -> None:
        """Exchange the interests of users *a* and *b* from now on."""
        ra = self._alias.get(a, a)
        rb = self._alias.get(b, b)
        self._alias[a] = rb
        self._alias[b] = ra

    def alias(self, node_id: int, row: int) -> None:
        """Make *node_id* answer with user *row*'s interests."""
        self._alias[node_id] = row

    def __call__(self, node_id: int, item) -> bool:
        return self._oracle(self._alias.get(node_id, node_id), item)


@dataclass
class DynamicsTrace:
    """Per-cycle traces of the Figure 7 experiment."""

    cycles: list[int] = field(default_factory=list)
    reference_similarity: list[float] = field(default_factory=list)
    joining_similarity: list[float] = field(default_factory=list)
    changing_similarity: list[float] = field(default_factory=list)
    #: cycle -> number of liked news received that cycle (joiner, Fig. 7c)
    joiner_liked_per_cycle: dict[int, int] = field(default_factory=dict)
    reference_liked_per_cycle: dict[int, int] = field(default_factory=dict)
    intervention_cycle: int = 0

    def convergence_cycle(
        self, threshold: float = 0.8, min_reference: float = 0.15
    ) -> int | None:
        """First post-intervention cycle where the joiner's view reaches
        *threshold* × the reference's view quality (paper's 80% criterion).

        Cycles where the reference's own view similarity is below
        *min_reference* are skipped: early in a run everybody's views score
        near zero and the ratio criterion would fire vacuously.
        """
        return self._first_reaching(self.joining_similarity, threshold, min_reference)

    def change_convergence_cycle(
        self, threshold: float = 0.8, min_reference: float = 0.15
    ) -> int | None:
        """Recovery time of the interest-changing node.

        A node that swaps interests first *loses* view quality — its old
        opinions dominate the profile until the window purges them — and
        then rebuilds.  We therefore locate the post-intervention minimum
        of its view similarity and report the first cycle after it where
        the ratio criterion holds (measured from the intervention).
        """
        post = [
            (i, c)
            for i, c in enumerate(self.cycles)
            if c >= self.intervention_cycle
        ]
        if not post:
            return None
        dip_index = min(post, key=lambda ic: self.changing_similarity[ic[0]])[0]
        for i, c in post:
            if i < dip_index:
                continue
            ref = self.reference_similarity[i]
            if ref >= min_reference and self.changing_similarity[i] >= threshold * ref:
                return c - self.intervention_cycle
        return None

    def _first_reaching(
        self, series: list[float], threshold: float, min_reference: float
    ) -> int | None:
        for c, value, ref in zip(
            self.cycles, series, self.reference_similarity, strict=False
        ):
            if (
                c >= self.intervention_cycle
                and ref >= min_reference
                and value >= threshold * ref
            ):
                return c - self.intervention_cycle
        return None


def _representative_users(dataset: Dataset, rng: np.random.Generator) -> np.ndarray:
    """Users eligible as reference/changing nodes.

    The paper repeats the experiment with 100 random joining nodes from its
    real survey population, where every respondent liked some mainstream
    items.  Our generator has a deliberate eccentric tail (for the
    Figure 11 sociability spectrum) whose members like almost nothing
    popular; cloning one would measure the tail, not cold start.  We sample
    references from users above the 25th like-rate percentile.
    """
    rates = dataset.likes.mean(axis=1)
    cutoff = np.percentile(rates, 25)
    eligible = np.flatnonzero(rates > cutoff)
    return eligible if len(eligible) >= 3 else np.arange(dataset.n_users)


def _run_single(
    metric_name: str,
    n_base_users: int,
    n_base_items: int,
    publish_cycles: int,
    total_cycles: int,
    intervention_cycle: int,
    profile_window: int,
    f_like: int,
    seed: int,
) -> DynamicsTrace:
    dataset = survey_dataset(
        n_base_users=n_base_users,
        n_base_items=n_base_items,
        publish_cycles=publish_cycles,
        seed=seed,
    )
    config = WhatsUpConfig(
        f_like=f_like,
        profile_window=profile_window,
        similarity=metric_name,
    )
    system = WhatsUpSystem(dataset, config, seed=seed)
    oracle = _SwappableOracle(dataset)
    # replace every node's oracle with the swappable one
    for node in system.nodes:
        node.opinion = oracle
    system.oracle = oracle

    metric = get_metric(metric_name)
    rng = system.streams.get("dynamics")
    eligible = _representative_users(dataset, rng)
    picks = rng.choice(len(eligible), size=3, replace=False)
    reference_id = int(eligible[picks[0]])
    swap_a = int(eligible[picks[1]])
    swap_b = int(eligible[picks[2]])
    joiner_id = dataset.n_users + 1

    trace = DynamicsTrace(intervention_cycle=intervention_cycle)
    state: dict = {"joiner": None}

    def observer(engine, cycle: int) -> None:
        reference = engine.node(reference_id)
        trace.cycles.append(cycle)
        trace.reference_similarity.append(
            view_similarity_to(reference, reference, metric)
        )
        joiner = state["joiner"]
        trace.joining_similarity.append(
            view_similarity_to(reference, joiner, metric) if joiner else 0.0
        )
        changing = engine.node(swap_a)
        # measured against the node's *new* interests: after the swap the
        # changing node must rebuild a view serving its fresh profile,
        # so (as in the paper) we measure its view against itself
        trace.changing_similarity.append(
            view_similarity_to(changing, changing, metric)
        )

    system.engine.add_observer(observer)

    # phase 1: warm-up until the intervention
    system.run(intervention_cycle, drain=False)

    # interventions: join a clone of the reference; swap two users
    oracle.alias(joiner_id, reference_id)
    joiner = system.join_node(joiner_id, opinion=oracle)
    state["joiner"] = joiner
    oracle.swap(swap_a, swap_b)

    # phase 2: observe convergence
    system.run(total_cycles - intervention_cycle, drain=True)

    # Figure 7c: liked receptions per cycle for joiner vs reference
    arr = system.log.arrays()
    for node_id, bucket in (
        (joiner_id, trace.joiner_liked_per_cycle),
        (reference_id, trace.reference_liked_per_cycle),
    ):
        mask = (arr["d_node"] == node_id) & arr["d_liked"]
        for cyc in arr["d_cycle"][mask]:
            bucket[int(cyc)] = bucket.get(int(cyc), 0) + 1
    return trace


def run_dynamics_experiment(
    *,
    metric_name: str = "wup",
    n_base_users: int = 120,
    n_base_items: int = 500,
    publish_cycles: int = 200,
    total_cycles: int = 200,
    intervention_cycle: int = 80,
    profile_window: int = 40,
    f_like: int = 5,
    seed: int = 1,
    repeats: int = 3,
) -> DynamicsTrace:
    """Run the Figure 7 joining/changing-node experiment.

    The workload publishes continuously so profiles stay warm throughout;
    the profile window is ~40 cycles, as in the paper's dynamics runs.
    Traces are averaged over *repeats* independent populations and node
    choices (the paper averages 100 repetitions; 3 keeps benchmark runs
    short — raise it for paper-grade smoothness).

    Returns the averaged per-cycle traces; benchmark code derives the
    convergence summaries from them.
    """
    traces = [
        _run_single(
            metric_name,
            n_base_users,
            n_base_items,
            publish_cycles,
            total_cycles,
            intervention_cycle,
            profile_window,
            f_like,
            seed + 1000 * r,
        )
        for r in range(max(1, repeats))
    ]
    if len(traces) == 1:
        return traces[0]
    merged = DynamicsTrace(intervention_cycle=intervention_cycle)
    n_cycles = min(len(t.cycles) for t in traces)
    merged.cycles = traces[0].cycles[:n_cycles]
    for attr in ("reference_similarity", "joining_similarity", "changing_similarity"):
        stacked = np.array([getattr(t, attr)[:n_cycles] for t in traces])
        setattr(merged, attr, stacked.mean(axis=0).tolist())
    for attr in ("joiner_liked_per_cycle", "reference_liked_per_cycle"):
        bucket: dict[int, float] = {}
        for t in traces:
            for cyc, count in getattr(t, attr).items():
                bucket[cyc] = bucket.get(cyc, 0.0) + count / len(traces)
        setattr(merged, attr, bucket)
    return merged
