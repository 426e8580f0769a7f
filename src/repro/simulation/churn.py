"""Node churn injection.

The paper claims gossip's hallmark robustness ("preserving the fundamental
advantages of standard gossip: simplicity of deployment and robustness") and
demonstrates message-loss tolerance; our extension benchmarks additionally
stress WHATSUP under *churn* — nodes crashing and rejoining — which the
underlying RPS layer is designed to absorb (dead descriptors age out and are
replaced through shuffling).

:class:`ChurnModel` kills each alive node independently per cycle with a
fixed probability and optionally revives it a fixed number of cycles later.
A revived node keeps its profile (it is the same user) but its views have
aged — exactly the "inactive user" scenario of Section II-E.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.validation import check_non_negative, check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import CycleEngine

__all__ = ["ChurnModel", "CorrelatedOutageChurn"]


class ChurnModel:
    """Random kill/rejoin process.

    Parameters
    ----------
    kill_rate:
        Per-cycle probability that an alive node crashes.
    rejoin_after:
        Cycles a crashed node stays down; ``None`` → crashes are permanent.
        A killed node is down for **at least one full cycle**: revivals are
        processed at the top of :meth:`apply`, before this cycle's kills,
        so a node killed at cycle ``t`` revives at
        ``t + max(1, rejoin_after)`` — ``rejoin_after=0`` means "return at
        the next cycle", not "never die" (and not, as a naive ``due = now``
        schedule would silently produce, "never return": cycle ``t``'s
        revivals have already been popped by the time the kill happens).
    start_cycle:
        First cycle at which churn applies (lets the overlay warm up first).
    protected:
        Node ids never killed (e.g. the sources of a workload, so that
        publications are not silently dropped and runs stay comparable).
    """

    def __init__(
        self,
        kill_rate: float,
        rejoin_after: int | None = None,
        start_cycle: int = 0,
        protected: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        check_probability("kill_rate", kill_rate)
        if rejoin_after is not None:
            check_non_negative("rejoin_after", rejoin_after)
        check_non_negative("start_cycle", start_cycle)
        self.kill_rate = float(kill_rate)
        self.rejoin_after = rejoin_after
        self.start_cycle = int(start_cycle)
        self.protected = frozenset(protected)
        #: cycle -> node ids scheduled to revive then
        self._revivals: dict[int, list[int]] = {}
        self.total_kills = 0
        self.total_rejoins = 0

    def apply(self, engine: "CycleEngine", now: int) -> None:
        """Kill and revive nodes for this cycle (engine hook)."""
        # revivals first, so a node can rejoin the cycle it is due
        for nid in self._revivals.pop(now, []):
            node = engine.nodes.get(nid)
            if node is not None and not node.alive:
                node.alive = True
                self.total_rejoins += 1

        if now < self.start_cycle or self.kill_rate == 0.0:
            return
        rng = engine.streams.get("churn")
        for nid in engine.alive_node_ids():
            if nid in self.protected:
                continue
            if rng.random() < self.kill_rate:
                engine.nodes[nid].alive = False
                self.total_kills += 1
                if self.rejoin_after is not None:
                    # at least one cycle down: this cycle's revivals were
                    # popped above, so `due = now` would never fire
                    due = now + max(1, self.rejoin_after)
                    self._revivals.setdefault(due, []).append(nid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChurnModel(kill_rate={self.kill_rate}, "
            f"rejoin_after={self.rejoin_after}, kills={self.total_kills})"
        )


class CorrelatedOutageChurn:
    """A deterministic, residue-class mass outage.

    At ``start_cycle`` every node with ``node_id % n_classes ==
    target_class`` goes offline at once, and the whole class returns
    ``down_for`` cycles later.  This models regional churn: unlike
    :class:`ChurnModel`'s independent per-node coin flips, the failures
    here are perfectly correlated, the worst case for a gossip overlay
    (an entire region of the id space vanishes, taking its view entries
    and in-flight items with it).

    No RNG is consumed, so adding the model to a run perturbs no other
    stream — with and without the outage are comparable draw-for-draw.
    The counters mirror :class:`ChurnModel` so experiment reports treat
    both models uniformly.
    """

    def __init__(
        self,
        n_classes: int,
        target_class: int = 0,
        start_cycle: int = 10,
        down_for: int = 10,
        protected: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if not (0 <= target_class < n_classes):
            raise ValueError("target_class must be within [0, n_classes)")
        check_non_negative("start_cycle", start_cycle)
        if down_for < 1:
            raise ValueError("down_for must be >= 1")
        self.n_classes = int(n_classes)
        self.target_class = int(target_class)
        self.start_cycle = int(start_cycle)
        self.down_for = int(down_for)
        self.protected = frozenset(protected)
        self.total_kills = 0
        self.total_rejoins = 0

    def apply(self, engine: "CycleEngine", now: int) -> None:
        """Engine hook: fire the outage / the recovery at their cycles."""
        if now == self.start_cycle:
            for nid, node in engine.nodes.items():
                if nid % self.n_classes != self.target_class:
                    continue
                if nid in self.protected or not node.alive:
                    continue
                node.alive = False
                self.total_kills += 1
        elif now == self.start_cycle + self.down_for:
            for nid, node in engine.nodes.items():
                if nid % self.n_classes != self.target_class:
                    continue
                if nid in self.protected or node.alive:
                    continue
                node.alive = True
                self.total_rejoins += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorrelatedOutageChurn(class={self.target_class}/{self.n_classes}, "
            f"start={self.start_cycle}, down_for={self.down_for})"
        )
