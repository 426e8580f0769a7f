"""Traffic accounting.

Counts attempted/delivered/dropped messages and delivered bytes, split by
protocol kind (:class:`~repro.network.message.MessageKind`).  The experiment
harness derives from these counters:

* the paper's "Messages / Cycles / Nodes" x-axis of Figures 3d-3f (item
  messages only — the quantity Table III reports as ``Mess./User``);
* the per-protocol bandwidth split of Figure 8b, converting bytes to Kbps
  given the gossip-cycle duration (30 s in the paper's deployment runs).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.network.message import Envelope, MessageKind

__all__ = ["TrafficStats"]


@dataclass
class TrafficStats:
    """Mutable counters for one simulation run."""

    sent: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    delivered: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    dropped: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bytes_delivered: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record(self, envelope: Envelope, delivered: bool) -> None:
        """Record one transmission attempt and its outcome."""
        kind = envelope.kind
        self.sent[kind] += 1
        if delivered:
            self.delivered[kind] += 1
            self.bytes_delivered[kind] += envelope.size_bytes
        else:
            self.dropped[kind] += 1

    def record_parts(self, kind: MessageKind, size_bytes: int, delivered: bool) -> None:
        """Record one attempt from its parts (no envelope construction).

        The engine's lossless fast path accounts gossip legs without
        materialising an :class:`~repro.network.message.Envelope`; the
        counters move exactly as :meth:`record` would move them.
        """
        self.sent[kind] += 1
        if delivered:
            self.delivered[kind] += 1
            self.bytes_delivered[kind] += size_bytes
        else:
            self.dropped[kind] += 1

    def record_items_bulk(self, delivered: int, dropped: int, nbytes: int) -> None:
        """Account a whole cycle's item sends in one update.

        *delivered* attempts reached an alive target carrying *nbytes*
        total; *dropped* attempts targeted dead or unknown nodes.  Totals
        match *delivered + dropped* per-envelope :meth:`record` calls.
        """
        kind = MessageKind.ITEM
        self.sent[kind] += delivered + dropped
        if delivered:
            self.delivered[kind] += delivered
            self.bytes_delivered[kind] += nbytes
        if dropped:
            self.dropped[kind] += dropped

    # -- derived quantities -------------------------------------------------

    def total_sent(self) -> int:
        """All transmission attempts across protocols."""
        return sum(self.sent.values())

    def item_messages(self) -> int:
        """Attempted BEEP item transmissions (the paper's message metric)."""
        return self.sent[MessageKind.ITEM]

    def gossip_messages(self) -> int:
        """Attempted RPS + WUP transmissions."""
        return self.sent[MessageKind.RPS] + self.sent[MessageKind.WUP]

    def loss_rate(self, kind: MessageKind | None = None) -> float:
        """Observed drop fraction, overall or for one protocol kind."""
        if kind is None:
            sent = self.total_sent()
            dropped = sum(self.dropped.values())
        else:
            sent = self.sent[kind]
            dropped = self.dropped[kind]
        return dropped / sent if sent else 0.0

    def messages_per_user_per_cycle(self, n_nodes: int, n_cycles: int) -> float:
        """Item messages normalised the way Figures 3d-3f plot them."""
        if n_nodes <= 0 or n_cycles <= 0:
            return 0.0
        return self.item_messages() / n_cycles / n_nodes

    def messages_per_user(self, n_nodes: int) -> float:
        """Item messages per user (Table III's ``Mess./User``)."""
        if n_nodes <= 0:
            return 0.0
        return self.item_messages() / n_nodes

    def bandwidth_kbps(
        self,
        n_nodes: int,
        n_cycles: int,
        cycle_seconds: float,
        kind: MessageKind | None = None,
    ) -> float:
        """Average per-node consumed bandwidth in Kbps (Figure 8b).

        Parameters
        ----------
        n_nodes / n_cycles:
            Run dimensions.
        cycle_seconds:
            Wall-clock duration of one gossip cycle (30 s in the paper's
            emulation runs, ~5 min in the prototype).
        kind:
            Restrict to one protocol family, or ``None`` for the total.
        """
        if n_nodes <= 0 or n_cycles <= 0 or cycle_seconds <= 0:
            return 0.0
        if kind is None:
            nbytes = sum(self.bytes_delivered.values())
        else:
            nbytes = self.bytes_delivered[kind]
        seconds = n_cycles * cycle_seconds
        return (nbytes * 8.0 / 1000.0) / seconds / n_nodes
