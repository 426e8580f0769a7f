"""Random peer sampling (RPS) protocol.

The lower gossip layer of WUP (paper Section II): "the random-peer-sampling
protocol ensures connectivity by building and maintaining a continuously
changing random topology".  We implement the push–pull shuffle of Jelasity
et al. (ACM TOCS 2007) with tail peer selection, as the paper prescribes:

1. periodically, each node selects the entry in its RPS view with the
   **oldest** timestamp;
2. it sends that peer its own fresh descriptor plus **half of its view**
   (the typical parameter, per the paper);
3. the receiver replies symmetrically (push–pull) and both sides merge: the
   union of own and received entries, deduplicated per peer keeping the
   freshest descriptor, then trimmed back to capacity by **uniform random
   sampling**.

The union of all RPS views then approximates a random graph, which gives
BEEP's dislike-orientation a pool of taste-unbiased candidates and gives the
clustering layer a steady stream of fresh candidates.

The protocol object is transport-agnostic: :meth:`RpsProtocol.initiate`
returns a message to deliver, :meth:`RpsProtocol.handle` consumes one and
possibly returns a reply.  The simulation engine (or a real network stack)
shuttles the messages.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.gossip.views import (
    ArrayView,
    ViewEntry,
    make_view,
    shipment_wire_size,
)

__all__ = ["RpsMessage", "RpsProtocol"]


class RpsMessage(NamedTuple):
    """One RPS gossip message (request or reply).

    A NamedTuple: two messages are built per exchange, every cycle, for
    every node — C-level construction keeps them off the hot path.

    Attributes
    ----------
    sender:
        Originating node id.
    entries:
        The shipped descriptors: the sender's own fresh descriptor plus a
        random half of its view.
    is_request:
        ``True`` for the push half of the exchange; the receiver answers a
        request with a reply (``False``), closing the push–pull.
    wire:
        Precomputed :meth:`wire_size`, when the sender's view could price
        the shipment off its wire column (:class:`ArrayView`); ``None``
        falls back to the per-descriptor walk.  Both paths produce the
        same byte count — the sizes are memoised per profile snapshot.
    cols:
        The shipped ``(ids, ts, wire)`` columns aligned with *entries*,
        sliced from the sender's view columns — the receiver's merge
        consumes them directly (:meth:`ArrayView.upsert_columns`) with no
        per-entry field marshaling.  ``None`` from a dict :class:`View`.
    """

    sender: int
    entries: tuple[ViewEntry, ...]
    is_request: bool
    wire: int | None = None
    cols: "tuple | None" = None

    def wire_size(self) -> int:
        """Modelled serialized size in bytes (entries + 1-byte flag)."""
        if self.wire is not None:
            return self.wire
        return 1 + shipment_wire_size(self.entries)


class RpsProtocol:
    """Per-node RPS instance.

    Parameters
    ----------
    node_id:
        Owner's identifier.
    view_size:
        View capacity (the paper's ``RPSvs``, default 30 — Table II).
    rng:
        Dedicated random generator (view sampling, shuffle halves).
    address:
        Modelled network address used in descriptors.
    """

    __slots__ = ("node_id", "view", "rng", "address")

    def __init__(
        self,
        node_id: int,
        view_size: int,
        rng: np.random.Generator,
        address: str | None = None,
    ) -> None:
        self.node_id = node_id
        self.view = make_view(view_size, owner_id=node_id)
        self.rng = rng
        self.address = (
            address
            if address is not None
            else f"10.0.{node_id >> 8 & 255}.{node_id & 255}"
        )

    # -- descriptor -------------------------------------------------------

    def descriptor(self, profile, now: int) -> ViewEntry:
        """Build this node's own fresh descriptor.

        *profile* is the node's current user-profile snapshot
        (:class:`~repro.core.profiles.FrozenProfile`).
        """
        return ViewEntry(
            node_id=self.node_id,
            address=self.address,
            profile=profile,
            timestamp=now,
        )

    # -- active thread ----------------------------------------------------

    def select_partner(self) -> int | None:
        """The gossip partner for this cycle: oldest entry in the view."""
        oldest = self.view.oldest()
        return None if oldest is None else oldest.node_id

    def initiate(self, profile, now: int) -> tuple[int, RpsMessage] | None:
        """Start one gossip exchange.

        Returns ``(partner_id, request)`` or ``None`` when the view is empty
        (an isolated node waits for contact or re-bootstraps).
        """
        partner = self.select_partner()
        if partner is None:
            return None
        payload, wire, cols = self._shipment(profile, now, exclude=partner)
        return partner, RpsMessage(
            self.node_id, payload, is_request=True, wire=wire, cols=cols
        )

    # -- passive thread ---------------------------------------------------

    def handle(self, msg: RpsMessage, profile, now: int) -> RpsMessage | None:
        """Process an incoming message; return the reply for a request.

        Both request and reply handling merge the received entries into the
        view (union, freshest-per-peer, random trim) — the paper's "keep a
        random sample of the union of its own view and the received one".
        """
        reply: RpsMessage | None = None
        if msg.is_request:
            payload, wire, cols = self._shipment(
                profile, now, exclude=msg.sender
            )
            reply = RpsMessage(
                self.node_id, payload, is_request=False, wire=wire, cols=cols
            )
        self.view.upsert_columns(msg.entries, msg.cols)
        self.view.trim_random(self.rng)
        return reply

    # -- internals --------------------------------------------------------

    def _shipment(
        self, profile, now: int, exclude: int
    ) -> "tuple[tuple[ViewEntry, ...], int | None, tuple | None]":
        """Own fresh descriptor + a random half of the view, plus columns.

        The partner's own entry is excluded from the shipped half (it learns
        nothing from its own descriptor), matching standard shuffle
        implementations.  Returns ``(payload, wire, cols)``: an
        :class:`ArrayView` slices the shipment's ``(ids, ts, wire)``
        columns off its own and prices it with one wire-column sum; a dict
        :class:`View` returns ``(payload, None, None)``
        and the message measures itself by walking descriptors — same
        bytes either way.
        """
        view = self.view
        half = len(view) // 2
        if isinstance(view, ArrayView):
            # columnar path: sample over the candidate *count* (no list is
            # materialised), then gather the picked slots in one pass
            cand_count, excl_slot = view.shipment_candidates(exclude)
            sel = None
            if half > 0 and cand_count:
                k = min(half, cand_count)
                sel = self.rng.permutation(cand_count)[:k]
            own = self.descriptor(profile, now)
            shipped, cols, wire = view.ship_selected(
                sel, excl_slot, own, self.node_id, now
            )
            return (own, *shipped), wire, cols
        candidates = view.entries_except(exclude)
        if half > 0 and candidates:
            k = min(half, len(candidates))
            # a permutation prefix is a uniform sample without replacement
            # and draws measurably faster than Generator.choice
            idx = self.rng.permutation(len(candidates))[:k].tolist()
            shipped = [candidates[i] for i in idx]
        else:
            shipped = []
        return (self.descriptor(profile, now), *shipped), None, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RpsProtocol(node={self.node_id}, view={len(self.view)})"
