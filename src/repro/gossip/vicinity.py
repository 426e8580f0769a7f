"""Vicinity-style clustering protocol (the WUP overlay layer).

The upper gossip layer of WUP (paper Section II): each node greedily keeps in
its view the peers whose profiles are **most similar to its own**.  Following
Voulgaris & van Steen's Vicinity (Euro-Par 2005), as instantiated by the
paper:

1. periodically, each node selects the entry with the oldest timestamp in its
   clustering view;
2. it sends that peer its own fresh descriptor plus its **entire view**
   (unlike the RPS, which ships half — Section II);
3. the receiver replies symmetrically, and both sides merge: from the union
   of their own view, the received entries, **and the local RPS view** (the
   clustering layer feeds on the random layer for fresh candidates), keep the
   ``view_size`` entries whose profiles maximise the similarity metric.

The similarity metric is pluggable: WHATSUP uses the asymmetric WUP metric
(:func:`repro.core.similarity.wup_similarity`); the paper's WHATSUP-Cos
variant swaps in classical cosine.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro._native import kernel as _native
from repro.core.similarity import (
    MetricFn,
    ScoreCache,
    _native_pool_code,
    batch_scoring_enabled,
    default_score_cache,
    get_metric,
    metric_name_of,
    score_candidates,
)
from repro.gossip.views import (
    ArrayView,
    ViewEntry,
    make_view,
    shipment_wire_size,
)

__all__ = ["ClusteringMessage", "ClusteringProtocol"]


class ClusteringMessage(NamedTuple):
    """One clustering-layer gossip message (request or reply).

    A NamedTuple for the same hot-path construction economics as
    :class:`~repro.gossip.rps.RpsMessage`.  *wire* carries the
    precomputed byte size when the sender's view priced the shipment off
    its wire column (``ArrayView``); ``None`` → per-descriptor walk.
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


class ClusteringProtocol:
    """Per-node clustering (WUP social network) instance.

    Parameters
    ----------
    node_id:
        Owner's identifier.
    view_size:
        View capacity (the paper's ``WUPvs``; WHATSUP sets it to twice the
        like-fanout — Table II).
    metric:
        Similarity function ``metric(own_profile, candidate_profile)`` used
        to rank candidates, or a registered metric name.  Registered metrics
        are scored through the vectorised batch kernel
        (:func:`repro.core.similarity.score_candidates`); unregistered
        callables fall back to per-candidate scalar calls.
    rng:
        Dedicated random generator (used only for deterministic tie-breaks
        through shuffling when scores tie exactly).
    address:
        Modelled network address used in descriptors.
    cache:
        Score cache for the batch path; defaults to the process-wide shared
        cache (:func:`repro.core.similarity.default_score_cache`).
    """

    __slots__ = ("node_id", "view", "metric", "metric_name", "rng", "address", "cache")

    def __init__(
        self,
        node_id: int,
        view_size: int,
        metric: MetricFn | str,
        rng: np.random.Generator,
        address: str | None = None,
        cache: ScoreCache | None = None,
    ) -> None:
        self.node_id = node_id
        self.view = make_view(view_size, owner_id=node_id)
        self.metric_name = metric_name_of(metric)
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.rng = rng
        self.address = (
            address
            if address is not None
            else f"10.0.{node_id >> 8 & 255}.{node_id & 255}"
        )
        self.cache = cache if cache is not None else default_score_cache()

    def descriptor(self, profile, now: int) -> ViewEntry:
        """Build this node's own fresh descriptor."""
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

    def initiate(
        self, profile, now: int, ranking_profile=None
    ) -> tuple[int, ClusteringMessage] | None:
        """Start one exchange: ship own descriptor + the **entire** view.

        *profile* goes into the shipped descriptor (what others learn);
        *ranking_profile*, when given, is used for the local merge instead
        (a privacy-conscious node shares a distorted profile but ranks
        candidates against its true interests).
        """
        partner = self.select_partner()
        if partner is None:
            return None
        return partner, self._message(profile, now, partner, is_request=True)

    def _message(
        self, profile, now: int, exclude: int, is_request: bool
    ) -> ClusteringMessage:
        """Own fresh descriptor + the whole view but *exclude*, priced.

        An :class:`ArrayView` prices the shipment off its wire column in
        one pass; a dict :class:`View` leaves it ``None`` and the message
        measures itself by walking descriptors.
        """
        view = self.view
        own = self.descriptor(profile, now)
        if isinstance(view, ArrayView):
            shipped, cols, wire = view.ship_all_except(
                exclude, own, self.node_id, now
            )
        else:
            shipped, cols, wire = view.entries_except(exclude), None, None
        return ClusteringMessage(
            self.node_id, (own, *shipped), is_request, wire, cols
        )

    # -- passive thread ---------------------------------------------------

    def handle(
        self,
        msg: ClusteringMessage,
        profile,
        now: int,
        rps_entries: Iterable[ViewEntry] = (),
        ranking_profile=None,
        rps_cols: "tuple | None" = None,
    ) -> ClusteringMessage | None:
        """Process an incoming message; return the reply for a request.

        *profile* is shipped in the reply descriptor; *ranking_profile*
        (default: *profile*) is the merge's ranking reference;
        *rps_entries* is the owner's current RPS view, folded into the
        candidate pool as Vicinity prescribes — with *rps_cols* its
        ``(ids, ts, wire)`` columns when the RPS view is array-backed
        (:meth:`~repro.gossip.views.ArrayView.entries_with_columns`).
        """
        reply: ClusteringMessage | None = None
        if msg.is_request:
            reply = self._message(profile, now, msg.sender, is_request=False)
        self.merge(
            ranking_profile if ranking_profile is not None else profile,
            msg.entries,
            rps_entries,
            received_cols=msg.cols,
            rps_cols=rps_cols,
        )
        return reply

    # -- merge ------------------------------------------------------------

    def merge(
        self,
        profile,
        received: Iterable[ViewEntry],
        rps_entries: Iterable[ViewEntry] = (),
        *,
        received_cols: "tuple | None" = None,
        rps_cols: "tuple | None" = None,
    ) -> None:
        """Union own view + received + RPS candidates; keep the closest.

        Candidate scores use ``metric(own_profile, candidate_profile)`` —
        the owner is the "chooser" ``n`` of the asymmetric metric.  When
        the metric is registered, the whole pool is scored in one pass
        through the three-tier dispatch
        (:func:`~repro.core.similarity.score_candidates`: native C kernel
        → numpy → set algebra) and the trim selection follows the same
        dispatch inside :meth:`~repro.gossip.views.View.trim_ranked_aligned`
        — on the native tier the entire merge inner loop (scoring + trim)
        runs in compiled code.  Unchanged ``(owner version, candidate
        version)`` pairs are served from the score cache on the Python
        tiers (a native rescore is cheaper than the cache's per-pair dict
        traffic, so the native tier skips it); every tier produces
        bitwise-identical rankings.
        """
        view = self.view
        view.upsert_columns(received, received_cols)
        view.upsert_columns(rps_entries, rps_cols)
        if len(view) <= view.capacity:
            return  # nothing to evict: skip scoring entirely
        if self.metric_name is not None and batch_scoring_enabled():
            entries = view.entries()
            nk = _native()
            if nk is not None:
                code = _native_pool_code(
                    self.metric_name, "n", getattr(profile, "is_binary", False)
                )
                if code is not None:
                    keep = nk.merge_rank(
                        profile, entries, code, view.capacity
                    )
                    if keep is not None:
                        view.keep_ranked(entries, keep)
                        return
            scores = score_candidates(
                profile,
                [e.profile for e in entries],
                self.metric_name,
                cache=self.cache,
            )
            view.trim_ranked_aligned(entries, scores)
        else:
            metric = self.metric
            view.trim_ranked(lambda e: metric(profile, e.profile))

    def refresh(
        self,
        profile,
        rps_entries: Iterable[ViewEntry],
        rps_cols: "tuple | None" = None,
    ) -> None:
        """Re-rank the view against *profile* using only RPS candidates.

        Called when the owner's profile changed substantially outside a
        gossip exchange (e.g. after the cold-start bootstrap) so the view
        reflects current interests without waiting a full cycle.
        """
        self.merge(profile, (), rps_entries, rps_cols=rps_cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusteringProtocol(node={self.node_id}, view={len(self.view)})"
