"""Dissemination event logs.

Every experiment metric in the paper is a function of two event streams:

* **deliveries** — the first receipt of an item by a node (duplicates are
  dropped by the SIR model and only counted in aggregate);
* **forwards** — each forwarding action, tagged with whether the forwarder
  liked the item (BEEP's amplification path) or disliked it (the
  serendipity path).

To keep memory bounded at paper scale (hundreds of thousands of events), the
log is a struct-of-arrays: parallel Python lists of scalars, converted to
NumPy arrays once, lazily, when analyses begin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DisseminationLog"]


class DisseminationLog:
    """Struct-of-arrays record of one simulation run.

    Delivery columns (one row per *first* receipt):

    - ``d_item`` — dense item index (workload order, not the 8-byte id),
    - ``d_node`` — receiving node id,
    - ``d_cycle`` — receipt cycle,
    - ``d_hops`` — hops travelled from the source (0 for the publisher),
    - ``d_dislikes`` — the copy's dislike counter at receipt,
    - ``d_liked`` — whether the receiver liked the item,
    - ``d_via_like`` — whether the incoming copy was forwarded by a liker.

    Forward columns (one row per forwarding action):

    - ``f_item`` — dense item index,
    - ``f_node`` — forwarding node id,
    - ``f_cycle`` — cycle of the action,
    - ``f_hops`` — the forwarder's distance from the source,
    - ``f_liked`` — like-path (amplification) vs dislike-path forward,
    - ``f_targets`` — number of targets of this action (the realised
      fanout).
    """

    def __init__(self) -> None:
        self.d_item: list[int] = []
        self.d_node: list[int] = []
        self.d_cycle: list[int] = []
        self.d_hops: list[int] = []
        self.d_dislikes: list[int] = []
        self.d_liked: list[bool] = []
        self.d_via_like: list[bool] = []

        self.f_item: list[int] = []
        self.f_node: list[int] = []
        self.f_cycle: list[int] = []
        self.f_hops: list[int] = []
        self.f_liked: list[bool] = []
        self.f_targets: list[int] = []

        #: duplicate receipts, dropped per SIR (aggregate count only)
        self.duplicates: int = 0
        self._arrays: dict[str, np.ndarray] | None = None

    # -- recording ----------------------------------------------------------

    def log_delivery(
        self,
        item_index: int,
        node: int,
        cycle: int,
        hops: int,
        dislikes: int,
        liked: bool,
        via_like: bool,
    ) -> None:
        """Record a first receipt."""
        self.d_item.append(item_index)
        self.d_node.append(node)
        self.d_cycle.append(cycle)
        self.d_hops.append(hops)
        self.d_dislikes.append(dislikes)
        self.d_liked.append(liked)
        self.d_via_like.append(via_like)
        self._arrays = None

    def log_forward(
        self,
        item_index: int,
        node: int,
        cycle: int,
        hops: int,
        liked: bool,
        n_targets: int,
    ) -> None:
        """Record a forwarding action with its realised fanout."""
        self.f_item.append(item_index)
        self.f_node.append(node)
        self.f_cycle.append(cycle)
        self.f_hops.append(hops)
        self.f_liked.append(liked)
        self.f_targets.append(n_targets)
        self._arrays = None

    def log_duplicate(self) -> None:
        """Count a duplicate receipt (dropped by the SIR rule)."""
        self.duplicates += 1

    # -- bulk recording (the batched delivery path) ---------------------------

    def log_deliveries(
        self,
        item_indices: list[int],
        node: int,
        cycle: int,
        hops: list[int],
        dislikes: list[int],
        liked: list[bool],
        via_like: list[bool],
    ) -> None:
        """Record one node's first receipts of a cycle in one bulk append.

        Column-aligned lists, one row per receipt; *node* and *cycle* are
        scalars shared by the whole batch.  Produces exactly the rows the
        per-receipt :meth:`log_delivery` calls would, in the same order.
        """
        k = len(item_indices)
        self.d_item.extend(item_indices)
        self.d_node.extend([node] * k)
        self.d_cycle.extend([cycle] * k)
        self.d_hops.extend(hops)
        self.d_dislikes.extend(dislikes)
        self.d_liked.extend(liked)
        self.d_via_like.extend(via_like)
        self._arrays = None

    def log_forwards(
        self,
        item_indices: list[int],
        node: int,
        cycle: int,
        hops: list[int],
        liked: list[bool],
        n_targets: list[int],
    ) -> None:
        """Record one node's forwarding actions of a cycle in bulk."""
        k = len(item_indices)
        self.f_item.extend(item_indices)
        self.f_node.extend([node] * k)
        self.f_cycle.extend([cycle] * k)
        self.f_hops.extend(hops)
        self.f_liked.extend(liked)
        self.f_targets.extend(n_targets)
        self._arrays = None

    def log_duplicates(self, n: int) -> None:
        """Count *n* duplicate receipts at once (batched delivery path)."""
        self.duplicates += n

    # -- array access ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All columns as NumPy arrays (computed once, cached)."""
        if self._arrays is None:
            self._arrays = {
                "d_item": np.asarray(self.d_item, dtype=np.int64),
                "d_node": np.asarray(self.d_node, dtype=np.int64),
                "d_cycle": np.asarray(self.d_cycle, dtype=np.int64),
                "d_hops": np.asarray(self.d_hops, dtype=np.int64),
                "d_dislikes": np.asarray(self.d_dislikes, dtype=np.int64),
                "d_liked": np.asarray(self.d_liked, dtype=bool),
                "d_via_like": np.asarray(self.d_via_like, dtype=bool),
                "f_item": np.asarray(self.f_item, dtype=np.int64),
                "f_node": np.asarray(self.f_node, dtype=np.int64),
                "f_cycle": np.asarray(self.f_cycle, dtype=np.int64),
                "f_hops": np.asarray(self.f_hops, dtype=np.int64),
                "f_liked": np.asarray(self.f_liked, dtype=bool),
                "f_targets": np.asarray(self.f_targets, dtype=np.int64),
            }
        return self._arrays

    @property
    def n_deliveries(self) -> int:
        """Number of first receipts recorded."""
        return len(self.d_item)

    @property
    def n_forwards(self) -> int:
        """Number of forwarding actions recorded."""
        return len(self.f_item)

    def reached_matrix(self, n_nodes: int, n_items: int) -> np.ndarray:
        """Boolean ``(n_nodes, n_items)`` matrix of who received what.

        The evaluation's ``{reached users}`` per item (Section IV-C).
        """
        arr = self.arrays()
        reached = np.zeros((n_nodes, n_items), dtype=bool)
        if len(arr["d_node"]):
            reached[arr["d_node"], arr["d_item"]] = True
        return reached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DisseminationLog(deliveries={self.n_deliveries}, "
            f"forwards={self.n_forwards}, duplicates={self.duplicates})"
        )
