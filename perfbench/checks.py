"""Output checks and outcome digests for one benchmark unit.

Every unit's dissemination log is checked against invariants that hold
for any seed; at a workload's default seed the unit's outcome digest is
also compared with the one recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = [
    "DIGESTS_PATH",
    "check_log",
    "check_scores",
    "log_digest",
    "outcome_digest",
    "recorded_digest",
]

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: the log columns a digest covers, in a fixed order
_LOG_COLUMNS = (
    "d_item",
    "d_node",
    "d_cycle",
    "d_hops",
    "d_dislikes",
    "d_liked",
    "d_via_like",
    "f_item",
    "f_node",
    "f_cycle",
    "f_hops",
    "f_liked",
    "f_targets",
)


def check_log(
    arrays: dict[str, np.ndarray],
    *,
    duplicates: int,
    delivered_copies: int,
    in_flight: int,
    sources: dict[int, int],
    exact: bool,
) -> list[str]:
    """Invariant violations of one dissemination log (empty when sound).

    Parameters
    ----------
    arrays:
        ``DisseminationLog.arrays()`` of the run.
    duplicates:
        Duplicate receipts the log counted.
    delivered_copies:
        Item copies the transport delivered to an alive node.
    in_flight:
        Item copies delivered but not yet due when the run stopped.
    sources:
        Dense index -> source node of every item published in the run.
    exact:
        True when no node can die holding an inbox (no churn): every
        delivered copy is then a first receipt, a duplicate or still in
        flight.  Under churn the copies are an upper bound.
    """
    problems: list[str] = []
    items = arrays["d_item"]
    nodes = arrays["d_node"]
    hops = arrays["d_hops"]

    pairs = items.astype(np.int64) * (int(nodes.max(initial=0)) + 1) + nodes
    if np.unique(pairs).size != pairs.size:
        problems.append("a (user, item) pair has two first receipts")

    at_source = hops == 0
    n_source = int(at_source.sum())
    reached_at_zero = set(zip(items[at_source].tolist(), nodes[at_source].tolist()))
    missing = [i for i, src in sources.items() if (i, src) not in reached_at_zero]
    if missing:
        problems.append(
            f"{len(missing)} items never reached their source at hop 0 "
            f"(first: item index {missing[0]})"
        )
    if n_source != len(sources):
        problems.append(
            f"{n_source} hop-0 receipts for {len(sources)} published items"
        )

    accounted = (items.size - n_source) + duplicates + in_flight
    if exact and delivered_copies != accounted:
        problems.append(
            f"{delivered_copies} delivered copies != {items.size} first "
            f"receipts - {n_source} sources + {duplicates} duplicates "
            f"+ {in_flight} in flight"
        )
    if not exact and delivered_copies < accounted:
        problems.append(
            f"{delivered_copies} delivered copies < {accounted} accounted "
            "(first receipts - sources + duplicates + in flight)"
        )
    return problems


def check_scores(precision: float, recall: float, f1: float) -> list[str]:
    """Problems with a precision/recall/F1 triple outside ``[0, 1]``."""
    return [
        f"{name} = {value!r} outside [0, 1]"
        for name, value in (("precision", precision), ("recall", recall), ("f1", f1))
        if not 0.0 <= value <= 1.0
    ]


def log_digest(arrays: dict[str, np.ndarray], duplicates: int) -> str:
    """sha256 over the log columns (fixed order, int64/bool bytes)."""
    h = hashlib.sha256()
    for name in _LOG_COLUMNS:
        col = arrays[name]
        dtype = np.bool_ if col.dtype == np.bool_ else np.int64
        h.update(name.encode())
        h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    h.update(str(int(duplicates)).encode())
    return h.hexdigest()


def outcome_digest(log_digests: list[str], rows: list) -> str:
    """sha256 over the log digests and the ``f1``/messages rows."""
    payload = json.dumps([log_digests, rows], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The recorded digest of *workload* at *seed*, or ``None``."""
    table = json.loads(DIGESTS_PATH.read_text())
    entry = table.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digest"]
