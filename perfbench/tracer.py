"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps layer functions *at the sites where the program looks
them up* (a class attribute, or a module global another module imported
by name), records one span per call in memory, and puts every original
back on :meth:`Tracer.uninstall`.  No code under ``src/`` is changed.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span, or -1.  A layer's self time is its span's duration minus
the durations of its direct children (:func:`self_times`).
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

__all__ = ["Tracer", "self_times", "trace_sites"]


def self_times(
    names: list[str],
    name_ids: "array[int] | list[int]",
    starts: "array[float] | list[float]",
    ends: "array[float] | list[float]",
    parents: "array[int] | list[int]",
) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` over a span table.

    Self time is a span's duration minus the summed durations of the
    spans whose parent it is.  Children always lie inside their parent,
    so the self times of all spans add up to the durations of the roots.
    """
    n = len(name_ids)
    child_s = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_s[p] += ends[i] - starts[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        dur = ends[i] - starts[i]
        row = out.setdefault(
            names[name_ids[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_s[i]
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids: array[int] = array("l")
        self.starts: array[float] = array("d")
        self.ends: array[float] = array("d")
        self.parents: array[int] = array("l")
        #: open spans, innermost last; -1 is the parent of a root span
        self._stack: list[int] = [-1]
        #: (owner, attribute, original, owner-had-it-in-its-own-dict)
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self._name_index[name] = idx
        return idx

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A callable that runs *fn* inside a span called *name*."""
        name_id = self._name_id(name)
        return self._wrapper(fn, lambda _args: name_id)

    def wrap_labelled(
        self, fn: Callable, prefix: str, label: Callable[[tuple], str]
    ) -> Callable:
        """Like :meth:`wrap`, naming each span ``prefix + label(args)``."""
        return self._wrapper(fn, lambda args: self._name_id(prefix + label(args)))

    def _wrapper(self, fn: Callable, name_of: Callable[[tuple], int]) -> Callable:
        # bound methods held in locals: this runs on every traced call
        stack = self._stack
        stack_push, stack_pop = stack.append, stack.pop
        push_name, push_parent = self.name_ids.append, self.parents.append
        push_start, push_end = self.starts.append, self.ends.append
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            push_name(name_of(args))
            push_parent(stack[-1])
            push_start(0.0)
            push_end(0.0)
            stack_push(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack_pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- install / uninstall -------------------------------------------- #

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to *replacement*, remembering the original."""
        own = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def install(self, sites: list[tuple[Any, str, str]]) -> None:
        """Wrap every ``(owner, attribute, span name)`` site."""
        for owner, attr, name in sites:
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------- #

    def durations(self, prefix: str) -> list[float]:
        """Durations of the spans whose name starts with *prefix*."""
        wanted = {i for i, name in enumerate(self.names) if name.startswith(prefix)}
        return [
            self.ends[i] - self.starts[i]
            for i, name_id in enumerate(self.name_ids)
            if name_id in wanted
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """:func:`self_times` over everything recorded so far."""
        return self_times(
            self.names, self.name_ids, self.starts, self.ends, self.parents
        )

    def save(self, path) -> None:
        """Write the span table to *path* as a numpy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            names=np.asarray(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
        )


def trace_sites() -> list[tuple[Any, str, str]]:
    """The ``(owner, attribute, span name)`` lookup sites of every layer.

    Class methods are wrapped on the class the program calls them
    through; ``score_candidates`` is wrapped in each module that imported
    it by name, since patching ``repro.core.similarity`` alone would miss
    those bound names.
    """
    from repro._native import NativeKernel
    from repro.core import beep
    from repro.core.beep import BeepForwarder
    from repro.core.node import WhatsUpNode
    from repro.core.profiles import ItemProfile, UserProfile
    from repro.core.system import WhatsUpSystem
    from repro.experiments import runner
    from repro.experiments.scale import ScaleProfile
    from repro.gossip import vicinity
    from repro.gossip.rps import RpsProtocol
    from repro.gossip.vicinity import ClusteringProtocol
    from repro.network import transport
    from repro.simulation.churn import ChurnModel
    from repro.simulation.engine import CycleEngine
    from repro.simulation.events import DisseminationLog

    sites: list[tuple[Any, str, str]] = [
        (ScaleProfile, "survey", "datasets.dataset"),
        (ScaleProfile, "synthetic", "datasets.dataset"),
        (ScaleProfile, "digg", "datasets.dataset"),
        (WhatsUpSystem, "__init__", "system.build"),
        (CycleEngine, "run", "engine.run"),
        (CycleEngine, "run_until_drained", "engine.run_until_drained"),
        (CycleEngine, "gossip", "engine.gossip"),
        (CycleEngine, "send_fanout", "engine.send_fanout"),
        (CycleEngine, "send_item", "engine.send_item"),
        (WhatsUpNode, "begin_cycle", "node.begin_cycle"),
        (WhatsUpNode, "receive_items", "node.receive_items"),
        (WhatsUpNode, "receive_item", "node.receive_item"),
        (WhatsUpNode, "publish", "node.publish"),
        (RpsProtocol, "initiate", "rps.initiate"),
        (RpsProtocol, "handle", "rps.handle"),
        (ClusteringProtocol, "initiate", "vicinity.initiate"),
        (ClusteringProtocol, "handle", "vicinity.handle"),
        (UserProfile, "snapshot", "profiles.snapshot"),
        (ItemProfile, "integrate", "profiles.integrate"),
        (BeepForwarder, "forward", "beep.forward"),
        (BeepForwarder, "forward_batch", "beep.forward_batch"),
        (ChurnModel, "apply", "churn.apply"),
        (runner, "evaluate_dissemination", "retrieval.evaluate"),
    ]
    for module in (vicinity, beep):
        if hasattr(module, "score_candidates"):
            sites.append(
                (module, "score_candidates", "similarity.score_candidates")
            )
    for attr, value in vars(NativeKernel).items():
        if callable(value) and not attr.startswith("_"):
            sites.append((NativeKernel, attr, "native." + attr))
    for attr in (
        "log_delivery",
        "log_deliveries",
        "log_forward",
        "log_forwards",
        "log_duplicate",
        "log_duplicates",
    ):
        sites.append((DisseminationLog, attr, "events.log"))
    for value in vars(transport).values():
        if (
            isinstance(value, type)
            and issubclass(value, transport.Transport)
            and "attempt" in vars(value)
            and not getattr(value.attempt, "__isabstractmethod__", False)
        ):
            sites.append((value, "attempt", "transport.attempt"))
    return sites
