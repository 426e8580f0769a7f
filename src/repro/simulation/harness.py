"""Common harness for complete simulated systems.

Every system under evaluation — WHATSUP and each baseline — couples a
workload with an engine-driven node population.  :class:`SystemHarness`
centralises the shared surface (run loop, delivery/traffic accessors) so the
experiment runner can treat all systems uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.network.stats import TrafficStats
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    # typing-only to avoid a simulation <-> datasets import cycle
    from repro.datasets.base import Dataset

__all__ = ["SystemHarness"]


class SystemHarness:
    """Base class for runnable (dataset × protocol) systems.

    Subclasses construct ``self.engine`` (a :class:`CycleEngine` over their
    node population) before calling ``super().__init__``.
    """

    #: short identifier used in experiment reports ("whatsup", "cf-cos", ...)
    system_name: str = "system"

    def __init__(self, dataset: "Dataset", engine: CycleEngine) -> None:
        self.dataset = dataset
        self.engine = engine

    def run(self, cycles: int | None = None, *, drain: bool = True) -> None:
        """Run the deployment.

        Parameters
        ----------
        cycles:
            Number of cycles; default covers the publication window.
        drain:
            When true, keep cycling until no item message is in flight.
        """
        if cycles is None:
            cycles = self.dataset.publish_cycles
        self.engine.run(cycles)
        if drain:
            self.engine.run_until_drained()

    # -- uniform accessors ----------------------------------------------------

    @property
    def log(self) -> DisseminationLog:
        """The engine's dissemination log."""
        return self.engine.log

    @property
    def stats(self) -> TrafficStats:
        """The engine's traffic statistics."""
        return self.engine.stats

    def reached_matrix(self) -> np.ndarray:
        """Boolean ``(n_users, n_items)`` delivery matrix."""
        return self.log.reached_matrix(self.dataset.n_users, self.dataset.n_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(dataset={self.dataset.name!r}, "
            f"nodes={len(self.engine.nodes)})"
        )
