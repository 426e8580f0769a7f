"""Cycle-based simulation substrate.

The paper evaluates WHATSUP with cycle-based simulations ("our simulations
use the duration of a gossip cycle as a time unit", Section IV-D).  This
subpackage provides the engine those experiments run on:

* :mod:`repro.simulation.events` — compact struct-of-arrays logs of every
  first delivery and every forwarding action, from which all user metrics
  (precision/recall/F1) and dissemination analyses (hops, dislike counters,
  popularity) are derived after the run;
* :mod:`repro.simulation.schedule` — the publication schedule mapping cycles
  to the news items injected at that cycle;
* :mod:`repro.simulation.node` — the protocol-node interface every system
  under test implements (WHATSUP, the CF baselines, homogeneous gossip,
  cascading);
* :mod:`repro.simulation.engine` — the engine proper: per cycle it runs
  gossip maintenance, injects publications, and delivers item messages
  enqueued during the previous cycle (one hop per cycle);
* :mod:`repro.simulation.delivery` — the batched delivery subsystem: the
  ``REPRO_BATCH_DELIVERY`` gate and the per-cycle batch helpers the engine
  and nodes share (bitwise-identical to the scalar path at fixed seeds);
* :mod:`repro.simulation.churn` — node kill/rejoin injection for the
  robustness extension experiments.
"""

from repro.simulation.churn import ChurnModel
from repro.simulation.delivery import (
    delivery_batching_enabled,
    set_delivery_batching,
)
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule

__all__ = [
    "BaseNode",
    "ChurnModel",
    "CycleEngine",
    "DisseminationLog",
    "PublicationSchedule",
    "delivery_batching_enabled",
    "set_delivery_batching",
]
