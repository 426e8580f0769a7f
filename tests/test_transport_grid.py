"""Lossy-transport × inbox-depth × churn grid.

Exercises the PlanetLab setting's overloaded-inbox drop path, alone and
composed with churn — the composition the paper's Section V-D deployment
runs rely on — at overloaded-inbox depths from the tightest queue (one
item message per cycle) to a looser one.
"""

from __future__ import annotations

import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.datasets import survey_dataset
from repro.network.message import MessageKind
from repro.network.transport import PlanetLabTransport
from repro.simulation.churn import ChurnModel

SEED = 11
CYCLES = 15


@pytest.fixture(scope="module")
def dataset():
    return survey_dataset(n_base_users=36, n_base_items=30, seed=4)


def planetlab(inbox_capacity=2):
    # small inbox so congestion drops actually fire on a 36-node run
    return PlanetLabTransport(
        overloaded_fraction=0.5,
        overloaded_loss=0.2,
        base_loss=0.02,
        inbox_capacity=inbox_capacity,
    )


def run_grid_point(dataset, inbox_capacity, *, churn=None, cycles=CYCLES):
    """One (inbox depth, churn) grid point, run for *cycles* without drain."""
    system = WhatsUpSystem(
        dataset,
        WhatsUpConfig(f_like=6),
        seed=SEED,
        transport=planetlab(inbox_capacity),
        churn=churn,
    )
    system.run(cycles=cycles, drain=False)
    return system


@pytest.mark.parametrize("inbox_capacity", [1, 2, 4])
def test_overloaded_inbox_drops_fire(dataset, inbox_capacity):
    system = run_grid_point(dataset, inbox_capacity)
    stats = system.stats
    assert len(system.engine.transport.overloaded_nodes) == 18
    assert stats.dropped[MessageKind.ITEM] > 0
    assert 0.0 < stats.loss_rate() < 1.0


@pytest.mark.parametrize("inbox_capacity", [1, 2, 4])
def test_planetlab_composes_with_churn(dataset, inbox_capacity):
    churn = ChurnModel(kill_rate=0.05, rejoin_after=3, start_cycle=2)
    system = run_grid_point(dataset, inbox_capacity, churn=churn)
    assert churn.total_kills > 0
    assert churn.total_rejoins > 0
    assert system.stats.dropped[MessageKind.ITEM] > 0
    # churned runs still deliver: the log recorded item receptions
    assert system.reached_matrix().any()


def test_inbox_capacity_is_the_only_item_drop_source(dataset):
    """With pure congestion (no random loss) every drop is an inbox drop."""
    transport = PlanetLabTransport(
        overloaded_fraction=0.5,
        overloaded_loss=0.0,
        base_loss=0.0,
        inbox_capacity=1,
    )
    system = WhatsUpSystem(
        dataset, WhatsUpConfig(f_like=6), seed=SEED, transport=transport
    )
    system.run(cycles=CYCLES, drain=False)
    stats = system.stats
    assert stats.dropped[MessageKind.ITEM] > 0
    # gossip (RPS/WUP) messages never hit the item-inbox model
    assert stats.dropped[MessageKind.RPS] == 0
    assert stats.dropped[MessageKind.WUP] == 0
