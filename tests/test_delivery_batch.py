"""Scalar-vs-batch delivery equivalence and the batched delivery machinery.

The batched delivery subsystem (buffered bulk sends, per-node batch
receipt, bulk event logging — ``repro.simulation.delivery``) must be
**bitwise-identical** to the scalar one-envelope-at-a-time pipeline at
fixed seeds: same delivery/forward log rows in the same order, same
duplicate counts, same end-of-run profiles and views, same traffic
counters, same RNG consumption.  These tests run both paths and compare
everything dissemination can influence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.news import ItemCopy, NewsItem
from repro.core.similarity import (
    batch_scoring,
    default_score_cache,
    native_available,
    native_kernel,
)
from repro.experiments.scale import SCALES
from repro.network.message import MessageKind
from repro.network.stats import TrafficStats
from repro.network.transport import (
    PerfectTransport,
    UniformLossTransport,
)
from repro.simulation.churn import ChurnModel
from repro.simulation.delivery import (
    delivery_batching,
    delivery_batching_enabled,
    set_delivery_batching,
    split_first_receipts,
)
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
from repro.utils.rng import RngStreams


@pytest.fixture(autouse=True)
def _restore_batching():
    # the context-manager form survives failing tests without leaking the
    # pipeline gate into the rest of the suite
    with delivery_batching(delivery_batching_enabled()):
        yield


def _run_system(scale: str, dataset: str, f_like: int, cycles: int, batch: bool):
    with delivery_batching(batch):
        default_score_cache().clear()
        data = SCALES[scale].dataset(dataset, seed=5)
        system = WhatsUpSystem(data, WhatsUpConfig(f_like=f_like), seed=5)
        system.engine.run(cycles)
    return system


def _full_state(system: WhatsUpSystem):
    log = system.engine.log
    arrays = log.arrays()
    stats = system.engine.stats
    return {
        "log": {key: arrays[key].tolist() for key in sorted(arrays)},
        "duplicates": log.duplicates,
        "profiles": {
            n.node_id: sorted(n.profile.scores.items()) for n in system.nodes
        },
        "seen": {n.node_id: sorted(n.seen) for n in system.nodes},
        "wup": {n.node_id: sorted(n.wup.view.node_ids()) for n in system.nodes},
        "rps": {n.node_id: sorted(n.rps.view.node_ids()) for n in system.nodes},
        "sent": {str(k): v for k, v in stats.sent.items()},
        "delivered": {str(k): v for k, v in stats.delivered.items()},
        "bytes": {str(k): v for k, v in stats.bytes_delivered.items()},
        "pending": system.engine.pending_item_messages(),
    }


class TestScalarBatchEquivalence:
    """Fixed-seed end-to-end equivalence of the two delivery pipelines."""

    @pytest.mark.parametrize(
        "scale,dataset,f_like,cycles",
        [
            ("small", "survey", 8, 30),
            # the ISSUE's medium-scale check: heavier fan-out, bigger
            # population, duplicate-dominated inboxes
            ("medium", "survey", 16, 12),
        ],
        ids=["small", "medium"],
    )
    def test_identical_outcomes(self, scale, dataset, f_like, cycles):
        scalar = _full_state(_run_system(scale, dataset, f_like, cycles, False))
        batch = _full_state(_run_system(scale, dataset, f_like, cycles, True))
        # compare piecewise for actionable failures
        for key in scalar:
            assert scalar[key] == batch[key], f"{key} differs"

    def test_toggle_returns_previous(self):
        first = set_delivery_batching(False)
        assert set_delivery_batching(first) is False
        assert delivery_batching_enabled() is first


class TestChurnEquivalence:
    """Churn × delivery pipeline: all tiers identical under node failure.

    Churn exercises paths no other equivalence test reaches: dead-target
    drops in the bulk send buffer, revived nodes re-entering mid-run with
    aged views, and kill/revive interleaving with the batched receipt
    loop.  A fixed-seed medium run with an active :class:`ChurnModel`
    must leave identical logs, duplicates, profiles, views, traffic and
    churn counters under the scalar, batch and native paths.  The native
    run also builds its views as ``ArrayView`` (the others as the dict
    ``View``), so the comparison crosses the view layouts too.
    """

    @staticmethod
    def _run_churned(batch: bool, native: bool):
        with (
            delivery_batching(batch),
            batch_scoring(batch),
            native_kernel(native),
        ):
            default_score_cache().clear()
            data = SCALES["medium"].dataset("survey", seed=11)
            churn = ChurnModel(kill_rate=0.04, rejoin_after=2, start_cycle=3)
            system = WhatsUpSystem(
                data, WhatsUpConfig(f_like=8), seed=11, churn=churn
            )
            system.engine.run(24)
        state = _full_state(system)
        state["kills"] = churn.total_kills
        state["rejoins"] = churn.total_rejoins
        return state

    def test_scalar_batch_native_identical_under_churn(self):
        scalar = self._run_churned(batch=False, native=False)
        assert scalar["kills"] > 0 and scalar["rejoins"] > 0
        batch = self._run_churned(batch=True, native=False)
        for key in scalar:
            assert scalar[key] == batch[key], f"{key} differs (batch)"
        if native_available():
            nat = self._run_churned(batch=True, native=True)
            for key in scalar:
                assert scalar[key] == nat[key], f"{key} differs (native)"


class _CountingNode(BaseNode):
    """Counts receipts; forwards nothing."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def begin_cycle(self, engine, now):
        pass

    def receive_item(self, copy, via_like, engine, now):
        self.received.append((copy.item.item_id, via_like))

    def publish(self, item, engine, now):
        for target in range(1, 3):
            engine.send_item(
                self.node_id, target, ItemCopy(item), via_like=True
            )


def _engine(nodes, transport=None):
    item = NewsItem.publish(source=0, created_at=0, title="only")
    schedule = PublicationSchedule([(0, item)])
    return (
        CycleEngine(
            nodes, schedule, transport=transport, streams=RngStreams(3)
        ),
        item,
    )


class TestBufferedSends:
    def test_buffered_sends_arrive_next_cycle_in_order(self):
        nodes = [_CountingNode(i) for i in range(3)]
        engine, item = _engine(nodes)
        assert engine._lossless
        engine.run(1)
        # sends buffered during the publish phase are pending after flush
        assert engine.pending_item_messages() == 2
        engine.run(1)
        assert engine.pending_item_messages() == 0
        assert nodes[1].received == [(item.item_id, True)]
        assert nodes[2].received == [(item.item_id, True)]

    def test_dead_target_counts_as_dropped(self):
        nodes = [_CountingNode(i) for i in range(3)]
        nodes[2].alive = False
        engine, _item = _engine(nodes)
        engine.run(1)
        assert engine.stats.sent[MessageKind.ITEM] == 2
        assert engine.stats.delivered[MessageKind.ITEM] == 1
        assert engine.stats.dropped[MessageKind.ITEM] == 1
        assert engine.pending_item_messages() == 1

    def test_lossy_transport_disables_batching(self):
        nodes = [_CountingNode(i) for i in range(3)]
        engine, _item = _engine(nodes, transport=UniformLossTransport(0.5))
        assert not engine._lossless
        engine.run(2)  # scalar path; just must not crash and must account
        assert engine.stats.sent[MessageKind.ITEM] == 2

    def test_zero_loss_transport_is_lossless(self):
        assert UniformLossTransport(0.0).is_lossless()
        assert not UniformLossTransport(0.1).is_lossless()
        assert PerfectTransport().is_lossless()


class TestSendFanout:
    def _fresh_copy(self):
        item = NewsItem.publish(source=0, created_at=0, title="x")
        copy = ItemCopy(item)
        copy.profile.set(7, 0, 1.0)
        return copy

    def test_scalar_mode_ships_one_clone(self):
        nodes = [_CountingNode(i) for i in range(4)]
        engine, _item = _engine(nodes)
        engine._buffering = False
        copy = self._fresh_copy()
        engine.send_fanout(0, [1, 2, 3], copy, via_like=True)
        # original untouched in scalar mode (one clone advanced instead)
        assert copy.hops == 0
        assert engine.pending_item_messages() == 3
        rows = [
            row
            for box in engine._future_inboxes.values()
            for per_node in box.values()
            for row in per_node
        ]
        shipped = {id(c) for _sender, c, _via in rows}
        assert len(rows) == 3 and len(shipped) == 1
        assert rows[0][1] is not copy and rows[0][1].hops == 1

    def test_buffered_mode_ships_one_shared_copy(self):
        nodes = [_CountingNode(i) for i in range(4)]
        engine, _item = _engine(nodes)
        engine._buffering = True
        copy = self._fresh_copy()
        engine.send_fanout(0, [1, 2, 3], copy, via_like=False, bump_dislikes=True)
        rows = engine._send_buf
        assert [target for target, _entry in rows] == [1, 2, 3]
        shipped = [entry[1] for _target, entry in rows]
        # the sender's copy itself goes to every row, advanced once
        assert all(c is copy for c in shipped)
        assert copy.hops == 1 and copy.dislikes == 1
        assert copy.profile.scores == {7: 1.0}
        engine._buffering = False
        engine._flush_item_sends()
        assert engine.stats.delivered[MessageKind.ITEM] == 3
        assert engine.stats.bytes_delivered[MessageKind.ITEM] == 3 * copy.wire_size()

class TestSplitFirstReceipts:
    def _copies(self, ids):
        items = {
            i: NewsItem.publish(source=0, created_at=0, title=f"t{i}")
            for i in set(ids)
        }
        return [(0, ItemCopy(items[i]), bool(i % 2)) for i in ids]

    def test_in_batch_and_seen_duplicates(self):
        deliveries = self._copies([1, 2, 1, 3, 2, 1])
        seen = {deliveries[3][1].item.item_id}  # item 3 already seen
        fresh, dups = split_first_receipts(deliveries, seen)
        assert [c.item.title for c, _v in fresh] == ["t1", "t2"]
        assert dups == 4
        assert len(seen) == 3  # 1 and 2 added

    def test_arrival_order_preserved(self):
        deliveries = self._copies([5, 4, 6])
        fresh, dups = split_first_receipts(deliveries, set())
        assert dups == 0
        assert [c.item.title for c, _v in fresh] == ["t5", "t4", "t6"]


class TestBulkLogging:
    def test_bulk_rows_match_scalar_appends(self):
        scalar = DisseminationLog()
        for args in ((0, 1, 2, 3, 0, True, True), (1, 1, 2, 0, 1, False, True)):
            scalar.log_delivery(*args)
        scalar.log_forward(0, 1, 2, 3, True, 4)
        scalar.log_duplicate()
        scalar.log_duplicate()

        bulk = DisseminationLog()
        bulk.log_deliveries(
            [0, 1], 1, 2, [3, 0], [0, 1], [True, False], [True, True]
        )
        bulk.log_forwards([0], 1, 2, [3], [True], [4])
        bulk.log_duplicates(2)

        sa, ba = scalar.arrays(), bulk.arrays()
        for key in sa:
            assert np.array_equal(sa[key], ba[key]), key
        assert scalar.duplicates == bulk.duplicates == 2

    def test_record_items_bulk_matches_record(self):
        bulk = TrafficStats()
        bulk.record_items_bulk(delivered=3, dropped=2, nbytes=900)
        assert bulk.sent[MessageKind.ITEM] == 5
        assert bulk.delivered[MessageKind.ITEM] == 3
        assert bulk.dropped[MessageKind.ITEM] == 2
        assert bulk.bytes_delivered[MessageKind.ITEM] == 900
