"""Unit tests for WhatsUpNode (Algorithm 1) and the cold-start procedure."""

from __future__ import annotations

import pytest

from repro.core import WhatsUpConfig, WhatsUpNode, WhatsUpSystem
from repro.core.coldstart import bootstrap_from_contact, popular_items_in_views
from repro.core.news import ItemCopy, NewsItem
from repro.core.profiles import FrozenProfile
from repro.datasets import synthetic_dataset
from repro.gossip.views import ViewEntry
from repro.network.message import MessageKind
from repro.simulation.engine import CycleEngine
from repro.simulation.schedule import PublicationSchedule
from repro.utils.rng import RngStreams
from tests.conftest import make_item_profile


class _Always:
    """Constant opinion oracle."""

    def __init__(self, liked: bool) -> None:
        self.liked = liked

    def __call__(self, node_id, item) -> bool:
        return self.liked


def always(liked: bool):
    return _Always(liked)


def make_node(node_id=0, opinion=None, seed=0, **cfg) -> WhatsUpNode:
    config = WhatsUpConfig(**({"f_like": 3} | cfg))
    return WhatsUpNode(
        node_id, config, opinion or always(True), RngStreams(seed)
    )


def engine_for(nodes, items=()):
    sched = PublicationSchedule(list(items))
    return CycleEngine(nodes, sched, streams=RngStreams(5))


def item(n=0, cycle=0):
    return NewsItem.publish(source=0, created_at=cycle, title=f"t{n}")


def with_wup_peers(node, peer_ids=(5, 6)):
    """Give *node* WUP neighbours so its receipts are forwarded."""
    for nid in peer_ids:
        node.wup.view.upsert(
            ViewEntry(nid, "a", FrozenProfile({}, is_binary=True), 0)
        )
    return [make_node(node_id=nid) for nid in peer_ids]


def shipped_copies(eng):
    """Every copy the engine holds in flight, in send order."""
    return [
        copy
        for box in eng._future_inboxes.values()
        for rows in box.values()
        for _sender, copy, _via in rows
    ]


class TestAlgorithm1Receive:
    def test_like_updates_profile_and_item_profile(self):
        node = make_node(opinion=always(True))
        node.profile.record_opinion(50, 0, True)  # pre-existing opinion
        peers = with_wup_peers(node)
        it = item()
        copy = ItemCopy(item=it, profile=make_item_profile({}))
        eng = engine_for([node, *peers], [(0, it)])
        node.receive_item(copy, True, eng, now=0)
        # like recorded
        assert node.profile.score_of(it.item_id) == 1.0
        shipped = shipped_copies(eng)
        assert len(shipped) == 2 and shipped[0] is shipped[1]
        # pre-update profile folded into the shipped item profile...
        assert shipped[0].profile.score_of(50) == 1.0
        # ...which therefore does NOT contain the item itself (Algorithm 1
        # integrates before line 5 records the like)
        assert it.item_id not in shipped[0].profile
        # the received copy is read-only
        assert len(copy.profile) == 0

    def test_dislike_updates_profile_not_item_profile(self):
        node = make_node(opinion=always(False))
        node.profile.record_opinion(50, 0, True)
        it = item()
        copy = ItemCopy(item=it, profile=make_item_profile({}))
        eng = engine_for([node], [(0, it)])
        node.receive_item(copy, True, eng, now=0)
        assert node.profile.score_of(it.item_id) == 0.0
        assert 50 not in copy.profile  # dislikers do not aggregate

    def test_duplicate_receipt_dropped(self):
        node = make_node()
        it = item()
        eng = engine_for([node], [(0, it)])
        node.receive_item(
            ItemCopy(item=it, profile=make_item_profile({})), True, eng, 0
        )
        node.receive_item(
            ItemCopy(item=it, profile=make_item_profile({})), True, eng, 1
        )
        assert eng.log.duplicates == 1
        assert eng.log.n_deliveries == 1

    def test_item_profile_window_purged_before_forward(self):
        node = make_node(opinion=always(True), profile_window=5)
        peers = with_wup_peers(node)
        it = item(cycle=20)
        copy = ItemCopy(
            item=it, profile=make_item_profile({1: 1.0}, timestamp=2)
        )
        eng = engine_for([node, *peers], [(20, it)])
        node.receive_item(copy, True, eng, now=20)
        shipped = shipped_copies(eng)
        assert len(shipped) == 2
        assert all(1 not in c.profile for c in shipped)  # ts 2 < 20 - 5
        assert 1 in copy.profile  # the received copy is read-only

    def test_delivery_logged_with_copy_metadata(self):
        node = make_node(opinion=always(True))
        it = item()
        copy = ItemCopy(item=it, profile=make_item_profile({}), dislikes=2, hops=7)
        eng = engine_for([node], [(0, it)])
        node.receive_item(copy, False, eng, now=3)
        arr = eng.log.arrays()
        assert arr["d_hops"].tolist() == [7]
        assert arr["d_dislikes"].tolist() == [2]
        assert arr["d_liked"].tolist() == [True]
        assert arr["d_via_like"].tolist() == [False]


class TestAlgorithm1Publish:
    def test_publish_records_like_and_seeds_item_profile(self):
        node = make_node()
        node.profile.record_opinion(50, 0, True)
        it = item()
        eng = engine_for([node], [(0, it)])
        node.publish(it, eng, now=0)
        assert node.profile.score_of(it.item_id) == 1.0
        assert it.item_id in node.seen
        # source's fresh item profile includes the item itself (line 14
        # precedes the integration loop)
        arr = eng.log.arrays()
        assert arr["d_hops"].tolist() == [0]

    def test_publish_forwards_to_wup_targets(self):
        node = make_node(f_like=2)
        for nid in (5, 6, 7):
            node.wup.view.upsert(
                ViewEntry(nid, "a", FrozenProfile({}, is_binary=True), 0)
            )
        peers = [make_node(node_id=i) for i in (5, 6, 7)]
        it = item()
        eng = engine_for([node, *peers], [(0, it)])
        node.publish(it, eng, now=0)
        assert eng.stats.sent[MessageKind.ITEM] == 2


class TestGossipIntegration:
    def test_begin_cycle_initiates_both_layers(self):
        a = make_node(node_id=0)
        b = make_node(node_id=1, seed=1)
        # wire views so both protocols have partners
        for view in (a.rps.view, a.wup.view):
            view.upsert(ViewEntry(1, "x", FrozenProfile({}, is_binary=True), 0))
        eng = engine_for([a, b], [(0, item())])
        a.begin_cycle(eng, now=0)
        assert eng.stats.sent[MessageKind.RPS] >= 1
        assert eng.stats.sent[MessageKind.WUP] >= 1

    def test_profile_window_purge_on_cycle(self):
        node = make_node(profile_window=5)
        node.profile.record_opinion(1, 0, True)
        node.profile.record_opinion(2, 18, True)
        eng = engine_for([node], [(0, item())])
        node.begin_cycle(eng, now=20)
        assert 1 not in node.profile  # 0 < 20-5
        assert 2 in node.profile

    def test_gossip_periods_respected(self):
        node = make_node(rps_every=2, wup_every=3)
        node.rps.view.upsert(ViewEntry(1, "x", FrozenProfile({}, is_binary=True), 0))
        node.wup.view.upsert(ViewEntry(1, "x", FrozenProfile({}, is_binary=True), 0))
        peer = make_node(node_id=1, seed=2)
        eng = engine_for([node, peer], [(0, item())])
        node.begin_cycle(eng, now=1)  # 1 % 2 != 0 and 1 % 3 != 0
        assert eng.stats.sent[MessageKind.RPS] == 0
        assert eng.stats.sent[MessageKind.WUP] == 0
        node.begin_cycle(eng, now=2)
        assert eng.stats.sent[MessageKind.RPS] >= 1

    def test_on_gossip_replies(self):
        a = make_node(node_id=0)
        from repro.gossip.rps import RpsMessage

        msg = RpsMessage(
            sender=9,
            entries=(ViewEntry(9, "x", FrozenProfile({}, is_binary=True), 1),),
            is_request=True,
        )
        eng = engine_for([a], [(0, item())])
        reply = a.on_gossip(msg, MessageKind.RPS, eng, now=1)
        assert reply is not None and not reply.is_request
        assert 9 in a.rps.view


class TestColdStart:
    def _system(self):
        ds = synthetic_dataset(
            n_users=40, n_communities=4, items_per_community=5, seed=2
        )
        return WhatsUpSystem(ds, WhatsUpConfig(f_like=3), seed=7), ds

    def test_popular_items_ranked_by_view_likes(self):
        node = make_node()
        node.rps.view.upsert(
            ViewEntry(1, "a", FrozenProfile({10: 1.0, 11: 1.0}, is_binary=True), 0)
        )
        node.rps.view.upsert(
            ViewEntry(2, "b", FrozenProfile({10: 1.0}, is_binary=True), 0)
        )
        assert popular_items_in_views(node, k=2) == [10, 11]

    def test_bootstrap_inherits_views_and_rates_popular(self):
        system, ds = self._system()
        system.run(10, drain=False)
        joiner = system.join_node(ds.n_users + 1, opinion=always(True))
        assert len(joiner.rps.view) > 0
        assert len(joiner.profile) <= 3
        assert len(joiner.profile) > 0  # peers have rated items by cycle 10

    def test_bootstrap_respects_n_popular(self):
        a = make_node(node_id=0)
        b = make_node(node_id=1, seed=3)
        b.rps.view.upsert(
            ViewEntry(
                5,
                "x",
                FrozenProfile({i: 1.0 for i in range(10)}, is_binary=True),
                0,
            )
        )
        rated = bootstrap_from_contact(a, b, now=4, n_popular=2)
        assert len(rated) == 2

    def test_join_node_unknown_id_requires_oracle(self):
        system, ds = self._system()
        with pytest.raises(Exception, match="opinion"):
            system.join_node(ds.n_users + 1)

    def test_joiner_participates_in_dissemination(self):
        system, ds = self._system()
        system.run(5, drain=False)
        joiner = system.join_node(999, opinion=always(True))
        system.run(20, drain=True)
        assert len(joiner.seen) > 0  # items reached the newcomer


class TestWhatsUpSystem:
    def test_all_nodes_seeded_with_views(self):
        system, _ = TestColdStart()._system()
        for node in system.nodes:
            assert len(node.rps.view) > 0
            assert len(node.wup.view) > 0

    def test_run_drains_in_flight_items(self):
        system, _ = TestColdStart()._system()
        system.run()
        assert system.engine.pending_item_messages() == 0

    def test_deterministic_runs(self):
        def run_once():
            ds = synthetic_dataset(
                n_users=30, n_communities=3, items_per_community=4, seed=2
            )
            system = WhatsUpSystem(ds, WhatsUpConfig(f_like=3), seed=11)
            system.run()
            return (
                system.log.n_deliveries,
                system.log.duplicates,
                system.stats.item_messages(),
            )

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        ds = synthetic_dataset(
            n_users=30, n_communities=3, items_per_community=4, seed=2
        )
        runs = set()
        for seed in (1, 2, 3):
            system = WhatsUpSystem(ds, WhatsUpConfig(f_like=3), seed=seed)
            system.run()
            runs.add(system.log.n_deliveries)
        assert len(runs) > 1

    def test_every_item_delivered_at_least_to_source(self):
        system, ds = TestColdStart()._system()
        system.run()
        reached = system.log.reached_matrix(ds.n_users, ds.n_items)
        assert (reached.sum(axis=0) >= 1).all()

    def test_seen_consistent_with_log(self):
        system, ds = TestColdStart()._system()
        system.run()
        total_seen = sum(len(n.seen) for n in system.nodes)
        assert total_seen == system.log.n_deliveries
