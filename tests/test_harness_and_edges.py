"""Edge-case tests: harness surface, delayed delivery, cold-start corners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpNode, WhatsUpSystem
from repro.core.coldstart import bootstrap_from_contact
from repro.core.profiles import FrozenProfile
from repro.datasets import survey_dataset
from repro.gossip.views import ViewEntry
from repro.network.transport import LatencyTransport
from repro.utils.rng import RngStreams


@pytest.fixture(scope="module")
def tiny():
    return survey_dataset(n_base_users=30, n_base_items=30, seed=9, publish_cycles=12)


class TestSystemHarnessSurface:
    def test_run_default_covers_schedule(self, tiny):
        system = WhatsUpSystem(tiny, WhatsUpConfig(f_like=3), seed=1)
        system.run()
        assert system.engine.now >= tiny.publish_cycles
        assert system.engine.pending_item_messages() == 0

    def test_run_without_drain_can_leave_messages(self, tiny):
        system = WhatsUpSystem(tiny, WhatsUpConfig(f_like=3), seed=1)
        system.run(3, drain=False)
        assert system.engine.now == 3

    def test_log_and_stats_aliases(self, tiny):
        system = WhatsUpSystem(tiny, WhatsUpConfig(f_like=3), seed=1)
        assert system.log is system.engine.log
        assert system.stats is system.engine.stats

    def test_reached_matrix_shape(self, tiny):
        system = WhatsUpSystem(tiny, WhatsUpConfig(f_like=3), seed=1)
        system.run()
        assert system.reached_matrix().shape == (tiny.n_users, tiny.n_items)

    def test_system_name_variants(self, tiny):
        assert WhatsUpSystem(tiny, seed=1).system_name == "whatsup"
        assert (
            WhatsUpSystem(tiny, WhatsUpConfig(similarity="cosine"), seed=1).system_name
            == "whatsup-cos"
        )
        assert (
            WhatsUpSystem(tiny, WhatsUpConfig(similarity="jaccard"), seed=1).system_name
            == "whatsup-jaccard"
        )


class TestDelayedDelivery:
    def test_hops_decouple_from_cycles_under_delay(self, tiny):
        system = WhatsUpSystem(
            tiny,
            WhatsUpConfig(f_like=3),
            seed=1,
            transport=LatencyTransport(tail=0.3),
        )
        system.run()
        arr = system.log.arrays()
        pub = np.array([it.created_at for it in tiny.items])
        latencies = arr["d_cycle"] - pub[arr["d_item"]]
        # with geometric delays, latency >= hops, strictly greater somewhere
        non_source = arr["d_hops"] > 0
        assert (latencies[non_source] >= arr["d_hops"][non_source]).all()
        assert (latencies[non_source] > arr["d_hops"][non_source]).any()

    def test_drain_waits_for_delayed_messages(self, tiny):
        system = WhatsUpSystem(
            tiny,
            WhatsUpConfig(f_like=3),
            seed=1,
            transport=LatencyTransport(tail=0.2),
        )
        system.run()
        assert system.engine.pending_item_messages() == 0


class TestColdStartCorners:
    def _fresh(self, node_id, opinion, seed=0):
        return WhatsUpNode(node_id, WhatsUpConfig(f_like=3), opinion, RngStreams(seed))

    def _contact_with_popular(self, opinion, n_items=12):
        contact = self._fresh(1, opinion, seed=1)
        profile = FrozenProfile({i: 1.0 for i in range(n_items)}, is_binary=True)
        contact.rps.view.upsert(ViewEntry(7, "a", profile, 0))
        return contact

    def test_all_dislike_joiner_keeps_walking_the_ranking(self):
        joiner = self._fresh(0, lambda n, i: False)
        contact = self._contact_with_popular(lambda n, i: False)
        rated = bootstrap_from_contact(joiner, contact, now=0, n_popular=3, max_extra=5)
        # disliked everything: rated the 3 popular + all 5 extras
        assert len(rated) == 8
        assert len(joiner.profile.liked) == 0

    def test_walk_stops_at_first_like(self):
        liked_ids = {3}
        joiner = self._fresh(0, lambda n, i: i.item_id in liked_ids)
        contact = self._contact_with_popular(lambda n, i: False)
        rated = bootstrap_from_contact(joiner, contact, now=0, n_popular=3, max_extra=5)
        # item id 3 is rated 4th in the (tie-broken by id) ranking
        assert 3 in rated
        assert len(rated) == 4
        assert joiner.profile.liked == {3}

    def test_no_extra_walk_when_popular_liked(self):
        joiner = self._fresh(0, lambda n, i: True)
        contact = self._contact_with_popular(lambda n, i: True)
        rated = bootstrap_from_contact(joiner, contact, now=0, n_popular=3)
        assert len(rated) == 3

    def test_empty_contact_views_no_ratings(self):
        joiner = self._fresh(0, lambda n, i: True)
        contact = self._fresh(1, lambda n, i: True, seed=2)
        rated = bootstrap_from_contact(joiner, contact, now=0)
        assert rated == []
        # but the contact itself became a neighbour
        assert 1 in joiner.rps.view

    def test_join_trims_wup_view_with_wup_stream_not_rps(self):
        """RNG hygiene: a cold-start join must not advance the RPS stream.

        The inherited WUP view overflows the joiner's capacity, so its
        random trim draws — from the *WUP* generator.  The inherited RPS
        view fits, so no RPS draw is due at all: the RPS stream must come
        out of the bootstrap in exactly its pre-join state (the historical
        bug trimmed the WUP view with ``joiner.rps.rng``, silently
        cross-contaminating the two protocols' draw sequences).
        """
        joiner = self._fresh(0, lambda n, i: True)
        contact = self._fresh(1, lambda n, i: True, seed=2)
        # overflow the joiner's WUP capacity (2 * f_like = 6) so the WUP
        # trim must draw; keep the RPS view within its capacity of 30
        for nid in range(10, 22):
            profile = FrozenProfile({nid: 1.0}, is_binary=True)
            contact.wup.view.upsert(ViewEntry(nid, "a", profile, 0))
        assert len(contact.wup.view.entries()) > joiner.wup.view.capacity

        rps_state_before = joiner.rps.rng.bit_generator.state
        wup_state_before = joiner.wup.rng.bit_generator.state
        bootstrap_from_contact(joiner, contact, now=0)
        assert len(joiner.wup.view) == joiner.wup.view.capacity
        # the WUP trim consumed WUP randomness...
        assert joiner.wup.rng.bit_generator.state != wup_state_before
        # ...and the RPS stream is untouched, draw for draw
        assert joiner.rps.rng.bit_generator.state == rps_state_before


class TestEngineDelayBookkeeping:
    def test_future_inboxes_cleared_after_delivery(self, tiny):
        system = WhatsUpSystem(tiny, WhatsUpConfig(f_like=3), seed=1)
        system.run()
        assert not system.engine._future_inboxes  # all consumed
