"""Unit tests for transports, envelopes and traffic statistics."""

from __future__ import annotations

import pytest

from repro.core.news import ItemCopy, NewsItem
from repro.network.message import Envelope, MessageKind
from repro.network.stats import TrafficStats
from repro.network.transport import (
    PerfectTransport,
    PlanetLabTransport,
    UniformLossTransport,
)
from repro.utils.exceptions import ConfigurationError


def env(target=1, kind=MessageKind.ITEM, size=100) -> Envelope:
    return Envelope(sender=0, target=target, kind=kind, payload=None, size_bytes=size)


class TestPerfectTransport:
    def test_always_delivers(self, rng):
        t = PerfectTransport()
        assert all(t.attempt(env(), rng) for _ in range(100))


class TestUniformLossTransport:
    def test_zero_loss_always_delivers(self, rng):
        t = UniformLossTransport(0.0)
        assert all(t.attempt(env(), rng) for _ in range(100))

    def test_full_loss_never_delivers(self, rng):
        t = UniformLossTransport(1.0)
        assert not any(t.attempt(env(), rng) for _ in range(100))

    def test_empirical_rate_close_to_nominal(self, rng):
        t = UniformLossTransport(0.2)
        n = 20_000
        delivered = sum(t.attempt(env(), rng) for _ in range(n))
        assert delivered / n == pytest.approx(0.8, abs=0.02)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformLossTransport(1.5)


class TestPlanetLabTransport:
    def test_setup_marks_fraction_overloaded(self, rng):
        t = PlanetLabTransport(overloaded_fraction=0.3)
        t.setup(range(100), rng)
        assert len(t.overloaded_nodes) == 30

    def test_zero_fraction_no_overloaded(self, rng):
        t = PlanetLabTransport(overloaded_fraction=0.0, base_loss=0.0)
        t.setup(range(50), rng)
        assert not t.overloaded_nodes
        assert all(t.attempt(env(target=i), rng) for i in range(50))

    def test_overloaded_nodes_lose_more(self, rng):
        t = PlanetLabTransport(
            overloaded_fraction=0.5,
            overloaded_loss=0.5,
            base_loss=0.0,
            inbox_capacity=0,
        )
        t.setup(range(100), rng)
        over = next(iter(t.overloaded_nodes))
        ok_node = next(i for i in range(100) if i not in t.overloaded_nodes)
        n = 4000
        over_rate = sum(t.attempt(env(target=over), rng) for _ in range(n)) / n
        ok_rate = sum(t.attempt(env(target=ok_node), rng) for _ in range(n)) / n
        assert ok_rate == 1.0
        assert over_rate == pytest.approx(0.5, abs=0.05)

    def test_inbox_congestion_drops_excess(self, rng):
        t = PlanetLabTransport(
            overloaded_fraction=1.0,
            overloaded_loss=0.0,
            base_loss=0.0,
            inbox_capacity=5,
        )
        t.setup([7], rng)
        t.begin_cycle()
        outcomes = [t.attempt(env(target=7), rng) for _ in range(10)]
        assert outcomes == [True] * 5 + [False] * 5

    def test_begin_cycle_resets_congestion(self, rng):
        t = PlanetLabTransport(
            overloaded_fraction=1.0,
            overloaded_loss=0.0,
            base_loss=0.0,
            inbox_capacity=1,
        )
        t.setup([7], rng)
        t.begin_cycle()
        assert t.attempt(env(target=7), rng)
        assert not t.attempt(env(target=7), rng)
        t.begin_cycle()
        assert t.attempt(env(target=7), rng)

    def test_gossip_not_subject_to_inbox_cap(self, rng):
        t = PlanetLabTransport(
            overloaded_fraction=1.0,
            overloaded_loss=0.0,
            base_loss=0.0,
            inbox_capacity=1,
        )
        t.setup([7], rng)
        t.begin_cycle()
        outcomes = [
            t.attempt(env(target=7, kind=MessageKind.RPS), rng) for _ in range(5)
        ]
        assert all(outcomes)


class TestTrafficStats:
    def test_record_delivery_and_drop(self):
        s = TrafficStats()
        s.record(env(size=10), delivered=True)
        s.record(env(size=10), delivered=False)
        assert s.sent[MessageKind.ITEM] == 2
        assert s.delivered[MessageKind.ITEM] == 1
        assert s.dropped[MessageKind.ITEM] == 1
        assert s.bytes_delivered[MessageKind.ITEM] == 10

    def test_loss_rate(self):
        s = TrafficStats()
        for i in range(10):
            s.record(env(), delivered=i < 7)
        assert s.loss_rate() == pytest.approx(0.3)
        assert s.loss_rate(MessageKind.ITEM) == pytest.approx(0.3)
        assert s.loss_rate(MessageKind.RPS) == 0.0

    def test_item_vs_gossip_split(self):
        s = TrafficStats()
        s.record(env(kind=MessageKind.ITEM), True)
        s.record(env(kind=MessageKind.RPS), True)
        s.record(env(kind=MessageKind.WUP), True)
        assert s.item_messages() == 1
        assert s.gossip_messages() == 2
        assert s.total_sent() == 3

    def test_messages_per_user_per_cycle(self):
        s = TrafficStats()
        for _ in range(100):
            s.record(env(kind=MessageKind.ITEM), True)
        assert s.messages_per_user_per_cycle(n_nodes=10, n_cycles=5) == pytest.approx(
            2.0
        )
        assert s.messages_per_user(n_nodes=10) == pytest.approx(10.0)

    def test_bandwidth_kbps(self):
        s = TrafficStats()
        # 30s cycles, 2 nodes, 1 cycle: 7500 bytes => 7500*8/1000/30/2 = 1 Kbps
        s.record(env(size=7500), True)
        assert s.bandwidth_kbps(2, 1, 30.0) == pytest.approx(1.0)
        assert s.bandwidth_kbps(2, 1, 30.0, MessageKind.RPS) == 0.0

    def test_degenerate_dimensions(self):
        s = TrafficStats()
        assert s.messages_per_user_per_cycle(0, 0) == 0.0
        assert s.bandwidth_kbps(0, 0, 0) == 0.0
        assert s.loss_rate() == 0.0


class TestWireSizes:
    def test_item_copy_wire_size(self):
        from repro.core.profiles import ItemProfile

        item = NewsItem.publish(source=1, created_at=0, title="t")
        profile = ItemProfile()
        profile.set(1, 0, 1.0)
        profile.set(2, 0, 0.5)
        copy = ItemCopy(item=item, profile=profile)
        assert copy.wire_size() == (8 + 1 + 600) + 2 * 24

    def test_clone_for_forward_increments_hops_and_copies_profile(self):
        item = NewsItem.publish(source=1, created_at=0)
        copy = ItemCopy(item=item)
        copy.profile.set(1, 0, 1.0)
        clone = copy.clone_for_forward()
        assert clone.hops == copy.hops + 1
        clone.profile.set(2, 0, 1.0)
        assert 2 not in copy.profile
        assert clone.item is copy.item  # immutable part shared
