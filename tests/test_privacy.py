"""Tests for the privacy extensions (paper §VII future work)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.datasets import survey_dataset
from repro.metrics import evaluate_dissemination
from repro.network.message import Envelope, MessageKind
from repro.network.transport import UniformLossTransport
from repro.privacy import (
    ObfuscatingWhatsUpNode,
    OnionRoutedTransport,
    obfuscate_snapshot,
    obfuscated_whatsup_system,
)
from repro.utils.rng import RngStreams
from tests.conftest import make_user_profile


class TestObfuscateSnapshot:
    def test_zero_noise_is_identity(self, rng):
        profile = make_user_profile([1, 2, 3], dislikes=[4, 5])
        snap = obfuscate_snapshot(profile, rng, flip=0.0, suppress=0.0)
        assert dict(snap.scores) == dict(profile.scores)

    def test_full_suppression_empties(self, rng):
        profile = make_user_profile([1, 2, 3])
        snap = obfuscate_snapshot(profile, rng, flip=0.0, suppress=1.0)
        assert len(snap) == 0

    def test_full_flip_inverts(self, rng):
        profile = make_user_profile([1, 2], dislikes=[3])
        snap = obfuscate_snapshot(profile, rng, flip=1.0, suppress=0.0)
        assert snap.scores[1] == 0.0
        assert snap.scores[3] == 1.0
        assert snap.liked == frozenset({3})

    def test_snapshot_stays_binary(self, rng):
        profile = make_user_profile([1, 2], dislikes=[3, 4])
        snap = obfuscate_snapshot(profile, rng, flip=0.5, suppress=0.3)
        assert snap.is_binary
        assert all(s in (0.0, 1.0) for s in snap.scores.values())

    def test_validation(self, rng):
        profile = make_user_profile([1])
        with pytest.raises(Exception):
            obfuscate_snapshot(profile, rng, flip=1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        flip=st.floats(0, 1),
        suppress=st.floats(0, 1),
        likes=st.sets(st.integers(0, 40), min_size=1, max_size=20),
    )
    def test_property_disclosed_subset_of_rated(self, flip, suppress, likes):
        rng = np.random.default_rng(0)
        profile = make_user_profile(sorted(likes))
        snap = obfuscate_snapshot(profile, rng, flip=flip, suppress=suppress)
        assert snap.rated <= frozenset(profile.scores)


class TestObfuscatingNode:
    def _node(self, flip=0.5, suppress=0.0):
        return ObfuscatingWhatsUpNode(
            0,
            WhatsUpConfig(f_like=3),
            lambda n, i: True,
            RngStreams(1),
            flip=flip,
            suppress=suppress,
        )

    def test_public_profile_differs_from_true(self):
        node = self._node(flip=1.0)
        for iid in range(10):
            node.profile.record_opinion(iid, 0, True)
        public = node.public_profile()
        assert public.liked != node.profile.snapshot().liked

    def test_public_profile_memoised_per_version(self):
        node = self._node()
        node.profile.record_opinion(1, 0, True)
        first = node.public_profile()
        assert node.public_profile() is first
        node.profile.record_opinion(2, 0, False)
        assert node.public_profile() is not first

    def test_plain_node_public_profile_is_true_snapshot(self):
        from repro.core.node import WhatsUpNode

        node = WhatsUpNode(0, WhatsUpConfig(f_like=3), lambda n, i: True, RngStreams(1))
        node.profile.record_opinion(1, 0, True)
        assert node.public_profile() is node.profile.snapshot()


class TestObfuscatedSystem:
    def test_system_runs_and_degrades_gracefully(self):
        ds = survey_dataset(n_base_users=50, n_base_items=60, seed=4, publish_cycles=25)
        plain = WhatsUpSystem(ds, WhatsUpConfig(f_like=5), seed=2)
        plain.run()
        base = evaluate_dissemination(plain.reached_matrix(), ds.likes)

        obf = obfuscated_whatsup_system(
            ds, WhatsUpConfig(f_like=5), flip=0.1, suppress=0.2, seed=2
        )
        obf.run()
        noisy = evaluate_dissemination(obf.reached_matrix(), ds.likes)
        # still works, at most a modest hit
        assert noisy.f1 > 0.6 * base.f1

    def test_system_name_encodes_level(self):
        ds = survey_dataset(n_base_users=20, n_base_items=20, seed=4)
        system = obfuscated_whatsup_system(ds, flip=0.2, suppress=0.4)
        assert "0.2" in system.system_name and "0.4" in system.system_name


class TestOnionRouting:
    def _env(self, size=1000):
        return Envelope(0, 1, MessageKind.ITEM, None, size)

    def test_lossless_chain_delivers(self, rng):
        t = OnionRoutedTransport(extra_hops=3)
        assert all(t.attempt(self._env(), rng) for _ in range(50))

    def test_loss_compounds_over_legs(self, rng):
        inner = UniformLossTransport(0.2)
        t = OnionRoutedTransport(inner, extra_hops=2)  # 3 legs
        n = 20_000
        delivered = sum(t.attempt(self._env(), rng) for _ in range(n)) / n
        assert delivered == pytest.approx(0.8**3, abs=0.02)

    def test_zero_hops_degenerates_to_inner(self, rng):
        inner = UniformLossTransport(0.3)
        t = OnionRoutedTransport(inner, extra_hops=0)
        n = 20_000
        delivered = sum(t.attempt(self._env(), rng) for _ in range(n)) / n
        assert delivered == pytest.approx(0.7, abs=0.02)

    def test_bandwidth_multiplier(self):
        t = OnionRoutedTransport(extra_hops=2)
        assert t.legs == 3
        # 3 legs, each carrying payload + 48B header
        assert t.bandwidth_multiplier(1000) == pytest.approx(3 * 1048 / 1000)
        assert t.effective_bytes(1000) == 3 * 1048

    def test_validation(self):
        with pytest.raises(Exception):
            OnionRoutedTransport(extra_hops=-1)

    def test_quality_unchanged_on_lossless_network(self):
        ds = survey_dataset(n_base_users=50, n_base_items=60, seed=4, publish_cycles=25)
        plain = WhatsUpSystem(ds, WhatsUpConfig(f_like=5), seed=2)
        onion = WhatsUpSystem(
            ds,
            WhatsUpConfig(f_like=5),
            seed=2,
            transport=OnionRoutedTransport(extra_hops=2),
        )
        plain.run()
        onion.run()
        a = evaluate_dissemination(plain.reached_matrix(), ds.likes)
        b = evaluate_dissemination(onion.reached_matrix(), ds.likes)
        assert a == b  # deterministic identical runs
