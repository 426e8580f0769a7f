"""Unit and property tests for user/item profiles (paper §II-B/C/E)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.profiles import (
    FrozenProfile,
    ItemProfile,
    Profile,
    ProfileEntry,
    UserProfile,
)
from tests.conftest import (
    assert_purge_matches_remove_loop,
    make_item_profile,
    make_user_profile,
)


class TestProfileBasics:
    def test_empty_profile(self):
        p = Profile()
        assert len(p) == 0
        assert p.norm == 0.0
        assert p.liked == set()

    def test_set_and_query(self):
        p = Profile()
        p.set(7, 3, 1.0)
        assert 7 in p
        assert p.score_of(7) == 1.0
        assert p.timestamp_of(7) == 3
        assert p.score_of(8) is None

    def test_single_entry_per_identifier(self):
        # §II-B: "each profile contains only a single entry for a given
        # identifier" — setting again overwrites.
        p = Profile()
        p.set(7, 1, 1.0)
        p.set(7, 2, 0.0)
        assert len(p) == 1
        assert p.score_of(7) == 0.0
        assert p.timestamp_of(7) == 2

    def test_liked_tracks_positive_scores(self):
        p = Profile()
        p.set(1, 0, 1.0)
        p.set(2, 0, 0.0)
        p.set(3, 0, 0.4)
        assert p.liked == {1, 3}
        p.set(1, 1, 0.0)  # downgrade
        assert p.liked == {3}

    def test_norm_incremental_consistency(self):
        p = Profile()
        scores = {1: 1.0, 2: 0.5, 3: 0.25, 4: 0.0}
        for iid, s in scores.items():
            p.set(iid, 0, s)
        expected = math.sqrt(sum(s * s for s in scores.values()))
        assert p.norm == pytest.approx(expected)
        p.remove(2)
        expected = math.sqrt(1.0 + 0.25**2)
        assert p.norm == pytest.approx(expected)

    def test_remove_absent_is_noop(self):
        p = Profile()
        p.remove(99)
        assert len(p) == 0

    def test_entries_iteration(self):
        p = Profile([ProfileEntry(1, 5, 1.0), ProfileEntry(2, 6, 0.0)])
        entries = {e.item_id: e for e in p.entries()}
        assert entries[1] == ProfileEntry(1, 5, 1.0)
        assert entries[2] == ProfileEntry(2, 6, 0.0)

    def test_clear(self):
        p = Profile([ProfileEntry(1, 0, 1.0)])
        p.clear()
        assert len(p) == 0 and p.norm == 0.0 and not p.liked

    def test_version_increases_on_mutation(self):
        p = Profile()
        v0 = p.version
        p.set(1, 0, 1.0)
        assert p.version > v0


class TestProfileWindow:
    def test_purge_drops_only_older(self):
        p = Profile()
        p.set(1, 0, 1.0)
        p.set(2, 5, 1.0)
        p.set(3, 10, 0.0)
        removed = p.purge_older_than(5)
        assert removed == 1
        assert 1 not in p and 2 in p and 3 in p

    def test_purge_boundary_is_inclusive_keep(self):
        # timestamp == cutoff survives (strictly older removed)
        p = Profile()
        p.set(1, 5, 1.0)
        assert p.purge_older_than(5) == 0
        assert 1 in p

    def test_purge_makes_inactive_user_look_new(self):
        # §II-E: users inactive for a whole window end up with empty
        # profiles, like joining nodes.
        p = make_user_profile([1, 2, 3], timestamp=0)
        p.purge_older_than(100)
        assert len(p) == 0


def _graded_entries(n: int, seed: int) -> list[tuple[int, int, float]]:
    """*n* entries with 64-bit ids, timestamps 0..19 and graded scores."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2**63, size=n, dtype=np.int64).tolist()
    ts = rng.integers(0, 20, size=n).tolist()
    scores = rng.random(n)
    scores[rng.random(n) < 0.25] = 0.0  # some dislikes / zero averages
    return list(zip(ids, ts, scores.tolist(), strict=True))


class TestPurgeParity:
    """One-pass purge ≡ the reference ``remove()`` loop, bit for bit."""

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n", [40, 10])
    def test_purge_matches_remove_loop(self, n, shared, warm):
        entries = _graded_entries(n, seed=n)
        for cutoff in (0, 5, 10, 20):
            assert_purge_matches_remove_loop(
                entries, cutoff, shared=shared, warm=warm
            )

    def test_user_profile_purge_keeps_order_and_bits(self):
        p = make_user_profile([1, 2, 3], dislikes=[4], timestamp=0)
        p.record_opinion(5, 9, True)
        p.record_opinion(2, 9, False)  # re-rated: keeps its dict slot
        assert p.purge_older_than(5) == 3
        assert list(p.scores.items()) == [(2, 0.0), (5, 1.0)]
        assert list(p._timestamps.items()) == [(2, 9), (5, 9)]
        assert p.liked == {5}
        assert p._norm2 == 1.0

    def test_shared_purge_leaves_co_owner_containers(self):
        owner = make_item_profile({1: 0.5, 2: 0.25}, timestamp=0)
        owner.set(3, 8, 1.0)
        clone = owner.copy()
        scores, timestamps, liked = owner._scores, owner._timestamps, owner._liked
        assert clone.purge_older_than(5) == 2
        assert owner._scores is scores
        assert owner._timestamps is timestamps
        assert owner._liked is liked
        assert list(owner.scores) == [1, 2, 3]
        assert list(clone.scores) == [3]


class TestRemoveSharedProfile:
    def test_absent_id_leaves_shared_clone_shared(self):
        owner = make_item_profile({1: 0.5, 2: 1.0})
        clone = owner.copy()
        clone.remove(99)
        assert clone._shared
        assert clone._scores is owner._scores
        assert clone._timestamps is owner._timestamps
        assert clone._liked is owner._liked
        assert clone.version == 0

    def test_present_id_detaches(self):
        owner = make_item_profile({1: 0.5, 2: 1.0})
        clone = owner.copy()
        clone.remove(1)
        assert not clone._shared
        assert clone._scores is not owner._scores
        assert 1 in owner and 1 not in clone


class TestUserProfile:
    def test_record_opinion_like(self):
        p = UserProfile()
        p.record_opinion(4, 9, True)
        assert p.score_of(4) == 1.0
        assert 4 in p.liked

    def test_record_opinion_dislike(self):
        p = UserProfile()
        p.record_opinion(4, 9, False)
        assert p.score_of(4) == 0.0
        assert 4 not in p.liked
        assert 4 in p.rated

    def test_is_binary_flag(self):
        assert UserProfile.is_binary is True
        assert ItemProfile.is_binary is False

    def test_norm_is_sqrt_of_like_count(self):
        p = make_user_profile([1, 2, 3, 4], dislikes=[5, 6])
        assert p.norm == pytest.approx(2.0)

    def test_snapshot_reflects_state(self):
        p = make_user_profile([1, 2], dislikes=[3])
        snap = p.snapshot()
        assert snap.liked == frozenset({1, 2})
        assert snap.rated == frozenset({1, 2, 3})
        assert snap.is_binary

    def test_snapshot_immutable_under_later_mutation(self):
        p = make_user_profile([1])
        snap = p.snapshot()
        p.record_opinion(2, 0, True)
        assert snap.liked == frozenset({1})

    def test_snapshot_memoised_until_mutation(self):
        p = make_user_profile([1])
        s1 = p.snapshot()
        s2 = p.snapshot()
        assert s1 is s2
        p.record_opinion(9, 1, False)
        assert p.snapshot() is not s1


class TestItemProfile:
    def test_integrate_inserts_missing_entries(self):
        # Algorithm 1 line 22: absent id -> insert the user's tuple.
        user = make_user_profile([1, 2], dislikes=[3], timestamp=7)
        item = ItemProfile()
        item.integrate(user)
        assert item.score_of(1) == 1.0
        assert item.score_of(3) == 0.0
        assert item.timestamp_of(1) == 7

    def test_integrate_averages_existing_entries(self):
        # Algorithm 1 line 20: present id -> s <- (s + s_n) / 2.
        item = make_item_profile({1: 1.0})
        user = make_user_profile([], dislikes=[1])
        item.integrate(user)
        assert item.score_of(1) == pytest.approx(0.5)
        item.integrate(user)
        assert item.score_of(1) == pytest.approx(0.25)

    def test_integrate_averaging_personalises_towards_recent_liker(self):
        # Repeated averaging gives the latest liker the same weight as the
        # whole history (the paper's personalisation argument).
        item = make_item_profile({1: 0.0})
        liker = make_user_profile([1])
        item.integrate(liker)
        assert item.score_of(1) == pytest.approx(0.5)

    def test_copy_is_independent(self):
        item = make_item_profile({1: 1.0})
        clone = item.copy()
        clone.set(2, 0, 1.0)
        assert 2 not in item
        item.set(1, 1, 0.0)
        assert clone.score_of(1) == 1.0

    def test_freeze_snapshot(self):
        item = make_item_profile({1: 0.75})
        snap = item.freeze()
        assert isinstance(snap, FrozenProfile)
        assert snap.scores == {1: 0.75}
        assert not snap.is_binary

    def test_integrate_keeps_freshest_timestamp(self):
        item = ItemProfile()
        item.set(1, 10, 1.0)
        user = UserProfile()
        user.record_opinion(1, 4, True)
        item.integrate(user)
        assert item.timestamp_of(1) == 10  # older opinion does not rejuvenate
        user2 = UserProfile()
        user2.record_opinion(1, 20, True)
        item.integrate(user2)
        assert item.timestamp_of(1) == 20


class TestFrozenProfile:
    def test_norm_matches_source(self):
        p = make_item_profile({1: 0.5, 2: 0.5})
        assert p.freeze().norm == pytest.approx(p.norm)

    def test_len(self):
        assert len(FrozenProfile({1: 1.0, 2: 0.0}, is_binary=True)) == 2


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

opinion_lists = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 100), st.booleans()),
    max_size=60,
)


class TestProfileProperties:
    @given(opinion_lists)
    def test_norm_always_matches_recomputation(self, ops):
        p = UserProfile()
        for iid, ts, liked in ops:
            p.record_opinion(iid, ts, liked)
        expected = math.sqrt(sum(s * s for s in p.scores.values()))
        assert p.norm == pytest.approx(expected, abs=1e-9)

    @given(opinion_lists)
    def test_liked_always_matches_scores(self, ops):
        p = UserProfile()
        for iid, ts, liked in ops:
            p.record_opinion(iid, ts, liked)
        assert p.liked == {i for i, s in p.scores.items() if s > 0}

    @given(opinion_lists, st.integers(0, 100))
    def test_purge_never_keeps_stale(self, ops, cutoff):
        p = UserProfile()
        for iid, ts, liked in ops:
            p.record_opinion(iid, ts, liked)
        p.purge_older_than(cutoff)
        for e in p.entries():
            assert e.timestamp >= cutoff

    @given(opinion_lists)
    def test_snapshot_equals_live_state(self, ops):
        p = UserProfile()
        for iid, ts, liked in ops:
            p.record_opinion(iid, ts, liked)
        snap = p.snapshot()
        assert dict(snap.scores) == dict(p.scores)
        assert snap.liked == frozenset(p.liked)
        assert snap.norm == pytest.approx(p.norm)

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(0, 1), max_size=30),
        st.lists(st.integers(0, 30), max_size=10),
    )
    def test_item_profile_scores_stay_in_unit_interval(self, scores, likers):
        item = make_item_profile(scores)
        for _ in likers:
            user = make_user_profile(likers[:3], dislikes=likers[3:6])
            item.integrate(user)
        for s in item.scores.values():
            assert 0.0 <= s <= 1.0
