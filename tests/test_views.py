"""Unit tests for the gossip view data structure.

Parametrised over both view classes — the dict-backed :class:`View` and
the columnar :class:`ArrayView` (which needs the native kernels) — so
every facade behaviour is pinned on each storage layout.  Tests go through the public
facade only (no ``_entries``-style internals), so a storage swap cannot
silently bypass them.
"""

from __future__ import annotations

import pytest

from repro._native import native_available, native_kernel
from repro.core.profiles import FrozenProfile
from repro.gossip.views import ArrayView, View, ViewEntry, descriptor_wire_size
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(params=["legacy", "array"])
def view_cls(request):
    """The view backend under test (both must behave identically)."""
    if request.param == "legacy":
        yield View
        return
    if not native_available():
        pytest.skip("native extension not built")
    with native_kernel(True):
        yield ArrayView


def entry(node_id: int, ts: int = 0, likes: tuple[int, ...] = ()) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(
        node_id=node_id, address=f"10.0.0.{node_id}", profile=profile, timestamp=ts
    )


class TestViewBasics:
    def test_capacity_must_be_positive(self, view_cls):
        with pytest.raises(ConfigurationError):
            view_cls(0, owner_id=1)

    def test_upsert_and_len(self, view_cls):
        v = view_cls(5, owner_id=99)
        v.upsert(entry(1))
        v.upsert(entry(2))
        assert len(v) == 2
        assert set(v.node_ids()) == {1, 2}

    def test_owner_never_stored(self, view_cls):
        v = view_cls(5, owner_id=1)
        v.upsert(entry(1))
        assert len(v) == 0

    def test_upsert_keeps_freshest(self, view_cls):
        v = view_cls(5, owner_id=99)
        v.upsert(entry(1, ts=5))
        v.upsert(entry(1, ts=3))  # older: ignored
        assert v.get(1).timestamp == 5
        v.upsert(entry(1, ts=9))  # fresher: replaces
        assert v.get(1).timestamp == 9

    def test_oldest_deterministic_tiebreak(self, view_cls):
        v = view_cls(5, owner_id=99)
        v.upsert(entry(4, ts=1))
        v.upsert(entry(2, ts=1))
        v.upsert(entry(3, ts=7))
        assert v.oldest().node_id == 2  # ties by node id

    def test_oldest_empty(self, view_cls):
        assert view_cls(3, owner_id=0).oldest() is None

    def test_remove(self, view_cls):
        v = view_cls(3, owner_id=0)
        v.upsert(entry(1))
        v.remove(1)
        assert 1 not in v
        v.remove(1)  # no-op

    def test_contains_iter(self, view_cls):
        v = view_cls(3, owner_id=0)
        v.upsert(entry(5))
        assert 5 in v
        assert [e.node_id for e in v] == [5]

    def test_profiles_accessor(self, view_cls):
        v = view_cls(3, owner_id=0)
        e1, e2 = entry(1, likes=(1,)), entry(2, likes=(2,))
        v.upsert(e1)
        v.upsert(e2)
        assert v.profiles() == [e1.profile, e2.profile]


class TestViewTrimming:
    def test_trim_random_respects_capacity(self, view_cls, rng):
        v = view_cls(3, owner_id=0)
        for i in range(1, 10):
            v.upsert(entry(i))
        v.trim_random(rng)
        assert len(v) == 3

    def test_trim_random_noop_when_under_capacity(self, view_cls, rng):
        v = view_cls(5, owner_id=0)
        v.upsert(entry(1))
        v.trim_random(rng)
        assert len(v) == 1

    def test_trim_random_keeps_subset(self, view_cls, rng):
        v = view_cls(4, owner_id=0)
        for i in range(1, 10):
            v.upsert(entry(i))
        before = set(v.node_ids())
        v.trim_random(rng)
        assert set(v.node_ids()) <= before

    def test_trim_ranked_keeps_highest(self, view_cls):
        v = view_cls(2, owner_id=0)
        v.upsert(entry(1, likes=(1,)))
        v.upsert(entry(2, likes=(1, 2)))
        v.upsert(entry(3, likes=(1, 2, 3)))
        v.trim_ranked(lambda e: len(e.profile.liked))
        assert set(v.node_ids()) == {2, 3}

    def test_trim_ranked_tiebreak_by_freshness(self, view_cls):
        v = view_cls(1, owner_id=0)
        v.upsert(entry(1, ts=1, likes=(7,)))
        v.upsert(entry(2, ts=9, likes=(8,)))
        v.trim_ranked(lambda e: 0.5)  # all tie
        assert v.node_ids() == [2]  # fresher descriptor wins

    def test_trim_ranked_requires_exactly_one_ranking(self, view_cls):
        v = view_cls(1, owner_id=0)
        with pytest.raises(ConfigurationError):
            v.trim_ranked()
        with pytest.raises(ConfigurationError):
            v.trim_ranked(lambda e: 0.0, scores={})


class TestViewMisc:
    def test_evict_older_than(self, view_cls):
        v = view_cls(5, owner_id=0)
        v.upsert(entry(1, ts=0))
        v.upsert(entry(2, ts=10))
        assert v.evict_older_than(5) == 1
        assert set(v.node_ids()) == {2}

    def test_sample_without_replacement(self, view_cls, rng):
        v = view_cls(10, owner_id=0)
        for i in range(1, 8):
            v.upsert(entry(i))
        s = v.sample(3, rng)
        assert len(s) == 3
        assert len({e.node_id for e in s}) == 3

    def test_sample_more_than_size_returns_all(self, view_cls, rng):
        v = view_cls(10, owner_id=0)
        v.upsert(entry(1))
        assert len(v.sample(5, rng)) == 1

    def test_wire_size_counts_profiles(self, view_cls):
        v = view_cls(5, owner_id=0)
        e1 = entry(1, likes=(1, 2))
        v.upsert(e1)
        assert v.wire_size() == descriptor_wire_size(e1)
        # fixed fields + 16B digest header + ceil(1.25 * 2) digest bytes
        assert descriptor_wire_size(e1) == (4 + 8 + 8) + 16 + 3
        # digest grows sublinearly vs the 24B/entry triplet encoding
        big = entry(2, likes=tuple(range(100)))
        assert descriptor_wire_size(big) == (4 + 8 + 8) + 16 + 125

    def test_is_full(self, view_cls):
        v = view_cls(1, owner_id=0)
        assert not v.is_full()
        v.upsert(entry(1))
        assert v.is_full()

    def test_aged_copy(self):
        e = entry(1, ts=3)
        assert e.aged_copy(8).timestamp == 8
        assert e.aged_copy(8).node_id == 1
