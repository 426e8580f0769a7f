"""Property-based invariants (hypothesis).

Equivalence contracts the node-state layer rests on, checked over
*generated* operation sequences rather than one fixed seed:

* **View ↔ ArrayView mirrored ops** — any sequence of upserts, removals,
  evictions and trims leaves the columnar backend observably identical to
  the dict-backed one (entries, order, oldest-selection, wire accounting,
  RNG consumption).
* **Memoised pack = naive replay** — a :class:`Profile`'s version-keyed
  :class:`PackedView` memo, consumed between mutations, always equals the
  pack a fresh profile would build from scratch after the same mutations.
* **One-pass purge = remove() loop** — the window purge leaves exactly the
  state one ``remove()`` per stale entry would, float bits included.

Profiles: ``HYPOTHESIS_PROFILE=ci`` (CI: 100 examples per property) or the
default ``dev`` (fast local iteration).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._native import native_available, native_kernel
from repro.core.profiles import FrozenProfile, Profile
from repro.gossip.views import ArrayView, View, ViewEntry
from tests.conftest import assert_purge_matches_remove_loop

settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile(
    "dev", max_examples=15, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# --------------------------------------------------------------------------- #
# View <-> ArrayView mirrored-operation equivalence                           #
# --------------------------------------------------------------------------- #

_upsert = st.tuples(
    st.just("upsert"),
    st.integers(min_value=1, max_value=24),  # node id (owner 99 excluded)
    st.integers(min_value=0, max_value=30),  # timestamp
    st.frozensets(st.integers(min_value=0, max_value=40), max_size=4),
)
_remove = st.tuples(st.just("remove"), st.integers(min_value=1, max_value=24))
_evict = st.tuples(st.just("evict"), st.integers(min_value=0, max_value=30))
_trim_random = st.tuples(
    st.just("trim_random"), st.integers(min_value=0, max_value=2**16)
)
_trim_ranked = st.tuples(
    st.just("trim_ranked"), st.integers(min_value=0, max_value=2**16)
)
_view_ops = st.lists(
    st.one_of(_upsert, _remove, _evict, _trim_random, _trim_ranked),
    min_size=1,
    max_size=60,
)


def _entry(nid: int, ts: int, likes: frozenset) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(nid, f"10.0.0.{nid}", profile, ts)


@pytest.mark.skipif(not native_available(), reason="native extension not built")
@given(ops=_view_ops, capacity=st.integers(min_value=1, max_value=8))
def test_arrayview_mirrors_dict_view(ops, capacity):
    legacy = View(capacity, owner_id=99)
    with native_kernel(True):
        array = ArrayView(capacity, owner_id=99)
    for op in ops:
        if op[0] == "upsert":
            e = _entry(op[1], op[2], op[3])
            legacy.upsert(e)
            array.upsert(e)
        elif op[0] == "remove":
            legacy.remove(op[1])
            array.remove(op[1])
        elif op[0] == "evict":
            assert legacy.evict_older_than(op[1]) == array.evict_older_than(
                op[1]
            )
        elif op[0] == "trim_random":
            # same seed, separate generators: both backends must consume
            # the stream identically to stay equivalent downstream
            legacy.trim_random(np.random.default_rng(op[1]))
            array.trim_random(np.random.default_rng(op[1]))
        else:  # trim_ranked by a seeded score table
            rng = np.random.default_rng(op[1])
            scores = {e.node_id: float(rng.random()) for e in legacy}
            legacy.trim_ranked(scores=scores)
            array.trim_ranked(scores=scores)
        # observable state identical after *every* op, not just at the end
        assert legacy.entries() == array.entries()
        assert legacy.node_ids() == array.node_ids()
        assert legacy.oldest() == array.oldest()
        assert len(legacy) == len(array)
        assert legacy.wire_size() == array.wire_size()


@given(
    shipment=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_bulk_upsert_equals_sequential(shipment):
    """``upsert_all`` is observably the fold of per-entry ``upsert``."""
    entries = [_entry(nid, ts, frozenset()) for nid, ts in shipment]
    for cls in (View, ArrayView) if native_available() else (View,):
        with native_kernel(True):
            bulk = cls(6, owner_id=99)
            seq = cls(6, owner_id=99)
        bulk.upsert_all(entries)
        for e in entries:
            seq.upsert(e)
        assert bulk.entries() == seq.entries()


# --------------------------------------------------------------------------- #
# memoised pack = naive replay                                               #
# --------------------------------------------------------------------------- #

_set_op = st.tuples(
    st.just("set"),
    st.integers(min_value=0, max_value=60),  # item id
    st.integers(min_value=0, max_value=40),  # timestamp
    st.sampled_from([0.0, 1.0, 0.5, -1.0]),  # score (binary + graded)
)
_remove_op = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=60))
_purge_op = st.tuples(st.just("purge"), st.integers(min_value=0, max_value=40))
_pack_op = st.tuples(st.just("pack"))  # consume the pack mid-sequence
_profile_ops = st.lists(
    st.one_of(_set_op, _remove_op, _purge_op, _pack_op),
    min_size=1,
    max_size=80,
)


def _apply(profile: Profile, ops, consume_packs: bool) -> None:
    for op in ops:
        if op[0] == "set":
            profile.set(op[1], op[2], op[3])
        elif op[0] == "remove":
            profile.remove(op[1])
        elif op[0] == "purge":
            profile.purge_older_than(op[1])
        elif consume_packs:
            profile.packed()  # memoise the pack at this version


@given(ops=_profile_ops)
def test_pack_journal_merge_equals_naive_replay(ops):
    """A memoised pack matches a from-scratch rebuild after any op mix.

    The memoised profile consumes ``packed()`` mid-sequence, so later
    mutations must leave no stale memo behind (this once checked the
    retired set-op journal; it now checks the version-keyed memo that
    replaced it); the naive profile replays the same mutations and builds
    its pack exactly once at the end, from its dict store alone.
    """
    memoised = Profile()
    _apply(memoised, ops, consume_packs=True)
    merged = memoised.packed()
    naive = Profile()
    _apply(naive, ops, consume_packs=False)
    rebuilt = naive.packed()

    np.testing.assert_array_equal(merged.rated_ids, rebuilt.rated_ids)
    np.testing.assert_array_equal(merged.rated_scores, rebuilt.rated_scores)
    np.testing.assert_array_equal(merged.liked_ids, rebuilt.liked_ids)
    assert merged.norm == rebuilt.norm
    assert merged.is_binary == rebuilt.is_binary
    # the pack is a pure derivation: the canonical dict stores agree too
    assert memoised.scores == naive.scores
    assert sorted(memoised.liked) == sorted(naive.liked)
    assert memoised.norm == naive.norm


@given(ops=_profile_ops)
def test_pack_memo_is_version_stable(ops):
    """Consuming ``packed()`` twice with no mutation returns one object."""
    profile = Profile()
    _apply(profile, ops, consume_packs=True)
    assert profile.packed() is profile.packed()


_purge_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**64 - 1),  # item id
        st.integers(min_value=0, max_value=40),  # timestamp
        st.floats(min_value=0.0, max_value=1.0),  # graded score
    ),
    max_size=60,
    unique_by=lambda e: e[0],
)


@given(
    entries=_purge_entries,
    cutoff=st.integers(min_value=0, max_value=41),
    shared=st.booleans(),
    warm=st.booleans(),
)
def test_one_pass_purge_equals_remove_loop(entries, cutoff, shared, warm):
    """The window purge ≡ one ``remove()`` per stale entry, bit for bit.

    Exact ``_norm2`` bits, key order of both dicts, the liked set, the
    version and the pack columns, on shared (copy-on-write) and unshared
    profiles, with and without a warm packed memo.
    """
    assert_purge_matches_remove_loop(entries, cutoff, shared=shared, warm=warm)

