"""Shared fixtures for the WHATSUP reproduction test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.profiles import ItemProfile, PackedView, Profile, UserProfile
from repro.utils.rng import RngStreams


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RngStreams:
    """A deterministic stream registry, fresh per test."""
    return RngStreams(seed=777)


def make_user_profile(
    likes: list[int], dislikes: list[int] = (), timestamp: int = 0
) -> UserProfile:
    """Build a binary user profile from explicit like/dislike id lists."""
    profile = UserProfile()
    for iid in likes:
        profile.record_opinion(iid, timestamp, True)
    for iid in dislikes:
        profile.record_opinion(iid, timestamp, False)
    return profile


def make_item_profile(scores: dict[int, float], timestamp: int = 0) -> ItemProfile:
    """Build an item profile with explicit real-valued scores."""
    profile = ItemProfile()
    for iid, score in scores.items():
        profile.set(iid, timestamp, score)
    return profile


def _purge_state(profile: Profile) -> tuple:
    """Everything a window purge may change, with exact float bits."""
    return (
        list(profile._scores.items()),
        list(profile._timestamps.items()),
        profile._norm2.hex(),
        set(profile._liked),
        profile._version,
    )


def _pack_columns(pack: PackedView) -> tuple:
    return (
        pack.rated_ids.tolist(),
        pack.rated_scores.view(np.uint64).tolist(),
        pack.liked_ids.tolist(),
    )


def assert_purge_matches_remove_loop(
    entries: list[tuple[int, int, float]],
    cutoff: int,
    *,
    shared: bool,
    warm: bool,
) -> None:
    """``purge_older_than`` against the reference one-``remove()``-per-entry loop.

    Two item profiles are built from the same *entries* (``(id, ts,
    score)`` in insertion order).  With *shared* each is a copy-on-write
    clone of its own owner; with *warm* its packed memo is built first, so
    the purge must leave no stale pack behind.
    Compares the exact ``_norm2`` bits, dict key order, the liked set,
    the version and the pack columns (against a fresh rebuild too), and
    checks that a shared purge leaves the owner untouched.
    """

    def build() -> tuple[ItemProfile, ItemProfile]:
        owner = ItemProfile()
        for iid, ts, score in entries:
            owner.set(iid, ts, score)
        profile = owner.copy() if shared else owner
        if warm:
            profile.packed()
        return owner, profile

    owner, purged = build()
    _ref_owner, reference = build()
    owner_before = _purge_state(owner)

    removed = purged.purge_older_than(cutoff)
    stale = [iid for iid, ts in reference._timestamps.items() if ts < cutoff]
    for iid in stale:
        reference.remove(iid)

    assert removed == len(stale)
    assert _purge_state(purged) == _purge_state(reference)
    assert len(purged) == len(reference)
    if stale:
        assert not purged._shared
        assert purged._min_ts == min(reference._timestamps.values(), default=math.inf)
    columns = _pack_columns(purged.packed())
    assert columns == _pack_columns(reference.packed())
    assert columns == _pack_columns(PackedView(reference))
    if shared:
        assert _purge_state(owner) == owner_before


@pytest.fixture
def user_profile_factory():
    """Factory fixture for binary user profiles."""
    return make_user_profile


@pytest.fixture
def item_profile_factory():
    """Factory fixture for real-valued item profiles."""
    return make_item_profile
