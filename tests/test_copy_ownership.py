"""Copy ownership on the item path: shared in-flight copies, private receipts.

A forwarding action ships *one* copy object to every target of its fan-out;
copies in flight are read-only.  A WHATSUP node takes a private copy on a
first receipt only, just before Algorithm 1 changes it, so:

* a shared copy that reaches a liker and a disliker in the same cycle comes
  out of both receipts unchanged (scores, timestamps, hops, dislikes);
* each node ships exactly what Algorithm 1 would have produced on a private
  copy of its own;
* duplicates are never cloned.
"""

from __future__ import annotations

import pytest

from repro.core import WhatsUpConfig, WhatsUpNode
from repro.core.news import ItemCopy, NewsItem
from repro.core.profiles import FrozenProfile, ItemProfile, UserProfile
from repro.gossip.views import ViewEntry
from repro.simulation.engine import CycleEngine
from repro.simulation.schedule import PublicationSchedule
from repro.utils.rng import RngStreams

NOW = 21
WINDOW = 5  # window start NOW - WINDOW = 16: ts 2 is stale, 17+ survive

#: the shared copy's item profile, in insertion order: one stale entry,
#: graded scores so the norm bits are non-trivial
ITEM_ENTRIES = [(101, 2, 0.75), (102, 18, 0.3), (103, 19, 0.0), (106, 17, 0.1)]

#: node A's opinions before the receipt (overlaps the item profile on 102)
LIKER_OPINIONS = [(102, 18, True), (104, 17, True), (105, 19, False)]


class _Always:
    def __init__(self, liked: bool) -> None:
        self.liked = liked

    def __call__(self, node_id, item) -> bool:
        return self.liked


def _entry(nid: int, likes=()) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(nid, "a", profile, 0)


def _user_profile(opinions) -> UserProfile:
    profile = UserProfile()
    for iid, ts, liked in opinions:
        profile.record_opinion(iid, ts, liked)
    return profile


def _item_profile() -> ItemProfile:
    profile = ItemProfile()
    for iid, ts, score in ITEM_ENTRIES:
        profile.set(iid, ts, score)
    return profile


def _node(node_id: int, liked: bool) -> WhatsUpNode:
    config = WhatsUpConfig(f_like=3, profile_window=WINDOW)
    return WhatsUpNode(node_id, config, _Always(liked), RngStreams(node_id))


def _setup():
    """A liker (1) and a disliker (2) that both forward, plus their peers."""
    item = NewsItem.publish(source=0, created_at=20, title="shared")
    liker = _node(1, True)
    for profile_op in LIKER_OPINIONS:
        liker.profile.record_opinion(*profile_op)
    for nid in (10, 11):
        liker.wup.view.upsert(_entry(nid))
    disliker = _node(2, False)
    disliker.profile.record_opinion(104, 17, True)
    disliker.rps.view.upsert(_entry(12, likes=(102,)))
    peers = [_node(nid, True) for nid in (10, 11, 12)]
    engine = CycleEngine(
        [liker, disliker, *peers],
        PublicationSchedule([(20, item)]),
        streams=RngStreams(5),
    )
    engine.now = NOW
    shared = ItemCopy(item=item, profile=_item_profile(), dislikes=1, hops=3)
    return engine, liker, disliker, shared


def _state(copy: ItemCopy) -> tuple:
    p = copy.profile
    return (
        list(p.scores.items()),
        list(p._timestamps.items()),
        p._norm2.hex(),
        sorted(p.liked),
        copy.hops,
        copy.dislikes,
    )


def _expected(shared: ItemCopy, liked: bool, user_before: UserProfile) -> tuple:
    """What Algorithm 1 + one forward produce on a private, unshared copy."""
    profile = _item_profile()
    if liked:
        profile.integrate(user_before)
    profile.purge_older_than(NOW - WINDOW)
    return _state(
        ItemCopy(
            item=shared.item,
            profile=profile,
            dislikes=shared.dislikes + (0 if liked else 1),
            hops=shared.hops + 1,
        )
    )


def _shipped_by_sender(rows) -> dict[int, list[ItemCopy]]:
    out: dict[int, list[ItemCopy]] = {}
    for sender, copy, _via in rows:
        out.setdefault(sender, []).append(copy)
    return out


@pytest.mark.parametrize(
    "batched", [True, False], ids=["receive_items", "receive_item"]
)
def test_shared_copy_survives_a_like_and_a_dislike(batched):
    engine, liker, disliker, shared = _setup()
    before = _state(shared)
    liker_before = _user_profile(LIKER_OPINIONS)
    if batched:
        engine._buffering = True
        for node in (liker, disliker):
            node.receive_items([(0, shared, True)], engine, NOW)
        rows = [entry for _target, entry in engine._send_buf]
    else:
        for node in (liker, disliker):
            node.receive_item(shared, True, engine, NOW)
        rows = [
            row
            for box in engine._future_inboxes.values()
            for per_node in box.values()
            for row in per_node
        ]

    # the shared copy in flight is exactly as it arrived
    assert _state(shared) == before

    shipped = _shipped_by_sender(rows)
    liker_out, disliker_out = shipped[1], shipped[2]
    assert len(liker_out) == 2 and len(disliker_out) == 1
    # one shipped object per forwarding action, never the shared copy
    assert liker_out[0] is liker_out[1]
    assert liker_out[0] is not shared and disliker_out[0] is not shared
    assert liker_out[0] is not disliker_out[0]

    # each node shipped what a private copy would have produced
    assert _state(liker_out[0]) == _expected(shared, True, liker_before)
    assert _state(disliker_out[0]) == _expected(shared, False, UserProfile())


def test_duplicates_are_never_cloned(monkeypatch):
    engine, liker, _disliker, shared = _setup()
    calls = []
    original = ItemCopy.private_copy

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ItemCopy, "private_copy", counting)
    engine._buffering = True
    liker.receive_items([(0, shared, True), (7, shared, True)], engine, NOW)
    liker.receive_items([(0, shared, True)], engine, NOW)
    liker.receive_item(shared, True, engine, NOW)
    assert calls == [shared]
    assert engine.log.duplicates == 3

