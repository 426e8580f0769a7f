"""View layouts: unit parity and fixed-seed equivalence tests.

:func:`~repro.gossip.views.make_view` builds the columnar
:class:`ArrayView` when the native kernels are loaded and the dict
:class:`View` otherwise.  Both must keep every externally observable
outcome **bitwise identical** at fixed seeds.  These tests enforce that
promise at three levels:

* *operation parity* — mirrored random op sequences on :class:`View` and
  :class:`ArrayView` leave identical entries, order, RNG state and wire
  sizes, with the dict view on the native and pure-Python tiers alike;
* *pack parity* — a profile's version-keyed packed arrays equal a
  from-scratch rebuild after any mutation mix
  (set/remove/purge/integrate/copy/snapshot);
* *end-to-end equivalence* — full fixed-seed simulations (small + medium,
  plus churn and cold-start joins) leave identical logs, profiles, views,
  duplicates and traffic bytes whether the nodes were built with
  :class:`View` or :class:`ArrayView`, across the scalar/batch/native
  similarity tiers.

``ArrayView`` needs the compiled kernels, so the view classes are
skipped without them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunConfig
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.profiles import (
    FrozenProfile,
    ItemProfile,
    PackedView,
    UserProfile,
)
from repro.core.similarity import (
    batch_scoring,
    default_score_cache,
    native_available,
    native_kernel,
)
from repro.experiments.scale import SCALES
from repro.gossip.rps import RpsProtocol
from repro.gossip.vicinity import ClusteringProtocol
from repro.gossip.views import ArrayView, View, ViewEntry, make_view
from repro.simulation.churn import ChurnModel
from repro.utils.exceptions import ConfigurationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="native extension not built"
)


@pytest.fixture(autouse=True)
def _native_on():
    """Pin the native gate on (a CI leg may run with ``REPRO_NATIVE=0``)."""
    with native_kernel(True):
        yield


def _thirds_opinion(_nid, item) -> bool:
    """Deterministic joiner oracle."""
    return item.item_id % 3 != 0


def entry(nid: int, ts: int = 0, likes: tuple = ()) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(nid, f"10.0.0.{nid}", profile, ts)


@needs_native
class TestGate:
    """The view layout follows the native gate at construction."""

    def test_factory_honours_gate(self):
        with RunConfig().apply():
            assert isinstance(make_view(5, owner_id=1), ArrayView)
        with native_kernel(False):
            assert isinstance(make_view(5, owner_id=1), View)

    def test_arrayview_requires_kernel(self):
        with native_kernel(False), pytest.raises(ConfigurationError):
            ArrayView(5, owner_id=1)


@needs_native
class TestViewOperationParity:
    """Mirrored op sequences must leave both backends bit-identical."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "pure"])
    def test_random_op_sequences(self, native):
        """*native* picks the tier the dict view's ranked trim runs on;
        the array view keeps the kernel it was built with."""
        array = ArrayView(5, owner_id=99)
        with native_kernel(native):
            ops_rng = np.random.default_rng(17)
            legacy = View(5, owner_id=99)
            g1 = np.random.default_rng(42)
            g2 = np.random.default_rng(42)
            for step in range(400):
                op = ops_rng.integers(8)
                if op <= 2:
                    batch = [
                        entry(
                            int(ops_rng.integers(1, 30)),
                            int(ops_rng.integers(0, 20)),
                            tuple(
                                int(x)
                                for x in ops_rng.integers(0, 50, size=3)
                            ),
                        )
                        for _ in range(int(ops_rng.integers(1, 12)))
                    ]
                    legacy.upsert_all(batch)
                    array.upsert_all(batch)
                elif op == 3:
                    legacy.trim_random(g1)
                    array.trim_random(g2)
                elif op == 4:
                    nid = int(ops_rng.integers(1, 30))
                    legacy.remove(nid)
                    array.remove(nid)
                elif op == 5:
                    cutoff = int(ops_rng.integers(0, 15))
                    assert legacy.evict_older_than(
                        cutoff
                    ) == array.evict_older_than(cutoff)
                elif op == 6:
                    scores = {
                        e.node_id: float(ops_rng.random()) for e in legacy
                    }
                    legacy.trim_ranked(scores=scores)
                    array.trim_ranked(scores=scores)
                else:
                    legacy.trim_ranked(key=lambda e: e.node_id % 5)
                    array.trim_ranked(key=lambda e: e.node_id % 5)
                # entry identity, order, selection and accounting all match
                assert legacy.entries() == array.entries(), step
                assert legacy.oldest() == array.oldest(), step
                assert legacy.node_ids() == array.node_ids(), step
                assert legacy.wire_size() == array.wire_size(), step
                assert legacy.sample(3, g1) == array.sample(3, g2), step
                assert legacy.profiles() == array.profiles(), step
            # both consumed identical randomness throughout
            assert g1.integers(1 << 30) == g2.integers(1 << 30)

    def test_basic_facade(self):
        v = ArrayView(4, owner_id=9)
        v.upsert(entry(1, ts=5))
        v.upsert(entry(9, ts=1))  # owner: never stored
        v.upsert(entry(1, ts=3))  # stale: ignored
        v.upsert(entry(2, ts=0))
        assert len(v) == 2
        assert 1 in v and 9 not in v
        assert v.get(1).timestamp == 5
        assert [e.node_id for e in v] == [1, 2]
        assert v.oldest().node_id == 2
        v.remove(1)
        assert v.node_ids() == [2]
        assert not v.is_full()

    def test_growth_beyond_preallocation(self):
        v = ArrayView(2, owner_id=0)
        batch = [entry(i, ts=i) for i in range(1, 120)]
        v.upsert_all(batch)
        assert len(v) == 119
        assert v.node_ids() == list(range(1, 120))
        assert v.oldest().node_id == 1
        ref = View(2, owner_id=0)
        ref.upsert_all(batch)
        assert ref.entries() == v.entries()


@needs_native
class TestColumnarShipments:
    """The shipped column blocks must agree with the walked measures."""

    def _protocol_pair(self):
        a = RpsProtocol(1, 8, np.random.default_rng(0))
        b = RpsProtocol(2, 8, np.random.default_rng(1))
        for nid in range(3, 12):
            a.view.upsert(entry(nid, ts=nid, likes=(nid,)))
            b.view.upsert(entry(nid + 5, ts=nid, likes=(nid, 1)))
        return a, b

    def test_rps_wire_precompute_matches_walk(self):
        a, b = self._protocol_pair()
        prof = UserProfile()
        prof.record_opinion(5, 0, True)
        snap = prof.snapshot()
        for now in range(20):
            started = a.initiate(snap, now)
            assert started is not None
            _partner, msg = started
            walked = 1 + sum(_descriptor_size(e) for e in msg.entries)
            assert msg.wire_size() == walked
            reply = b.handle(msg, snap, now)
            if reply is not None:
                assert reply.wire_size() == 1 + sum(
                    _descriptor_size(e) for e in reply.entries
                )
                a.handle(reply, snap, now)

    def test_clustering_wire_precompute_matches_walk(self):
        proto = ClusteringProtocol(0, 6, "wup", np.random.default_rng(3))
        for nid in range(1, 7):
            proto.view.upsert(entry(nid, ts=nid, likes=(nid,)))
        prof = UserProfile()
        prof.record_opinion(1, 0, True)
        started = proto.initiate(prof.snapshot(), 9)
        assert started is not None
        _partner, msg = started
        assert msg.wire_size() == 1 + sum(
            _descriptor_size(e) for e in msg.entries
        )

    def test_upsert_columns_equals_upsert_all(self):
        a, _b = self._protocol_pair()
        prof = UserProfile()
        snap = prof.snapshot()
        payload, _wire, cols = a._shipment(snap, 9, exclude=4)
        assert cols is not None
        via_cols = ArrayView(8, owner_id=50)
        via_cols.upsert_columns(payload, cols)
        via_all = ArrayView(8, owner_id=50)
        via_all.upsert_all(payload)
        assert via_cols.entries() == via_all.entries()
        assert via_cols.wire_size() == via_all.wire_size()

    def test_entries_with_columns_alignment(self):
        a, _b = self._protocol_pair()
        entries, cols = a.view.entries_with_columns()
        assert [e.node_id for e in entries] == a.view.node_ids()
        _ref, _stride, count = cols
        assert count == len(entries)
        with native_kernel(False):
            legacy = RpsProtocol(1, 8, np.random.default_rng(0))
        entries, cols = legacy.view.entries_with_columns()
        assert cols is None


def _descriptor_size(e: ViewEntry) -> int:
    from repro.gossip.views import descriptor_wire_size

    return descriptor_wire_size(e)


class TestPackJournalParity:
    """Memoised packs == a from-scratch rebuild, element-wise.

    The set-op journal these once checked is retired: packs are now a
    version-keyed lazy memo, and these tests pin that it never goes stale
    across any mutation mix and that clones share it safely.
    """

    @staticmethod
    def _assert_pack_matches(profile, where):
        pack = profile.packed()
        fresh = PackedView(profile)
        assert np.array_equal(pack.rated_ids, fresh.rated_ids), where
        assert np.array_equal(pack.rated_scores, fresh.rated_scores), where
        assert np.array_equal(pack.liked_ids, fresh.liked_ids), where
        assert pack.norm == fresh.norm, where

    def test_user_profile_mutation_mix(self):
        rng = np.random.default_rng(3)
        profile = UserProfile()
        for _ in range(60):
            profile.set(
                int(rng.integers(0, 10_000)),
                int(rng.integers(0, 30)),
                float(rng.integers(0, 2)),
            )
        profile.packed()
        for step in range(200):
            op = rng.integers(5)
            if op <= 1:
                for _ in range(int(rng.integers(1, 6))):
                    profile.set(
                        int(rng.integers(0, 10_000)),
                        int(rng.integers(0, 40)),
                        float(rng.integers(0, 2)),
                    )
            elif op == 2:
                ids = list(profile.scores)
                profile.remove(ids[int(rng.integers(len(ids)))])
            elif op == 3:
                profile.purge_older_than(int(rng.integers(0, 25)))
            else:
                profile.snapshot()
            self._assert_pack_matches(profile, step)

    def test_item_profile_integrate_and_clone_chain(self):
        rng = np.random.default_rng(7)
        item = ItemProfile()
        for _ in range(40):
            item.set(
                int(rng.integers(0, 5_000)),
                int(rng.integers(0, 30)),
                float(rng.random()),
            )
        item.packed()
        for step in range(30):
            liker = UserProfile()
            for _ in range(int(rng.integers(5, 60))):
                liker.set(
                    int(rng.integers(0, 5_000)),
                    int(rng.integers(0, 30)),
                    float(rng.integers(0, 2)),
                )
            item.integrate(liker)
            self._assert_pack_matches(item, f"integrate {step}")
            item.purge_older_than(int(rng.integers(0, 20)))
            self._assert_pack_matches(item, f"purge {step}")
            clone = item.copy()
            self._assert_pack_matches(clone, f"clone {step}")
            if step % 2:
                item = clone

    def test_cow_clone_shares_pack_columns(self):
        item = ItemProfile()
        for i in range(30):
            item.set(i, 0, 0.5)
        pack = item.packed()
        clone = item.copy()
        assert clone.packed().rated_ids is pack.rated_ids
        # mutating the clone must not corrupt the parent's pack
        clone.set(999, 1, 1.0)
        assert np.array_equal(item.packed().rated_ids, pack.rated_ids)
        assert 999 not in item.scores

    def test_legacy_gate_keeps_lazy_discipline(self):
        """Snapshots and frozen copies sort their own arrays on first use;
        a warm profile pack is never adopted."""
        profile = UserProfile()
        for i in range(60):
            profile.set(i, 0, 1.0)
        profile.packed()
        profile.set(1000, 1, 1.0)
        profile.packed()
        snap = profile.snapshot()
        assert snap._rated_ids is None
        assert np.array_equal(snap.rated_ids, profile.packed().rated_ids)
        item = ItemProfile()
        for i in range(40):
            item.set(i, 0, 0.25)
        item.packed()
        assert item.freeze()._rated_ids is None


def _full_state(system: WhatsUpSystem) -> dict:
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
        # exact slot/insertion order, not just membership: the storage
        # swap must preserve iteration order everywhere
        "wup": {n.node_id: n.wup.view.node_ids() for n in system.nodes},
        "rps": {n.node_id: n.rps.view.node_ids() for n in system.nodes},
        "sent": {str(k): v for k, v in stats.sent.items()},
        "delivered": {str(k): v for k, v in stats.delivered.items()},
        "bytes": {str(k): v for k, v in stats.bytes_delivered.items()},
        "pending": system.engine.pending_item_messages(),
    }


@needs_native
class TestEndToEndEquivalence:
    """View vs ArrayView nodes: bitwise-identical runs at fixed seeds.

    *arrays_on* is the native gate while the system is *built*, which
    picks the view class; every run then executes on the same tier.
    """

    @staticmethod
    def _run(scale, dataset, f_like, cycles, arrays_on, *, churn=None, seed=5):
        default_score_cache().clear()
        data = SCALES[scale].dataset(dataset, seed=seed)
        churn_model = ChurnModel(**churn) if churn is not None else None
        with native_kernel(arrays_on):
            system = WhatsUpSystem(
                data, WhatsUpConfig(f_like=f_like), seed=seed,
                churn=churn_model,
            )
        system.engine.run(cycles)
        state = _full_state(system)
        if churn is not None:
            state["kills"] = churn_model.total_kills
            state["rejoins"] = churn_model.total_rejoins
        return state

    def test_small_survey_identical(self):
        legacy = self._run("small", "survey", 8, 30, False)
        array = self._run("small", "survey", 8, 30, True)
        for key in legacy:
            assert legacy[key] == array[key], f"{key} differs"

    def test_medium_survey_under_churn_identical(self):
        churn = dict(kill_rate=0.04, rejoin_after=2, start_cycle=3)
        legacy = self._run(
            "medium", "survey", 8, 18, False, churn=churn, seed=11
        )
        assert legacy["kills"] > 0 and legacy["rejoins"] > 0
        array = self._run(
            "medium", "survey", 8, 18, True, churn=churn, seed=11
        )
        for key in legacy:
            assert legacy[key] == array[key], f"{key} differs"

    @pytest.mark.parametrize(
        "tier",
        ["scalar", "batch", "native"],
    )
    def test_three_way_tiers_by_plane(self, tier):
        """View/ArrayView × similarity tier: every combination identical."""
        batch = tier != "scalar"
        native = tier == "native"

        def run(arrays_on):
            with batch_scoring(batch), native_kernel(native):
                default_score_cache().clear()
                data = SCALES["small"].dataset("synthetic", seed=9)
                with native_kernel(arrays_on):
                    system = WhatsUpSystem(
                        data, WhatsUpConfig(f_like=6), seed=9
                    )
                system.engine.run(20)
            return _full_state(system)

        legacy = run(False)
        array = run(True)
        for key in legacy:
            assert legacy[key] == array[key], f"{key} differs ({tier})"

    def test_coldstart_joins_identical(self):
        """Mid-run cold-start joins: inherited views + bootstrap ratings."""

        def run(arrays_on):
            default_score_cache().clear()
            data = SCALES["small"].dataset("survey", seed=13)
            with native_kernel(arrays_on):
                system = WhatsUpSystem(data, WhatsUpConfig(f_like=8), seed=13)
            system.engine.run(10)
            # three joiners bootstrap via the paper's cold-start path
            base = max(system.engine.nodes) + 1
            with native_kernel(arrays_on):
                for j in range(3):
                    system.join_node(
                        base + j,
                        opinion=_thirds_opinion,
                        contact_id=j * 7,
                    )
            system.engine.run(10)
            return _full_state(system)

        legacy = run(False)
        array = run(True)
        for key in legacy:
            assert legacy[key] == array[key], f"{key} differs"
