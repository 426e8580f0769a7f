"""Micro-benchmarks of the hot primitives.

Unlike the macro table/figure benchmarks (one full simulation per round),
these measure the inner-loop costs that dominate a run — useful for
tracking performance regressions in the similarity metrics, gossip
merges and the engine cycle loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.profiles import FrozenProfile, ItemProfile, UserProfile
from repro.core.similarity import (
    ScoreCache,
    cosine_similarity,
    native_available,
    native_kernel,
    pairwise_wup,
    score_candidates,
    wup_similarity,
)
from repro.datasets import survey_dataset
from repro.gossip.rps import RpsProtocol
from repro.gossip.vicinity import ClusteringProtocol
from repro.gossip.views import ArrayView, View, ViewEntry

#: the two view classes every bookkeeping primitive is measured on: the
#: dict View and the kernel-driven ArrayView
PLANES = ["legacy", "array"]


def _new_view(plane, capacity, owner=999):
    """A fresh view of *plane*'s class (ArrayView needs the kernels)."""
    if plane == "legacy":
        return View(capacity, owner_id=owner)
    if not native_available():
        pytest.skip("ArrayView needs the native extension")
    with native_kernel(True):
        return ArrayView(capacity, owner_id=owner)


def _profile_pair(n_items=120, overlap=0.4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.choice(10_000, size=n_items, replace=False)
    a, b = UserProfile(), UserProfile()
    for iid in base:
        r = rng.random()
        if r < overlap:
            a.record_opinion(int(iid), 0, True)
            b.record_opinion(int(iid), 0, rng.random() < 0.7)
        elif r < 0.7:
            a.record_opinion(int(iid), 0, rng.random() < 0.5)
        else:
            b.record_opinion(int(iid), 0, rng.random() < 0.5)
    return a.snapshot(), b.snapshot()


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_wup_similarity(benchmark):
    a, b = _profile_pair()
    result = benchmark(wup_similarity, a, b)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_cosine_similarity(benchmark):
    a, b = _profile_pair()
    result = benchmark(cosine_similarity, a, b)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_wup_vs_item_profile(benchmark):
    # the BEEP orientation path: binary candidate vs real-valued item profile
    a, _ = _profile_pair()
    rng = np.random.default_rng(3)
    item = ItemProfile()
    for iid in rng.choice(10_000, size=150, replace=False):
        item.set(int(iid), 0, float(rng.random()))
    result = benchmark(wup_similarity, a, item)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_pairwise_wup_matrix(benchmark):
    rng = np.random.default_rng(1)
    rated = rng.random((240, 500)) < 0.4
    likes = rated & (rng.random((240, 500)) < 0.6)
    out = benchmark(pairwise_wup, likes, rated)
    assert out.shape == (240, 240)


@pytest.mark.benchmark(group="micro-gossip")
def test_micro_clustering_merge(benchmark):
    rng = np.random.default_rng(5)
    own, _ = _profile_pair(seed=9)
    proto = ClusteringProtocol(0, 20, wup_similarity, np.random.default_rng(0))
    candidates = []
    for nid in range(1, 61):
        scores = {
            int(i): 1.0 for i in rng.choice(10_000, size=40, replace=False)
        }
        candidates.append(
            ViewEntry(nid, "10.0.0.1", FrozenProfile(scores, is_binary=True), 0)
        )

    def merge_once():
        proto.merge(own, candidates)

    benchmark(merge_once)
    assert len(proto.view) == 20


def _candidate_pool(k, n_items=60, universe=20_000, seed=7):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(k):
        ids = rng.choice(universe, size=n_items, replace=False)
        pool.append(
            FrozenProfile(
                {int(i): float(rng.random() < 0.7) for i in ids},
                is_binary=True,
            )
        )
    return pool


@pytest.mark.benchmark(group="micro-batch")
@pytest.mark.parametrize("pool_size", [16, 64, 256])
def test_micro_score_candidates_pool(benchmark, pool_size):
    # the batch kernel across its adaptive dispatch range: 16/64 run the
    # set-algebra pool loop, 256 crosses into the vectorised numpy pass
    owner, _ = _profile_pair(seed=11)
    pool = _candidate_pool(pool_size)
    result = benchmark(score_candidates, owner, pool, "wup")
    assert len(result) == pool_size
    assert all(0.0 <= s <= 1.0 for s in result)


@pytest.mark.benchmark(group="micro-batch")
def test_micro_score_candidates_cache_hot(benchmark):
    # steady-state merges: every (owner version, candidate version) pair
    # unchanged since the last cycle -> pure cache service.  This measures
    # the *Python-tier* cache path, so the native tier (which rescores
    # instead of consulting the cache) is pinned off for the run.
    owner, _ = _profile_pair(seed=12)
    pool = _candidate_pool(64)
    cache = ScoreCache()
    with native_kernel(False):
        score_candidates(owner, pool, "wup", cache=cache)  # warm

        def cached_pool_scores():
            return score_candidates(owner, pool, "wup", cache=cache)

        result = benchmark(cached_pool_scores)
    assert len(result) == 64
    assert cache.hits > 0


@pytest.mark.benchmark(group="micro-gossip")
def test_micro_clustering_merge_paper_view(benchmark):
    # paper-swept operating point: fLIKE=25 -> WUPvs=50, merge pool of a
    # full received view + RPS view on top of the node's own entries
    own, _ = _profile_pair(seed=13)
    proto = ClusteringProtocol(0, 50, "wup", np.random.default_rng(1))
    candidates = [
        ViewEntry(nid, "10.0.0.1", profile, 0)
        for nid, profile in enumerate(_candidate_pool(120, seed=22), start=1)
    ]

    def merge_once():
        proto.merge(own, candidates)

    benchmark(merge_once)
    assert len(proto.view) == 50


@pytest.mark.benchmark(group="micro-engine")
def test_micro_engine_cycle_throughput(benchmark):
    dataset = survey_dataset(n_base_users=100, n_base_items=120, seed=2)
    system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=8), seed=2)
    system.run(10, drain=False)  # warm the overlay and the stream

    def one_cycle():
        system.engine.run(1)

    benchmark.pedantic(one_cycle, rounds=10, iterations=1)
    # >= 11: under --benchmark-disable (CI smoke) pedantic runs one round
    assert system.engine.cycles_run >= 11


# --------------------------------------------------------------------------
# gossip bookkeeping primitives (PR 4 array state plane vs legacy)
# --------------------------------------------------------------------------
#
# These measure the order-pinned state machinery the similarity kernels
# left as the wall: view merge-dedup, ranked trims, random trims,
# shipment/wire accounting, per-receipt profile mutation.  Each primitive
# runs on both state-plane backends; paired medians go to PERFORMANCE.md.


def _descriptor_batch(k=17, seed=31, universe=4000, n_items=40):
    rng = np.random.default_rng(seed)
    batch = []
    for nid in rng.choice(400, size=k, replace=False):
        scores = {
            int(i): 1.0
            for i in rng.choice(universe, size=n_items, replace=False)
        }
        batch.append(
            ViewEntry(
                int(nid),
                "10.0.0.1",
                FrozenProfile(scores, is_binary=True),
                int(rng.integers(0, 30)),
            )
        )
    return batch


def _view(plane, capacity=30, owner=999, prefill=30, seed=7):
    v = _new_view(plane, capacity, owner)
    v.upsert_all(_descriptor_batch(prefill, seed=seed))
    return v


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_upsert_all(benchmark, plane):
    # the merge-dedup inner loop: steady-state replacement of a shipped
    # batch (equal timestamps -> freshest-wins replaces every row)
    view = _view(plane)
    batch = _descriptor_batch(17, seed=5)
    benchmark(view.upsert_all, batch)
    assert len(view) <= 30 + 17


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_view_upsert_columns_kernel(benchmark):
    # the columnar shipment path: one state_upsert kernel call (ArrayView
    # only, so it needs the extension)
    if not native_available():
        pytest.skip("ArrayView needs the native extension")
    with native_kernel(True):
        sender = RpsProtocol(1, 30, np.random.default_rng(0))
        sender.view.upsert_all(_descriptor_batch(30, seed=9))
        profile = UserProfile()
        profile.record_opinion(3, 0, True)
        payload, _wire, cols = sender._shipment(
            profile.snapshot(), 5, exclude=2
        )
        view = _view("array", seed=11)
        benchmark(view.upsert_columns, payload, cols)


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_ranked_trim(benchmark, plane):
    # the clustering merge's trim: 60 candidates -> keep top 20
    rng = np.random.default_rng(3)
    base = _descriptor_batch(60, seed=13)
    scores = [float(s) for s in rng.random(60)]

    def setup():
        v = _new_view(plane, 20)
        v.upsert_all(base)
        return (v, v.entries(), list(scores)), {}

    def trim(v, entries, aligned):
        v.trim_ranked_aligned(entries, aligned)
        return v

    result = benchmark.pedantic(trim, setup=setup, rounds=40)
    assert len(result) == 20


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_trim_random(benchmark, plane):
    # the RPS merge rule: shrink 47 -> 30 by uniform sample
    base = _descriptor_batch(47, seed=17)
    rng = np.random.default_rng(23)

    def setup():
        v = _new_view(plane, 30)
        v.upsert_all(base)
        return (v,), {}

    result = benchmark.pedantic(
        lambda v: (v.trim_random(rng), v)[1], setup=setup, rounds=40
    )
    assert len(result) == 30


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_shipment_wire_accounting(benchmark, plane):
    # pricing a full gossip shipment: wire-column sum vs descriptor walk
    view = _view(plane)
    result = benchmark(view.wire_size)
    assert result > 0


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_oldest(benchmark, plane):
    # tail peer selection, twice per node per cycle
    view = _view(plane)
    result = benchmark(view.oldest)
    assert result is not None


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_profile_integrate(benchmark):
    # Algorithm 1's addToNewsProfile: fold a liker into the item profile
    # (steady state: every id present -> the averaging path)
    rng = np.random.default_rng(29)
    item = ItemProfile()
    liker = UserProfile()
    for iid in rng.choice(20_000, size=150, replace=False):
        item.set(int(iid), 0, float(rng.random()))
        liker.set(int(iid), 0, float(rng.integers(0, 2)))
    benchmark(item.integrate, liker)
    assert len(item) == 150


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_profile_snapshot_pack(benchmark):
    # per-opinion profile mutation + scored snapshot: the per-receipt
    # path (set bumps the version; the snapshot repacks lazily)
    rng = np.random.default_rng(37)
    profile = UserProfile()
    for iid in rng.choice(20_000, size=200, replace=False):
        profile.set(int(iid), 0, float(rng.integers(0, 2)))
    target = int(next(iter(profile.scores)))

    def mutate_and_pack():
        profile.set(target, 1, 1.0)
        return profile.snapshot().rated_ids

    ids = benchmark(mutate_and_pack)
    assert ids.size == 200
