"""Unit and property tests for the workload generators (paper §IV-A)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.news import NewsItem
from repro.datasets import (
    Dataset,
    OpinionOracle,
    community_sizes,
    dataset_from_likes,
    digg_dataset,
    survey_dataset,
    synthetic_dataset,
    zipf_weights,
)
from repro.utils.exceptions import DatasetError


def small_synthetic(**kw) -> Dataset:
    defaults = dict(n_users=80, n_communities=8, items_per_community=4, seed=3)
    defaults.update(kw)
    return synthetic_dataset(**defaults)


class TestDatasetInvariants:
    """Invariants every generator must satisfy."""

    @pytest.fixture(
        params=[
            lambda: small_synthetic(),
            lambda: digg_dataset(n_users=60, n_items=90, seed=3),
            lambda: survey_dataset(n_base_users=30, n_base_items=40, seed=3),
            lambda: survey_dataset(
                n_base_users=20, n_base_items=25, replication=3, seed=3
            ),
        ],
        ids=["synthetic", "digg", "survey", "survey-x3"],
    )
    def dataset(self, request) -> Dataset:
        return request.param()

    def test_shapes_consistent(self, dataset):
        assert dataset.likes.shape == (dataset.n_users, dataset.n_items)
        assert len(dataset.item_topics) == dataset.n_items

    def test_every_item_has_interested_source(self, dataset):
        for idx, item in enumerate(dataset.items):
            assert 0 <= item.source < dataset.n_users
            assert dataset.likes[item.source, idx]

    def test_publication_cycles_in_window(self, dataset):
        for item in dataset.items:
            assert 0 <= item.created_at < dataset.publish_cycles

    def test_publication_roughly_uniform(self, dataset):
        cycles = np.array([it.created_at for it in dataset.items])
        # every quarter of the window gets at least one item
        for q in range(4):
            lo = q * dataset.publish_cycles / 4
            hi = (q + 1) * dataset.publish_cycles / 4
            assert ((cycles >= lo) & (cycles < hi)).any()

    def test_schedule_round_trip(self, dataset):
        sched = dataset.schedule()
        assert sched.n_items == dataset.n_items
        for idx, item in enumerate(dataset.items):
            assert sched.index_of(item.item_id) == idx

    def test_unique_item_ids(self, dataset):
        ids = [it.item_id for it in dataset.items]
        assert len(set(ids)) == len(ids)

    def test_popularity_in_unit_interval(self, dataset):
        pop = dataset.popularity()
        assert (pop > 0).all() and (pop <= 1).all()

    def test_summary_row(self, dataset):
        name, users, news = dataset.summary_row()
        assert users == dataset.n_users and news == dataset.n_items

    def test_determinism(self, dataset):
        # regenerating with the same parameters gives identical workloads
        pass  # per-generator determinism tested below


class TestSyntheticDataset:
    def test_community_sizes_sum_and_bounds(self):
        sizes = community_sizes(1000, 21, size_ratio=33.0)
        assert sum(sizes) == 1000
        assert min(sizes) >= 1
        assert max(sizes) / max(min(sizes), 1) >= 5  # a real spread

    def test_community_sizes_more_communities_than_users_raises(self):
        with pytest.raises(DatasetError):
            community_sizes(5, 10)

    def test_zero_noise_blocks_cross_community_likes(self):
        ds = small_synthetic(noise=0.0)
        # items of a community are liked by exactly that community's members
        for idx in range(ds.n_items):
            fans = np.flatnonzero(ds.likes[:, idx])
            topics_of_fans_items = ds.likes[fans].astype(int) @ (
                ds.item_topics == ds.item_topics[idx]
            )
            # all fans like *all* items of this community
            per_comm = (ds.item_topics == ds.item_topics[idx]).sum()
            assert (topics_of_fans_items == per_comm).all()

    def test_noise_adds_cross_community_likes(self):
        clean = small_synthetic(noise=0.0)
        noisy = small_synthetic(noise=0.3)
        assert noisy.likes.sum() > clean.likes.sum()

    def test_item_count(self):
        ds = small_synthetic()
        assert ds.n_items == 8 * 4

    def test_deterministic_in_seed(self):
        a = small_synthetic(seed=9)
        b = small_synthetic(seed=9)
        np.testing.assert_array_equal(a.likes, b.likes)
        assert [i.item_id for i in a.items] == [i.item_id for i in b.items]

    def test_different_seeds_differ(self):
        a = small_synthetic(seed=1)
        b = small_synthetic(seed=2)
        assert [i.item_id for i in a.items] != [i.item_id for i in b.items]

    def test_paper_scale_matches_table1(self):
        ds = synthetic_dataset(
            n_users=3180, n_communities=21, items_per_community=120, seed=0
        )
        assert ds.n_users == 3180
        assert ds.n_items == 2520  # the paper's "about 2000"
        assert ds.n_topics == 21


class TestDiggDataset:
    def test_zipf_weights_normalised_and_decreasing(self):
        w = zipf_weights(10, 1.0)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_social_graph_present(self):
        ds = digg_dataset(n_users=50, n_items=60, seed=1)
        g = ds.social_graph
        assert g is not None
        assert g.number_of_nodes() == 50
        assert g.number_of_edges() > 0

    def test_graph_nodes_are_users(self):
        ds = digg_dataset(n_users=40, n_items=50, seed=1)
        assert set(ds.social_graph.nodes) == set(range(40))

    def test_no_self_follows(self):
        ds = digg_dataset(n_users=60, n_items=60, seed=2)
        assert all(u != v for u, v in ds.social_graph.edges)

    def test_interests_drive_likes(self):
        # With zero noise a user either likes every item of a topic (it is
        # one of her categories) or none — modulo the rare fans force-added
        # for items nobody liked (ensure_items_liked).
        ds = digg_dataset(n_users=50, n_items=100, noise=0.0, seed=4)
        partial_topic_count = 0
        for user in range(ds.n_users):
            liked_topics = set(ds.item_topics[np.flatnonzero(ds.likes[user])])
            for t in liked_topics:
                liked_of_t = int((ds.likes[user] & (ds.item_topics == t)).sum())
                total_of_t = int((ds.item_topics == t).sum())
                if liked_of_t != total_of_t:
                    partial_topic_count += 1
        # Forced fans create single-fan items; each can break at most one
        # (user, topic) pair, which bounds the number of partial topics.
        single_fan_items = int((ds.likes.sum(axis=0) == 1).sum())
        assert partial_topic_count <= single_fan_items

    def test_deterministic_in_seed(self):
        a = digg_dataset(n_users=40, n_items=50, seed=7)
        b = digg_dataset(n_users=40, n_items=50, seed=7)
        np.testing.assert_array_equal(a.likes, b.likes)
        assert sorted(a.social_graph.edges) == sorted(b.social_graph.edges)

    def test_homophily_increases_interest_alignment(self):
        def alignment(ds):
            g = ds.social_graph
            pairs = list(g.edges)
            sims = []
            for u, v in pairs:
                lu, lv = ds.likes[u], ds.likes[v]
                inter = (lu & lv).sum()
                union = (lu | lv).sum()
                sims.append(inter / union if union else 0.0)
            return float(np.mean(sims))

        low = digg_dataset(n_users=80, n_items=120, homophily=0.0, seed=5)
        high = digg_dataset(n_users=80, n_items=120, homophily=1.0, seed=5)
        assert alignment(high) > alignment(low)


class TestSurveyDataset:
    def test_replication_multiplies_dimensions(self):
        base = survey_dataset(n_base_users=20, n_base_items=30, replication=1, seed=1)
        rep = survey_dataset(n_base_users=20, n_base_items=30, replication=4, seed=1)
        assert rep.n_users == 4 * base.n_users
        assert rep.n_items == 4 * base.n_items

    def test_replicas_share_opinions(self):
        ds = survey_dataset(n_base_users=10, n_base_items=12, replication=2, seed=2)
        # replicas of the same base user must have identical like *rates*
        # over replicas of the same base items; verify via topic counts:
        # reconstruct per-user like counts per topic and check duplicates.
        per_user_topic = np.zeros((ds.n_users, ds.n_topics), dtype=int)
        for u in range(ds.n_users):
            for t in range(ds.n_topics):
                per_user_topic[u, t] = int(
                    (ds.likes[u] & (ds.item_topics == t)).sum()
                )
        # user u and u+10 are replicas (tiling order)
        for u in range(10):
            np.testing.assert_array_equal(
                per_user_topic[u], per_user_topic[u + 10]
            )

    def test_paper_scale_matches_table1(self):
        ds = survey_dataset(n_base_users=120, n_base_items=250, replication=4, seed=0)
        assert ds.n_users == 480
        assert ds.n_items == 1000

    def test_heterogeneous_user_like_rates(self):
        ds = survey_dataset(n_base_users=60, n_base_items=100, seed=3)
        rates = ds.likes.mean(axis=1)
        assert rates.std() > 0.02  # a real sociability spectrum

    def test_deterministic_in_seed(self):
        a = survey_dataset(n_base_users=15, n_base_items=20, seed=11)
        b = survey_dataset(n_base_users=15, n_base_items=20, seed=11)
        np.testing.assert_array_equal(a.likes, b.likes)


class TestCustomDataset:
    def test_from_matrix_basic(self):
        likes = np.zeros((5, 6), dtype=bool)
        likes[0, :] = True
        ds = dataset_from_likes(likes, name="mine", seed=1)
        assert ds.n_users == 5 and ds.n_items == 6
        assert ds.name == "mine"

    def test_empty_columns_get_a_fan(self):
        likes = np.zeros((4, 3), dtype=bool)
        ds = dataset_from_likes(likes, seed=1)
        assert (ds.likes.sum(axis=0) >= 1).all()

    def test_no_shuffle_preserves_order(self):
        likes = np.eye(4, dtype=bool)
        ds = dataset_from_likes(likes, shuffle_items=False, seed=1)
        # item i liked exactly by user i in the original order
        for i in range(4):
            assert ds.likes[i, i]

    def test_topics_enable_subscriptions(self):
        likes = np.ones((3, 4), dtype=bool)
        ds = dataset_from_likes(likes, item_topics=np.array([0, 0, 1, 1]), seed=1)
        subs = ds.topic_subscriptions()
        assert subs[0] == {0, 1}

    def test_invalid_shapes_rejected(self):
        with pytest.raises(DatasetError):
            dataset_from_likes(np.zeros((0, 3), dtype=bool))
        with pytest.raises(DatasetError):
            dataset_from_likes(np.zeros(3, dtype=bool))
        with pytest.raises(DatasetError):
            dataset_from_likes(
                np.ones((2, 2), dtype=bool), item_topics=np.array([1])
            )


class TestDatasetValidation:
    def _items(self, n, n_users=3, cycles=5):
        return [
            NewsItem.publish(source=0, created_at=i % cycles, title=f"i{i}")
            for i in range(n)
        ]

    def test_shape_mismatch_raises(self):
        with pytest.raises(DatasetError, match="shape"):
            Dataset(
                name="bad",
                n_users=3,
                items=self._items(2),
                likes=np.ones((3, 5), dtype=bool),
                publish_cycles=5,
            )

    def test_source_must_like_item(self):
        items = self._items(1)
        likes = np.zeros((3, 1), dtype=bool)  # source 0 does not like item 0
        with pytest.raises(DatasetError, match="does not like"):
            Dataset(
                name="bad", n_users=3, items=items, likes=likes, publish_cycles=5
            )

    def test_topicless_dataset_refuses_subscriptions(self):
        likes = np.ones((2, 2), dtype=bool)
        ds = dataset_from_likes(likes, seed=0)
        with pytest.raises(DatasetError, match="no topics"):
            ds.topic_subscriptions()


class TestOpinionOracle:
    def test_oracle_matches_matrix(self):
        ds = small_synthetic()
        oracle = OpinionOracle(ds)
        for idx in [0, 5, len(ds.items) - 1]:
            item = ds.items[idx]
            for user in [0, ds.n_users // 2, ds.n_users - 1]:
                assert oracle(user, item) == bool(ds.likes[user, idx])


@settings(max_examples=20, deadline=None)
@given(
    n_users=st.integers(10, 60),
    n_comm=st.integers(2, 8),
    items_per=st.integers(1, 5),
    seed=st.integers(0, 10),
)
def test_synthetic_generator_properties(n_users, n_comm, items_per, seed):
    if n_comm > n_users:
        return
    ds = synthetic_dataset(
        n_users=n_users,
        n_communities=n_comm,
        items_per_community=items_per,
        seed=seed,
    )
    assert ds.n_items == n_comm * items_per
    assert ds.likes.any(axis=0).all()  # every item liked by someone
    for idx, item in enumerate(ds.items):
        assert ds.likes[item.source, idx]


def test_import_repro_leaves_networkx_unloaded():
    """networkx is paid for only by the graph paths that use it.

    Datasets annotate their social graph with it and the Digg generator
    and graph metrics import it when called, so importing the package
    (the CLI, every simulation) must not load it.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, repro, repro.core.system, repro.experiments, repro.cli; "
        "print('networkx' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
