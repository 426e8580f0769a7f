"""Integration tests: the paper's headline behavioural claims, end to end.

Each test runs complete systems on small workloads and checks a
*relationship* the paper reports — these are the properties the
reproduction must preserve regardless of absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.datasets import survey_dataset, synthetic_dataset
from repro.experiments import build_system, run_one
from repro.metrics import (
    evaluate_dissemination,
    lscc_fraction,
    overlay_graph,
)
from repro.network.transport import UniformLossTransport
from repro.simulation.churn import ChurnModel


@pytest.fixture(scope="module")
def survey():
    return survey_dataset(n_base_users=80, n_base_items=100, seed=5, publish_cycles=30)


@pytest.fixture(scope="module")
def communities():
    return synthetic_dataset(
        n_users=120, n_communities=6, items_per_community=8, seed=5, publish_cycles=30
    )


def scores_of(name, dataset, fanout, seed=3, transport=None):
    return run_one(name, dataset, fanout=fanout, seed=seed, transport=transport).scores


class TestHeadlineClaims:
    def test_whatsup_beats_gossip_f1_at_lower_cost(self, survey):
        """Table III: WHATSUP dominates homogeneous gossip."""
        wu = run_one("whatsup", survey, fanout=8, seed=3)
        go = run_one("gossip", survey, fanout=4, seed=3)
        assert wu.f1 > go.f1
        assert wu.messages_per_user < go.messages_per_user

    def test_whatsup_precision_above_like_rate(self, survey):
        """Filtering works: precision clearly above random delivery."""
        wu = run_one("whatsup", survey, fanout=8, seed=3)
        assert wu.precision > survey.like_rate() + 0.08

    def test_wup_metric_beats_cosine_for_whatsup(self, survey):
        """§V-A: the asymmetric metric outperforms cosine at equal fanout."""
        wup = scores_of("whatsup", survey, fanout=6)
        cos = scores_of("whatsup-cos", survey, fanout=6)
        assert wup.f1 > cos.f1
        assert wup.recall > cos.recall

    def test_wup_metric_beats_cosine_for_cf(self, survey):
        """§V-A Table III: CF-WUP > CF-Cos, driven by recall."""
        wup = scores_of("cf-wup", survey, fanout=8)
        cos = scores_of("cf-cos", survey, fanout=8)
        assert wup.recall > cos.recall
        assert wup.f1 > cos.f1

    def test_amplification_beats_plain_cf(self, survey):
        """§V-B: WHATSUP reaches a better F1 than CF at similar fanout."""
        wu = run_one("whatsup", survey, fanout=8, seed=3)
        cf = run_one("cf-wup", survey, fanout=8, seed=3)
        assert wu.recall > cf.recall

    def test_communities_disseminate_internally(self, communities):
        """The synthetic workload: items stay mostly inside their community."""
        system = build_system("whatsup", communities, fanout=6, seed=3)
        system.run()
        scores = evaluate_dissemination(system.reached_matrix(), communities.likes)
        assert scores.precision > 2.5 * communities.like_rate()

    def test_recall_rises_with_fanout(self, survey):
        """Figures 3/4: more amplification, more completeness."""
        recalls = [scores_of("whatsup", survey, fanout=f).recall for f in (2, 6, 12)]
        assert recalls[0] < recalls[1] < recalls[2]

    def test_lscc_grows_with_fanout(self, survey):
        """Figure 4: the overlay becomes strongly connected as fLIKE grows."""
        fractions = []
        for fanout in (2, 10):
            system = build_system("whatsup", survey, fanout=fanout, seed=3)
            system.run()
            fractions.append(lscc_fraction(overlay_graph(system.nodes)))
        assert fractions[1] > fractions[0]
        assert fractions[1] > 0.9

    def test_dislike_ttl_improves_recall(self, survey):
        """Figure 5: disabling the dislike path costs recall."""
        off = run_one(
            "whatsup", survey, seed=3, config=WhatsUpConfig(f_like=8, beep_ttl=0)
        )
        on = run_one(
            "whatsup", survey, seed=3, config=WhatsUpConfig(f_like=8, beep_ttl=4)
        )
        assert on.recall > off.recall

    def test_loss_tolerance_at_fanout_six(self, survey):
        """Table VI: ≤20% loss has modest impact at f=6."""
        clean = scores_of("whatsup", survey, fanout=6)
        lossy = scores_of(
            "whatsup", survey, fanout=6, transport=UniformLossTransport(0.20)
        )
        assert lossy.f1 > 0.8 * clean.f1

    def test_heavy_loss_hurts_small_fanout_more(self, survey):
        """Table VI: f=3 suffers much more than f=6 at 50% loss."""
        small = scores_of(
            "whatsup", survey, fanout=3, transport=UniformLossTransport(0.5)
        )
        large = scores_of(
            "whatsup", survey, fanout=6, transport=UniformLossTransport(0.5)
        )
        assert small.recall < large.recall

    def test_centralized_has_better_precision(self, survey):
        """Figure 9 / §V-G: averaged over two fanouts to damp seed noise."""
        cen = np.mean(
            [scores_of("c-whatsup", survey, fanout=f).precision for f in (4, 6)]
        )
        dec = np.mean(
            [scores_of("whatsup", survey, fanout=f).precision for f in (4, 6)]
        )
        assert cen > dec

    def test_churn_resilience(self, survey):
        """Extension: moderate churn with rejoin leaves F1 largely intact."""
        churn = ChurnModel(kill_rate=0.02, rejoin_after=5, start_cycle=5)
        system = WhatsUpSystem(
            survey, WhatsUpConfig(f_like=8), seed=3, churn=churn
        )
        system.run()
        churned = evaluate_dissemination(system.reached_matrix(), survey.likes)
        baseline = scores_of("whatsup", survey, fanout=8)
        assert churn.total_kills > 0
        assert churned.f1 > 0.7 * baseline.f1


class TestReproducibility:
    def test_identical_runs_identical_outcomes(self, survey):
        a = run_one("whatsup", survey, fanout=6, seed=11)
        b = run_one("whatsup", survey, fanout=6, seed=11)
        assert a.scores == b.scores
        assert a.item_messages == b.item_messages

    def test_dataset_regeneration_stable(self):
        a = survey_dataset(n_base_users=40, n_base_items=50, seed=9)
        b = survey_dataset(n_base_users=40, n_base_items=50, seed=9)
        np.testing.assert_array_equal(a.likes, b.likes)
