"""Tests for the experiment harness: factory, runner, sweeps, registry, CLI.

Heavier registry experiments are exercised end-to-end by the benchmark
suite; here we validate the machinery on tiny workloads.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core import WhatsUpConfig
from repro.experiments import (
    EXPERIMENTS,
    ScaleProfile,
    best_result,
    build_system,
    fanout_sweep,
    get_experiment,
    get_scale,
    run_experiment,
    run_one,
    score_system,
    ttl_sweep,
)
from repro.experiments.reporting import ExperimentReport, results_table, series_table
from repro.experiments.results import RunResult
from repro.metrics.retrieval import RetrievalScores
from repro.utils.exceptions import ConfigurationError

TINY = ScaleProfile(
    name="tiny",
    survey_base_users=30,
    survey_base_items=30,
    survey_replication=1,
    synthetic_users=40,
    synthetic_items_per_community=2,
    digg_users=30,
    digg_items=30,
    publish_cycles=12,
    fanouts_survey=(2, 4),
    fanouts_synthetic=(2, 4),
    fanouts_digg=(2, 4),
)


@pytest.fixture(scope="module")
def tiny_survey():
    return TINY.survey(seed=2)


class TestScaleProfiles:
    def test_get_scale_default_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "small"

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale().name == "medium"

    def test_get_scale_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale("paper").name == "paper"

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            get_scale("galactic")

    def test_paper_scale_dimensions(self):
        paper = get_scale("paper")
        assert paper.survey_base_users * paper.survey_replication == 480
        assert paper.synthetic_users == 3180
        assert paper.digg_users == 750

    def test_dataset_by_name(self):
        assert TINY.dataset("survey").name == "WHATSUP Survey"
        assert TINY.dataset("synthetic").name == "Synthetic"
        assert TINY.dataset("digg").name == "Digg"
        with pytest.raises(ConfigurationError):
            TINY.dataset("imdb")

    def test_fanout_grid_lookup(self):
        assert TINY.fanouts("survey") == (2, 4)


class TestFactory:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("whatsup", "whatsup"),
            ("whatsup-cos", "whatsup-cos"),
            ("cf-wup", "cf-wup"),
            ("cf-cos", "cf-cos"),
            ("gossip", "gossip"),
            ("c-whatsup", "c-whatsup"),
            ("c-pubsub", "c-pubsub"),
        ],
    )
    def test_builds_all_names(self, tiny_survey, name, expected):
        system = build_system(name, tiny_survey, fanout=3, seed=1)
        assert system.system_name == expected

    def test_cascade_needs_graph(self, tiny_survey):
        from repro.utils.exceptions import DatasetError

        with pytest.raises(DatasetError):
            build_system("cascade", tiny_survey)
        digg = TINY.digg(seed=2)
        assert build_system("cascade", digg).system_name == "cascade"

    def test_unknown_name(self, tiny_survey):
        with pytest.raises(ConfigurationError, match="unknown system"):
            build_system("bittorrent", tiny_survey)

    def test_fanout_sets_config(self, tiny_survey):
        system = build_system("whatsup", tiny_survey, fanout=7, seed=1)
        assert system.config.f_like == 7

    def test_config_passthrough(self, tiny_survey):
        cfg = WhatsUpConfig(f_like=3, beep_ttl=2)
        system = build_system("whatsup", tiny_survey, config=cfg, seed=1)
        assert system.config.beep_ttl == 2


class TestRunnerAndSweeps:
    def test_run_one_scores(self, tiny_survey):
        result = run_one("whatsup", tiny_survey, fanout=3, seed=1)
        assert result.system == "whatsup"
        assert result.dataset == tiny_survey.name
        assert 0 <= result.f1 <= 1
        assert result.item_messages > 0
        assert result.cycles > 0
        assert result.wall_seconds > 0
        assert result.params == {"fanout": 3}

    def test_run_one_pubsub_closed_form(self, tiny_survey):
        result = run_one("c-pubsub", tiny_survey, seed=1)
        assert result.recall == pytest.approx(1.0, abs=0.02)
        assert result.messages_per_user > 0
        assert result.cycles == 0  # no engine cycles

    def test_fanout_sweep_cardinality(self, tiny_survey):
        results = fanout_sweep(tiny_survey, ("gossip", "whatsup"), (2, 3), seed=1)
        assert len(results) == 4
        assert {r.system for r in results} == {"gossip", "whatsup"}

    def test_best_result(self):
        runs = [
            RunResult("a", "d", {"fanout": 1}, RetrievalScores(0.5, 0.5, 0.5)),
            RunResult("a", "d", {"fanout": 2}, RetrievalScores(0.6, 0.6, 0.6)),
            RunResult("b", "d", {}, RetrievalScores(0.9, 0.9, 0.9)),
        ]
        assert best_result(runs, "a").params["fanout"] == 2
        with pytest.raises(ValueError):
            best_result(runs, "zzz")

    def test_ttl_sweep_params_recorded(self, tiny_survey):
        results = ttl_sweep(tiny_survey, (0, 2), f_like=3, seed=1)
        assert [r.params["beep_ttl"] for r in results] == [0, 2]

    def test_score_system_label(self, tiny_survey):
        system = build_system("whatsup", tiny_survey, fanout=3, seed=1)
        system.run()
        result = score_system(system, tiny_survey, {"fanout": 3})
        assert result.label() == "whatsup(fanout=3)"
        row = result.table_row()
        assert row[0] == "whatsup(fanout=3)"


class TestReporting:
    def test_results_table_renders(self):
        runs = [
            RunResult("whatsup", "d", {"fanout": 3}, RetrievalScores(0.4, 0.8, 0.53))
        ]
        runs[0].messages_per_user = 12.3
        out = results_table(runs, title="T")
        assert "whatsup(fanout=3)" in out
        assert "0.800" in out

    def test_series_table_handles_nan(self):
        out = series_table("x", [1, 2], {"y": [0.5, float("nan")]})
        assert "-" in out

    def test_experiment_report_str(self):
        rep = ExperimentReport("t", "Title", "body")
        assert "Title" in str(rep) and "body" in str(rep)


class TestRegistry:
    def test_all_ids_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "fig3-synthetic", "fig3-digg", "fig3-survey",
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "ablate-window", "ablate-rpsvs", "ablate-wupvs", "ablate-metric",
            "shard-outage",
        }
        assert expected <= set(EXPERIMENTS)

    def test_get_experiment_unknown(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_run_table1_tiny(self):
        rep = run_experiment("table1", TINY, seed=2)
        assert "Synthetic" in rep.text
        assert rep.data["rows"][0][1] == TINY.synthetic_users

    def test_run_table2(self):
        rep = run_experiment("table2", TINY, seed=2)
        assert "BEEP TTL" in rep.text

    def test_run_table4_tiny(self):
        rep = run_experiment("table4", TINY, seed=2)
        dist = rep.data["distribution"]
        assert sum(dist.values()) == pytest.approx(1.0, abs=0.01)

    def test_run_fig6_tiny(self):
        rep = run_experiment("fig6", TINY, seed=2)
        assert rep.data["mean_hops"] > 0

    def test_run_fig11_tiny(self):
        rep = run_experiment("fig11", TINY, seed=2)
        assert len(rep.data["centres"]) == 10

    def test_run_shard_outage_tiny(self):
        rep = run_experiment("shard-outage", TINY, seed=2)
        rows = rep.data["rows"]
        assert rows[0][0] == "no outage" and rows[0][1] == 0
        # every outage row killed a residue class and delivered no more
        # item messages per user than the clean run
        assert all(row[1] > 0 for row in rows[1:])
        assert all(row[2] <= rows[0][2] for row in rows[1:])
        assert "Recall" in rep.text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig9" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "BEEP TTL" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_with_scale_flag(self, capsys):
        assert main(["run", "table2", "--scale", "paper"]) == 0

    @pytest.mark.parametrize(
        "flag", ["--shards=2", "--faults=crash@5:1:q", "--wire-tier=pickle"]
    )
    def test_multiprocess_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", flag])
