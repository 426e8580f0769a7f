"""Tests for repro.api.RunConfig — the typed gate-matrix API.

The contract under test:

* ``RunConfig()`` equals the out-of-the-box pipeline, and
  ``RunConfig.from_env()`` on a clean environment equals ``RunConfig()``
  (env parity: the same flag spellings the owning modules use);
* ``as_env()`` is the exact inverse of ``from_env()``;
* ``apply()`` activates every gate for the block and restores all prior
  state on exit — including when the block raises;
* the plumbing: ``WhatsUpSystem(run_config=)`` and
  ``run_experiment(run_config=)`` both construct under the config.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro._native import native_kernel_enabled
from repro.api import RunConfig
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.gates import env_flag
from repro.core.similarity import batch_scoring, batch_scoring_enabled
from repro.datasets import survey_dataset
from repro.simulation.delivery import delivery_batching_enabled


@pytest.fixture
def clean_env(monkeypatch):
    """Strip every REPRO_* gate so from_env() sees the defaults."""
    import os

    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    return os.environ


VARIANT = dict(
    batch_sim=False,
    batch_delivery=False,
    native=False,
)


def _gates() -> tuple[bool, bool, bool]:
    return (
        batch_scoring_enabled(),
        delivery_batching_enabled(),
        native_kernel_enabled(),
    )


def test_has_exactly_the_three_pipeline_gates():
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert names == ["batch_sim", "batch_delivery", "native"]


class TestEnvParity:
    def test_defaults_match_clean_env(self, clean_env):
        assert RunConfig.from_env() == RunConfig()

    def test_as_env_roundtrips_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_env(cfg.as_env()) == cfg

    def test_as_env_roundtrips_every_field(self):
        cfg = RunConfig(**VARIANT)
        env = cfg.as_env()
        assert env["REPRO_NATIVE"] == "0"
        assert RunConfig.from_env(env) == cfg

    def test_from_env_parses_module_spellings(self):
        env = {
            "REPRO_BATCH_SIM": "OFF",
            "REPRO_NATIVE": "No",
            "REPRO_BATCH_DELIVERY": "false",
        }
        assert RunConfig.from_env(env) == RunConfig(**VARIANT)

    def test_from_env_applies_module_floors_and_fallbacks(self):
        # every surviving gate is a flag: only a disabled word turns it
        # off; any other spelling falls back to on, exactly as the owning
        # modules parse it, and an unset variable takes the default
        env = {
            "REPRO_BATCH_SIM": "maybe",
            "REPRO_BATCH_DELIVERY": "2",
            "REPRO_NATIVE": "",
        }
        cfg = RunConfig.from_env(env)
        assert cfg == RunConfig()
        assert all(env_flag(name, env=env) for name in env)

    def test_validation_rejects_bad_fields(self):
        # the retired multi-process and array-state knobs are not fields
        # any more (the view layout follows the native kernels)
        with pytest.raises(TypeError, match="shards"):
            RunConfig(shards=2)
        with pytest.raises(TypeError, match="wire_tier"):
            RunConfig().replace(wire_tier="columns")
        with pytest.raises(TypeError, match="array_state"):
            RunConfig(array_state=False)

    def test_frozen_and_replace(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_sim = False
        derived = cfg.replace(batch_sim=False, native=False)
        assert (derived.batch_sim, derived.native) == (False, False)
        assert cfg.batch_sim is True  # original untouched


class TestApply:
    # the restore assertions compare against *captured* prior state, not
    # hard-coded defaults — the tier-1 CI legs run this suite under env
    # gates (REPRO_BATCH_SIM=0, REPRO_NATIVE=0, …) and apply() must
    # put back whatever was set, defaults or not

    def test_apply_sets_and_restores_everything(self):
        before = _gates()
        with RunConfig(**VARIANT).apply():
            assert _gates() == (False, False, False)
        assert _gates() == before

    def test_apply_restores_on_exception(self):
        before = _gates()
        cfg = RunConfig(batch_sim=False)
        with pytest.raises(RuntimeError, match="boom"), cfg.apply():
            assert batch_scoring_enabled() is False
            raise RuntimeError("boom")
        assert _gates() == before

    def test_apply_nests(self):
        before = batch_scoring_enabled()
        with RunConfig(batch_sim=True).apply():
            with RunConfig(batch_sim=False).apply():
                assert batch_scoring_enabled() is False
            assert batch_scoring_enabled() is True
        assert batch_scoring_enabled() == before


class TestPlumbing:
    @pytest.fixture(scope="class")
    def dataset(self):
        return survey_dataset(n_base_users=24, n_base_items=20, seed=3)

    def test_whatsup_system_constructs_under_config(self, dataset):
        before = _gates()
        system = WhatsUpSystem(
            dataset, WhatsUpConfig(f_like=5), seed=7,
            run_config=RunConfig(**VARIANT),
        )
        assert _gates() == before  # config never leaked
        system.run(cycles=4, drain=False)
        assert system.engine.now == 4
        assert any(node.profile.scores for node in system.nodes)
        assert _gates() == before

    def test_system_matches_env_gated_run(self, dataset):
        """run_config=RunConfig(batch_sim=False) ≙ the batch_scoring() context."""

        def state(system):
            return [
                (node.node_id, sorted(node.profile.scores.items()),
                 sorted(node.seen))
                for node in system.nodes
            ]

        with batch_scoring(False):
            ref = WhatsUpSystem(dataset, WhatsUpConfig(f_like=5), seed=7)
            ref.run(cycles=6, drain=False)
            want = state(ref)
        system = WhatsUpSystem(
            dataset, WhatsUpConfig(f_like=5), seed=7,
            run_config=RunConfig(batch_sim=False),
        )
        system.run(cycles=6, drain=False)
        assert state(system) == want

    def test_run_experiment_accepts_run_config(self):
        from repro.experiments import ScaleProfile, run_experiment

        tiny = ScaleProfile(
            name="tiny",
            survey_base_users=30,
            survey_base_items=30,
            survey_replication=1,
            synthetic_users=40,
            synthetic_items_per_community=2,
            digg_users=30,
            digg_items=30,
            publish_cycles=8,
            fanouts_survey=(2, 4),
            fanouts_synthetic=(2, 4),
            fanouts_digg=(2, 4),
        )
        before = _gates()
        cfg = RunConfig(batch_delivery=False)
        rep = run_experiment("table1", tiny, seed=2, run_config=cfg)
        assert "Synthetic" in rep.text
        assert _gates() == before  # restored
