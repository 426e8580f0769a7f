"""The typed run-configuration API: one object for the whole gate matrix.

The pipeline grew one ``REPRO_*`` env gate per performance layer — batch
scoring, batched delivery and native kernels.
Each has its own module, setter, and context manager; programmatic
callers had to know all of them and stack the restore guards by hand.

:class:`RunConfig` replaces that soup with a frozen dataclass:

>>> from repro.api import RunConfig
>>> cfg = RunConfig(batch_sim=False, native=False)
>>> with cfg.apply():                                  # doctest: +SKIP
...     system = WhatsUpSystem(dataset, seed=7)
...     system.run(cycles=20)

or, equivalently, pass it where systems are built —
``WhatsUpSystem(dataset, run_config=cfg)``,
``run_experiment(exp_id, scale, run_config=cfg)`` — and the construction
runs under :meth:`RunConfig.apply` for you.

The env vars remain as the *defaults-loading layer*:
:meth:`RunConfig.from_env` parses them with exactly the rules the
modules themselves use (same spellings), so
``RunConfig.from_env().apply()`` is a no-op relative to current
behaviour.  :meth:`as_env` is the inverse, for spawning subprocesses
that must inherit a configuration.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.core.gates import env_flag

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """A complete, immutable run configuration.

    Field defaults equal the env-gate defaults, so ``RunConfig()`` is
    the out-of-the-box pipeline.  Derive variants with :meth:`replace`,
    activate with :meth:`apply` (or by passing the config to
    ``WhatsUpSystem`` / ``run_experiment``).
    """

    # -- pipeline gates (each a module gate with its own setter) ---------- #
    #: pool-at-a-time similarity scoring (``REPRO_BATCH_SIM``)
    batch_sim: bool = True
    #: per-cycle batched item delivery (``REPRO_BATCH_DELIVERY``)
    batch_delivery: bool = True
    #: compiled C kernels where available (``REPRO_NATIVE``); harmless to
    #: leave on when the extension is absent — dispatch falls back.  Also
    #: picks the view layout: columnar ``ArrayView`` with the kernels, the
    #: dict ``View`` without
    native: bool = True

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "RunConfig":
        """The configuration the env vars currently select.

        Parses each variable with the exact rules its owning module
        applies at import — the shared :mod:`repro.core.gates` helpers
        (same flag spellings) — so activating the result changes
        nothing: ``with RunConfig.from_env().apply(): ...`` behaves
        identically to the bare environment.
        """
        env = os.environ if environ is None else environ
        return cls(
            batch_sim=env_flag("REPRO_BATCH_SIM", env=env),
            batch_delivery=env_flag("REPRO_BATCH_DELIVERY", env=env),
            native=env_flag("REPRO_NATIVE", env=env),
        )

    def as_env(self) -> dict[str, str]:
        """The env-var dict selecting this configuration.

        The inverse of :meth:`from_env` (``from_env(cfg.as_env())``
        round-trips every field) — for spawning subprocesses that must
        inherit the configuration.
        """
        return {
            "REPRO_BATCH_SIM": "1" if self.batch_sim else "0",
            "REPRO_BATCH_DELIVERY": "1" if self.batch_delivery else "0",
            "REPRO_NATIVE": "1" if self.native else "0",
        }

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with *changes* applied."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #

    @contextmanager
    def apply(self) -> Iterator["RunConfig"]:
        """Activate every gate; restore all prior state on exit.

        The one context manager replacing the per-module stack
        (``batch_scoring`` + ``delivery_batching`` + ``native_kernel``).  Settings are consulted when engines are
        *constructed*: build (or run) the system inside the block; an
        engine keeps its configuration after the block exits.
        Exception-safe — the previous state comes back even when the
        guarded block raises.
        """
        from repro._native import set_native_kernel
        from repro.core.similarity import set_batch_scoring
        from repro.simulation.delivery import set_delivery_batching

        undo: list[tuple[Any, Any]] = []

        def _set(setter: Any, value: Any) -> None:
            undo.append((setter, setter(value)))

        try:
            _set(set_batch_scoring, self.batch_sim)
            _set(set_delivery_batching, self.batch_delivery)
            _set(set_native_kernel, self.native)
            yield self
        finally:
            while undo:
                setter, previous = undo.pop()
                setter(previous)
