"""The declared contracts the RL rules enforce.

Every registry the lint pack consults lives here, in one reviewed place:
a rule never guesses which module owns a contract — it reads these
declarations.  Tests inject alternative :class:`Contracts` instances to
exercise the rules against fixture trees (see
``tests/lint_fixtures/``).

Paths are repo-root-relative POSIX strings and are matched by suffix, so
the tool works from any working directory and on any OS.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Contracts:
    """Registry-declared inputs of the RL rules."""

    #: the single module allowed to read ``REPRO_*`` env vars (RL002)
    gate_registry_module: str = "src/repro/core/gates.py"

    #: modules whose ``time.monotonic``/``perf_counter``/``sleep`` calls
    #: are wall-clock protocol/reporting code, not simulation state
    #: (RL001); ``time.time()`` is banned even here
    wall_clock_modules: tuple[str, ...] = (
        "src/repro/cli.py",
        "src/repro/experiments/runner.py",
    )

    #: ``numpy.random`` attributes that are constructors/seeding types,
    #: not draws from the hidden global generator (RL001)
    np_random_ok: tuple[str, ...] = (
        "Generator",
        "BitGenerator",
        "default_rng",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
    )

    #: directory names skipped while recursing into lint roots (explicitly
    #: named paths are always scanned)
    exclude_dirs: tuple[str, ...] = (
        "__pycache__",
        "lint_fixtures",
        ".git",
        "build",
        ".ruff_cache",
        ".mypy_cache",
    )


DEFAULT_CONTRACTS = Contracts()
