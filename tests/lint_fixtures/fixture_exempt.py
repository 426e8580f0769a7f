# repro-lint-fixture: treat-as-src
"""Declared-exempt usages: none of these may produce findings.

The lint-pack test injects a Contracts instance that names this file as
both the gate registry and a wall-clock module, so every call below sits
inside its sanctioned scope.
"""

import os
import time


def registry_read() -> str:
    return os.environ.get("REPRO_FIXTURE_GATE", "1")


def wall_clock() -> float:
    return time.monotonic()
