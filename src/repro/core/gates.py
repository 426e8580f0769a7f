"""The ``REPRO_*`` gate registry: every env-var read goes through here.

This module is the **single declared gate-registry module** of the tree
(lint rule RL002 in :mod:`tools.repro_lint`): no other module under
``src/repro`` may read a ``REPRO_*`` environment variable directly.
Gate-owning modules call these helpers once at import time to seed their
module globals; programmatic callers use :class:`repro.api.RunConfig`,
which parses a passed-in mapping with the same helpers and therefore the
same spellings.

Parse rules (shared with ``RunConfig.from_env``):

* **flags** — any of ``0``/``false``/``no``/``off`` (case-insensitive)
  disables, everything else enables;
* **raw** — the verbatim string (callers own any further parsing, e.g.
  the scale-profile name).

The helpers accept an explicit ``env`` mapping so ``RunConfig.from_env``
(and tests) can parse arbitrary snapshots without touching the process
environment.
"""

from __future__ import annotations

import os
from typing import Mapping

__all__ = [
    "DISABLED_WORDS",
    "env_flag",
    "env_raw",
]

#: the flag spellings that turn a gate off (case-insensitive)
DISABLED_WORDS = ("0", "false", "no", "off")


def _mapping(env: Mapping[str, str] | None) -> Mapping[str, str]:
    return os.environ if env is None else env


def env_flag(
    name: str,
    default: bool = True,
    *,
    env: Mapping[str, str] | None = None,
) -> bool:
    """Parse a boolean gate: off iff the value is a disabled word."""
    raw = _mapping(env).get(name, "1" if default else "0")
    return raw.lower() not in DISABLED_WORDS


def env_raw(
    name: str,
    default: str = "",
    *,
    env: Mapping[str, str] | None = None,
) -> str:
    """The verbatim variable value; callers own any further parsing."""
    return _mapping(env).get(name, default)
