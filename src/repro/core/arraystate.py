"""The array-state gate: columnar node state vs the legacy structures.

The array-backed state plane (:class:`repro.gossip.views.ArrayView`
columns, the incremental packed-profile mutation path in
:mod:`repro.core.profiles`) produces **bitwise-identical** outcomes to the
legacy dict/NamedTuple structures at fixed seeds — same RNG draws, same
view contents and order, same packed arrays, same traffic bytes.  The gate
exists for the equivalence tests, the CI legacy leg and debugging, exactly
like the sibling gates (``repro.core.similarity.batch_scoring``,
``repro.simulation.delivery.delivery_batching``,
``repro._native.native_kernel``).

``REPRO_ARRAY_STATE=0`` restores the legacy structures everywhere.  The
gate is consulted when state is *created* (view construction, profile
snapshot/pack maintenance), so toggling it mid-run changes how new state
is laid out without invalidating existing objects — both layouts implement
the same facade and interoperate.  For apples-to-apples runs, construct
and run each system entirely inside one :func:`array_state` block, as the
equivalence tests do.

Column layout and ownership
---------------------------

An :class:`~repro.gossip.views.ArrayView` owns exactly two stores:

* ``_cols`` — one preallocated ``(3, alloc)`` ``int64`` block whose rows
  are the node-id, timestamp and wire-size columns.  Slot order
  replicates dict insertion-order semantics exactly: replacement keeps
  the slot, insertion appends, deletion compacts preserving relative
  order — so iteration order, and therefore every downstream RNG draw,
  matches the legacy dict bit for bit.
* ``_pobj`` — the slot-aligned numpy *object* column holding the
  :class:`~repro.gossip.views.ViewEntry` payload references.

The base addresses of both are cached on the view and handed to the
native state kernels as plain integers (the zero-marshaling contract —
see the :mod:`repro._native` module docstring).  Two ownership rules
follow:

* **Addresses are refreshed on reallocation.**  ``ArrayView._allocate``
  is the only place the block moves, and it rebinds the row views and
  the cached addresses together.
* **The payload column holds references.**  ``_pobj`` keeps the
  :class:`~repro.gossip.views.ViewEntry` objects alive; the kernels that
  move them (``state_upsert``, ``state_select``, ``state_trim_drop``)
  do the reference counting.

Packed profile columns (sorted ``uint64`` ids + ``float64`` scores with
the set-op journal) reallocate on every applied mutation batch, so each
version's native descriptor is built once, on first kernel contact.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.gates import env_flag

__all__ = [
    "array_state_enabled",
    "set_array_state",
    "array_state",
]

_array_enabled = env_flag("REPRO_ARRAY_STATE")


def array_state_enabled() -> bool:
    """Whether the array-backed state plane is active."""
    return _array_enabled


def set_array_state(enabled: bool) -> bool:
    """Enable/disable the array state plane; returns the previous setting.

    Prefer the :func:`array_state` context manager outside hot paths — it
    restores the previous setting even when the guarded block raises.
    """
    global _array_enabled
    previous = _array_enabled
    _array_enabled = bool(enabled)
    return previous


@contextmanager
def array_state(enabled: bool):
    """Context manager pinning the array-state gate, restoring on exit.

    The restore-guarded form of :func:`set_array_state`: one failing test
    inside the block cannot leak a state-plane setting into the rest of
    the suite.
    """
    previous = set_array_state(enabled)
    try:
        yield
    finally:
        set_array_state(previous)
