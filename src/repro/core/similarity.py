"""Interest-similarity metrics (paper Section II and Section V-A).

The paper's central algorithmic contribution is an **asymmetric variant of
cosine similarity**:

.. math::

    \\mathrm{Similarity}(n, c) =
        \\frac{sub(P_n, P_c) \\cdot P_c}
             {\\lVert sub(P_n, P_c) \\rVert \\; \\lVert P_c \\rVert}

where :math:`sub(P_n, P_c)` restricts node *n*'s profile to the items that
appear (with any score) in candidate *c*'s profile.  For the binary user
profiles of WHATSUP this reads:

* numerator — the number of items **liked by both** *n* and *c*;
* first denominator factor — the square root of the number of items liked by
  *n* **on which c expressed any opinion** (so a candidate that *dislikes*
  what *n* likes is penalised — spam aversion);
* second factor — the square root of the number of items liked by *c*
  (favouring candidates with small, selective profiles — which is what makes
  cold-starting nodes attractive neighbours, Section II-D).

This module implements that metric, the classical cosine baseline the paper
compares against, and two extra set metrics (Jaccard, overlap) used by our
ablation benchmarks.  It also provides vectorised all-pairs forms used by the
centralized baselines (C-WHATSUP) and the sociability/popularity analyses.

All scalar metrics share the signature ``metric(p_n, p_c) -> float`` where
both arguments are *profile-like*: any object exposing ``scores`` (id→score
mapping), ``liked`` (set of ids with positive score) and ``norm`` (Euclidean
norm).  :class:`repro.core.profiles.Profile` and
:class:`repro.core.profiles.FrozenProfile` both qualify.

Batch scoring
-------------
The simulation's hot path — Vicinity merges and BEEP's dislike orientation —
scores one reference profile against a whole *pool* of candidates.  Doing
that one scalar call at a time dominates run time at paper scale, so this
module also provides:

* :func:`score_candidates` — a vectorised kernel that scores an entire
  candidate pool in one numpy pass (sorted-array intersections via
  ``searchsorted`` + segmented ``bincount`` sums), for all four metrics and
  both orientations of the asymmetric WUP metric.  The kernel accumulates
  partial sums in ascending-identifier order, the same canonical order the
  scalar general path uses, so batch and scalar scores agree **bitwise**;
* :class:`ScoreCache` — a bounded, version-keyed score cache.  Keys are the
  ``uid`` of each :class:`~repro.core.profiles.FrozenProfile` snapshot;
  because snapshots are memoised per profile mutation version, a cache
  entry is exactly a score for one ``(owner id, owner version, candidate
  id, candidate version, metric, orientation)`` tuple and can never serve a
  stale score after either profile changes.

Three-tier dispatch
-------------------
Pool scoring resolves through three tiers, checked in order:

1. **native** — the compiled C kernels of :mod:`repro._native`
   (sorted-array merge walks over the packed snapshots, plus the merge
   trim and argmax selections).  Active only when the extension is built
   *and* ``REPRO_NATIVE`` is not ``0``; absent extensions silently fall
   through, so a checkout without a C toolchain is never worse off.
2. **numpy** — the vectorised pass (``searchsorted`` intersections +
   segmented ``bincount`` sums), engaged past the measured
   :data:`VECTOR_MIN_PAIRS`/:data:`VECTOR_MIN_ENTRIES` crossover.
3. **set-algebra** — one Python call per pool with C-speed set
   intersections per pair (:func:`wup_pool_binary`,
   :func:`wup_pool_vs_item`), the small-pool workhorse.

All three tiers produce **bitwise-identical** scores (integer set counts;
weighted sums accumulated in one canonical ascending-packed-id order; the
same IEEE-754 expression shapes), so the dispatch is invisible to callers.

The batch path can be disabled globally (``REPRO_BATCH_SIM=0`` or
:func:`set_batch_scoring`), which restores the scalar per-pair path — used
by the equivalence benchmarks to prove all paths produce identical
rankings.  Tests and benchmarks should prefer the restore-guarded context
managers (:func:`batch_scoring`, :func:`scoring_disabled`,
:func:`repro._native.native_kernel`) over the raw setters, so a failure
inside a block cannot leak a global into unrelated code.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro._native import kernel as _native
from repro._native import (
    native_available,
    native_kernel,
    native_kernel_enabled,
    set_native_kernel,
)
from repro.core.gates import env_flag
from repro.core.profiles import FrozenProfile, _native_descriptor, pack_id_array
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ProfileLike",
    "wup_similarity",
    "cosine_similarity",
    "jaccard_similarity",
    "overlap_similarity",
    "get_metric",
    "available_metrics",
    "metric_name_of",
    "score_candidates",
    "wup_items_vs_pool",
    "PackedPool",
    "pack_profile",
    "ScoreCache",
    "default_score_cache",
    "batch_scoring_enabled",
    "set_batch_scoring",
    "batch_scoring",
    "scoring_disabled",
    "native_available",
    "native_kernel",
    "native_kernel_enabled",
    "set_native_kernel",
    "pairwise_cosine",
    "pairwise_wup",
    "similarity_matrix",
]


@runtime_checkable
class ProfileLike(Protocol):
    """Structural type accepted by every scalar similarity metric."""

    @property
    def scores(self) -> dict[int, float]: ...  # noqa: E704 - protocol stub

    @property
    def liked(self) -> "frozenset[int] | set[int]": ...  # noqa: E704

    @property
    def norm(self) -> float: ...  # noqa: E704


def _rated_ids(profile: ProfileLike):
    """The identifiers a profile has *any* opinion on (likes and dislikes)."""
    rated = getattr(profile, "rated", None)
    if isinstance(rated, frozenset):
        # FrozenProfile precomputes this; mutable profiles expose a live
        # keys view instead (avoids copying in the hot path).
        return rated
    return profile.scores.keys()


def _is_binary(profile: ProfileLike) -> bool:
    flag = getattr(profile, "is_binary", None)
    return bool(flag)


def _all_binary(profiles) -> bool:
    """Whether every profile in an iterable is flagged binary (fast scan)."""
    try:
        return all(p.is_binary for p in profiles)
    except AttributeError:
        return False


def wup_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """The paper's asymmetric WUP metric, ``Similarity(n, c)``.

    Parameters
    ----------
    p_n:
        The profile of the node *doing the choosing* (the view owner in WUP,
        or the candidate node in BEEP's dislike orientation).
    p_c:
        The candidate profile being scored (a peer's user profile in WUP; an
        item profile in BEEP orientation).

    Returns
    -------
    float
        A value in ``[0, 1]``; ``0`` when either profile is empty or the
        profiles share no liked item.

    Notes
    -----
    The metric is **asymmetric**: ``wup_similarity(a, b)`` generally differs
    from ``wup_similarity(b, a)``.  The paper argues this fits push-style
    dissemination, where users choose the next hops of items but have no
    control over who sends items to them.
    """
    norm_c = p_c.norm
    if norm_c == 0.0:
        return 0.0
    if _is_binary(p_n) and _is_binary(p_c):
        # Binary fast path (user-profile vs user-profile): pure set algebra.
        liked_n = p_n.liked
        if not liked_n:
            return 0.0
        common_liked = len(liked_n & p_c.liked)
        if common_liked == 0:
            return 0.0
        sub_norm2 = len(liked_n & _rated_ids(p_c))
        return common_liked / (math.sqrt(sub_norm2) * norm_c)

    # General path (real-valued scores, e.g. item profiles).  The partial
    # sums accumulate in ascending-identifier order — the canonical order
    # the batch kernel uses — so scalar and batch scores agree bitwise.
    scores_n = p_n.scores
    scores_c = p_c.scores
    if not scores_n or not scores_c:
        return 0.0
    dot = 0.0
    sub_norm2 = 0.0
    for iid in sorted(scores_n.keys() & scores_c.keys()):
        s_n = scores_n[iid]
        dot += s_n * scores_c[iid]
        sub_norm2 += s_n * s_n
    if dot == 0.0 or sub_norm2 == 0.0:
        return 0.0
    return dot / (math.sqrt(sub_norm2) * norm_c)


def cosine_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Classical cosine similarity between two profiles.

    The baseline metric from Tan et al. that the paper compares against
    (CF-Cos, WHATSUP-Cos).  Symmetric; ``0`` when either profile is empty.
    """
    norm_n = p_n.norm
    norm_c = p_c.norm
    if norm_n == 0.0 or norm_c == 0.0:
        return 0.0
    if _is_binary(p_n) and _is_binary(p_c):
        common = len(p_n.liked & p_c.liked)
        if common == 0:
            return 0.0
        return common / (norm_n * norm_c)
    scores_n = p_n.scores
    scores_c = p_c.scores
    dot = 0.0
    for iid in sorted(scores_n.keys() & scores_c.keys()):
        dot += scores_n[iid] * scores_c[iid]
    if dot == 0.0:
        return 0.0
    return dot / (norm_n * norm_c)


def jaccard_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Jaccard index of the two profiles' *liked* sets.

    Not used by WHATSUP itself; included for the metric-ablation benchmark
    (the paper's related work discusses Jaccard as a common CF metric).
    """
    liked_n = p_n.liked
    liked_c = p_c.liked
    if not liked_n or not liked_c:
        return 0.0
    inter = len(liked_n & liked_c)
    if inter == 0:
        return 0.0
    union = len(liked_n) + len(liked_c) - inter
    return inter / union


def overlap_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient of the liked sets."""
    liked_n = p_n.liked
    liked_c = p_c.liked
    if not liked_n or not liked_c:
        return 0.0
    inter = len(liked_n & liked_c)
    if inter == 0:
        return 0.0
    return inter / min(len(liked_n), len(liked_c))


MetricFn = Callable[[ProfileLike, ProfileLike], float]

_METRICS: dict[str, MetricFn] = {
    "wup": wup_similarity,
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
    "overlap": overlap_similarity,
}


def get_metric(name: str) -> MetricFn:
    """Look up a similarity metric by name.

    Parameters
    ----------
    name:
        One of ``"wup"``, ``"cosine"``, ``"jaccard"``, ``"overlap"``
        (case-insensitive).

    Raises
    ------
    ConfigurationError
        If the name is unknown.
    """
    try:
        return _METRICS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown similarity metric {name!r}; "
            f"available: {sorted(_METRICS)}"
        ) from None


def available_metrics() -> list[str]:
    """Names of all registered similarity metrics."""
    return sorted(_METRICS)


_METRIC_NAMES: dict[MetricFn, str] = {fn: name for name, fn in _METRICS.items()}


def metric_name_of(metric: MetricFn | str) -> str | None:
    """The registry name of a metric, or ``None`` for unknown callables.

    Accepts a registered name (validated, case-folded) or a metric function;
    custom callables that are not in the registry map to ``None``, which the
    batch entry points treat as "scalar only".
    """
    if isinstance(metric, str):
        name = metric.lower()
        if name not in _METRICS:
            raise ConfigurationError(
                f"unknown similarity metric {metric!r}; "
                f"available: {available_metrics()}"
            )
        return name
    return _METRIC_NAMES.get(metric)


# ---------------------------------------------------------------------------
# Batch scoring kernel + version-keyed score cache
# ---------------------------------------------------------------------------

_batch_enabled = env_flag("REPRO_BATCH_SIM")


def batch_scoring_enabled() -> bool:
    """Whether the vectorised batch scoring path is active."""
    return _batch_enabled


def set_batch_scoring(enabled: bool) -> bool:
    """Enable/disable the batch path; returns the previous setting.

    The scalar fallback produces identical rankings (and, for the canonical
    summation order, identical scores); the switch exists for equivalence
    benchmarks and debugging.  Prefer the :func:`batch_scoring` context
    manager outside hot paths — it restores the previous setting even when
    the guarded block raises.
    """
    global _batch_enabled
    previous = _batch_enabled
    _batch_enabled = bool(enabled)
    return previous


@contextmanager
def batch_scoring(enabled: bool):
    """Context manager pinning the batch-scoring gate, restoring on exit."""
    previous = set_batch_scoring(enabled)
    try:
        yield
    finally:
        set_batch_scoring(previous)


@contextmanager
def scoring_disabled():
    """Force the scalar per-pair scoring path inside the block.

    Turns off both the batch gate and the native gate and restores the
    previous settings on exit — the restore-guarded way for tests and
    benchmarks to exercise the reference scalar path without poisoning
    module globals for the rest of the process.
    """
    with batch_scoring(False), native_kernel(False):
        yield


class ScoreCache:
    """Bounded version-keyed cache of batch similarity scores.

    Scores are stored in per-owner buckets::

        (owner_uid, metric, orientation) -> {candidate_uid: score}

    where the uids are :attr:`repro.core.profiles.FrozenProfile.uid` values.
    Snapshots are memoised per profile mutation version, so a uid pins one
    ``(profile identity, version)`` pair: any ``set`` / ``remove`` /
    ``purge_older_than`` on either profile yields fresh snapshots with fresh
    uids, and the scores cached for the old pair can never be returned again
    — the eviction the ISSUE's ``(owner_id, owner_version, candidate_id,
    candidate_version)`` key buys, without threading node identities through
    every call site.

    When the cache exceeds *max_entries* the least-recently-used buckets
    are dropped until it is half full (bucket access refreshes recency).
    Long-lived processes running many simulations share the default cache;
    ``clear()`` resets it explicitly between unrelated runs.
    """

    __slots__ = ("max_entries", "hits", "misses", "_buckets", "_size")

    def __init__(self, max_entries: int = 500_000) -> None:
        if max_entries <= 0:
            raise ConfigurationError(
                f"max_entries must be > 0, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._buckets: dict[tuple, dict[int, float]] = {}
        self._size = 0

    def bucket(self, key: tuple) -> dict[int, float]:
        """The (created-on-demand) score bucket for one owner/metric/role.

        Access refreshes the bucket's recency (move-to-end), so eviction
        drops the least-recently-used owners — stale buckets from finished
        simulations age out ahead of live ones in multi-system sweeps.
        """
        buckets = self._buckets
        bucket = buckets.pop(key, None)
        if bucket is None:
            bucket = {}
        buckets[key] = bucket
        return bucket

    def note_inserts(self, n: int) -> None:
        """Account *n* fresh entries; evict LRU buckets when over cap.

        The most-recently-used bucket (the one just written) is never
        evicted, so an overflowing insert cannot throw away its own scores.
        """
        self._size += n
        if self._size <= self.max_entries:
            return
        target = self.max_entries // 2
        newest = next(reversed(self._buckets), None)
        stale = []
        for key, bucket in self._buckets.items():
            if self._size <= target or key == newest:
                break
            self._size -= len(bucket)
            stale.append(key)
        for key in stale:
            del self._buckets[key]

    def clear(self) -> None:
        """Drop every cached score (counters are kept)."""
        self._buckets.clear()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScoreCache(size={self._size}, buckets={len(self._buckets)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DEFAULT_CACHE = ScoreCache()


def default_score_cache() -> ScoreCache:
    """The process-wide shared score cache (used by all protocol instances)."""
    return _DEFAULT_CACHE


#: Adaptive dispatch thresholds for :func:`score_candidates`: the numpy pass
#: carries ~65 µs of fixed per-call overhead, which C-speed set algebra on
#: the paper's window-bounded profiles (tens of entries) only amortises for
#: genuinely large pools.  Measured crossover on pool×profile grids:
#: scalar wins below ~64 pairs / ~4096 total candidate entries.
VECTOR_MIN_PAIRS = 64
VECTOR_MIN_ENTRIES = 4096

#: Cache consultation is itself ~0.3 µs of dict traffic per pair; for tiny
#: owner profiles a fresh score costs about the same, so the cache only
#: engages once the owner profile is big enough for hits to pay.
CACHE_MIN_OWNER_ENTRIES = 16

#: The native tier's crossover: a kernel call carries a few µs of fixed
#: overhead (cffi dispatch, result-array allocation, first-contact packing
#: of fresh snapshots), which the C merge walks only amortise once the
#: pool is a handful of candidates deep.  Below this the set-algebra loops
#: win; the protocols' real pools (RPS views of 30, merge pools of 40-70)
#: sit comfortably above it.
NATIVE_MIN_PAIRS = 8


def _native_pool_code(name: str, role: str, owner_binary: bool) -> int | None:
    """The native kernel's metric/orientation code, or ``None``.

    Mirrors the C ``score_pair`` switch in
    :mod:`repro._native.build_native`: binary fast paths for ``wup`` /
    ``cosine`` (codes 0–2), liked-set metrics for any profiles (3–4), and
    the item-orientation codes for a real-valued owner on the candidate
    side (5–6).  ``None`` means "shape not implemented natively" and sends
    the call to the numpy / set-algebra tiers.
    """
    if name == "wup":
        if role == "n":
            return 0 if owner_binary else None
        return 1 if owner_binary else 5
    if name == "cosine":
        if owner_binary:
            return 2
        return 6 if role == "c" else None
    if name == "jaccard":
        return 3
    if name == "overlap":
        return 4
    return None


class _EphemeralPack:
    """Packed arrays for a *mutable* profile (built per call, not cached).

    Mutable profiles (live :class:`~repro.core.profiles.ItemProfile` copies
    in BEEP's orientation path) have no stable identity to cache under, so
    ``uid`` is ``None`` and the batch kernel skips the cache for them.  The
    norm is taken from the profile's incrementally-maintained value so the
    batch score divides by exactly the same denominator as a scalar call on
    the same live object.
    """

    __slots__ = (
        "liked_ids",
        "rated_ids",
        "rated_scores",
        "norm",
        "is_binary",
        "uid",
        "_nd",
    )

    def __init__(self, profile: ProfileLike) -> None:
        scores = profile.scores
        n = len(scores)
        ids = pack_id_array(scores.keys(), n)
        vals = np.fromiter(scores.values(), dtype=np.float64, count=n)
        order = np.argsort(ids)
        self.rated_ids = ids[order]
        self.rated_scores = vals[order]
        self.liked_ids = self.rated_ids[self.rated_scores > 0.0]
        self.norm = profile.norm
        self.is_binary = bool(getattr(profile, "is_binary", False))
        self.uid = None
        #: native descriptor, filled by the C kernels on first contact
        self._nd: tuple | None = None

    def _pack(self) -> None:
        """Fill the native descriptor (called by the C kernels on demand)."""
        self._nd = _native_descriptor(
            self.liked_ids,
            self.rated_ids,
            self.rated_scores,
            self.norm,
            self.is_binary,
        )


def _pack(profile: ProfileLike):
    """A packed view of *profile* exposing sorted id/score arrays + uid."""
    if isinstance(profile, FrozenProfile):
        return profile
    snapshot = getattr(profile, "snapshot", None)
    if snapshot is not None:
        # user profiles: the memoised snapshot is free and cacheable
        return snapshot()
    packed = getattr(profile, "packed", None)
    if packed is not None:
        # mutable profiles memoise their pack per mutation version (and
        # share it across copy-on-write clones) — see PackedView
        return packed()
    return _EphemeralPack(profile)


def pack_profile(profile: ProfileLike):
    """Public alias of :func:`_pack` (packed view for batch scoring)."""
    return _pack(profile)


def _frozen_or_none(profile: ProfileLike) -> FrozenProfile | None:
    """The memoised snapshot identity of *profile*, if it has one."""
    if isinstance(profile, FrozenProfile):
        return profile
    snapshot = getattr(profile, "snapshot", None)
    if snapshot is not None:
        return snapshot()
    return None


class _Concat:
    """A segment-concatenated family of sorted id arrays (+ optional weights)."""

    __slots__ = ("ids", "weights", "seg", "k")

    def __init__(
        self, arrays: list[np.ndarray], weights: list[np.ndarray] | None
    ) -> None:
        k = len(arrays)
        lens = np.fromiter((a.size for a in arrays), dtype=np.int64, count=k)
        self.k = k
        if int(lens.sum()) == 0:
            self.ids = np.empty(0, dtype=np.uint64)
            self.weights = None if weights is None else np.empty(0, dtype=np.float64)
            self.seg = np.empty(0, dtype=np.int64)
            return
        self.ids = np.concatenate(arrays)
        self.weights = None if weights is None else np.concatenate(weights)
        self.seg = np.repeat(np.arange(k), lens)

    def member_counts(self, haystack: np.ndarray) -> np.ndarray:
        """``|segment_i ∩ haystack|`` per segment, as float64."""
        if self.ids.size == 0 or haystack.size == 0:
            return np.zeros(self.k, dtype=np.float64)
        idx = np.searchsorted(haystack, self.ids)
        idx_c = np.where(idx < haystack.size, idx, 0)
        match = (idx < haystack.size) & (haystack[idx_c] == self.ids)
        return np.bincount(self.seg[match], minlength=self.k).astype(np.float64)


class PackedPool:
    """A candidate pool packed once, scorable against many owners.

    Wraps a fixed list of packed profiles and memoises the concatenated
    liked/rated arrays the vector kernel needs, so the concatenation cost is
    paid once per pool instead of once per scoring call.  BEEP keeps one of
    these per RPS view generation: every disliked item received in a cycle
    is scored against the same packed pool.
    """

    __slots__ = (
        "profiles",
        "k",
        "norms",
        "_liked",
        "_rated",
        "_liked_sizes",
        "_binary",
    )

    def __init__(self, profiles: list) -> None:
        self.profiles = profiles
        self.k = len(profiles)
        self.norms = np.fromiter(
            (p.norm for p in profiles), dtype=np.float64, count=self.k
        )
        self._liked: _Concat | None = None
        self._rated: _Concat | None = None
        self._liked_sizes: np.ndarray | None = None
        self._binary: bool | None = None

    # -- memoised derived state -------------------------------------------

    @property
    def liked(self) -> _Concat:
        if self._liked is None:
            self._liked = _Concat([p.liked_ids for p in self.profiles], None)
        return self._liked

    @property
    def rated(self) -> _Concat:
        if self._rated is None:
            self._rated = _Concat(
                [p.rated_ids for p in self.profiles],
                [p.rated_scores for p in self.profiles],
            )
        return self._rated

    @property
    def liked_sizes(self) -> np.ndarray:
        if self._liked_sizes is None:
            self._liked_sizes = np.fromiter(
                (p.liked_ids.size for p in self.profiles),
                dtype=np.float64,
                count=self.k,
            )
        return self._liked_sizes

    @property
    def all_binary(self) -> bool:
        if self._binary is None:
            self._binary = all(p.is_binary for p in self.profiles)
        return self._binary

    # -- scoring ----------------------------------------------------------

    def score_native(self, owner, name: str, role: str) -> np.ndarray | None:
        """Native-tier scores of this pool, or ``None`` when inapplicable.

        One C call walks the pool's profile objects through their cached
        packed descriptors (see :mod:`repro._native.build_native`) —
        applicability mirrors the shapes the kernels implement: binary
        pools for ``wup``/``cosine`` (with a binary owner in either role,
        or a real-valued owner in the candidate role — BEEP's
        orientation), any pool for the liked-set metrics
        ``jaccard``/``overlap``.  Everything else falls through to the
        numpy tier.  Returns exactly the scalar metrics' bits.
        """
        nk = _native()
        if nk is None:
            return None
        code = _native_pool_code(name, role, bool(owner.is_binary))
        if code is None:
            return None
        return nk.score_profiles(owner, self.profiles, code)

    def score(
        self, owner, name: str, role: str, *, allow_native: bool = True
    ) -> np.ndarray:
        """Scores of this pool against a packed *owner* (native or numpy).

        Dispatches to the native tier first (:meth:`score_native`), then
        the vectorised numpy pass.  Callers that just watched a native
        walk of this very pool fail pass ``allow_native=False`` to skip
        the doomed retry.  Bitwise-equal to the scalar metrics: counts
        are exact integers and the weighted sums accumulate in the scalar
        general path's canonical ascending-id order (``bincount`` adds
        left-to-right and every segment's entries are sorted by id).
        """
        if allow_native:
            native_scores = self.score_native(owner, name, role)
            if native_scores is not None:
                return native_scores
        k = self.k
        out = np.zeros(k, dtype=np.float64)

        if name in ("jaccard", "overlap"):
            inter = self.liked.member_counts(owner.liked_ids)
            own_size = float(owner.liked_ids.size)
            if name == "jaccard":
                denom = own_size + self.liked_sizes - inter
            else:
                denom = np.minimum(own_size, self.liked_sizes)
            np.divide(inter, denom, out=out, where=(inter > 0) & (denom > 0))
            return out

        if owner.is_binary and self.all_binary:
            # pure set algebra — integer counts, exact in float64
            common = self.liked.member_counts(owner.liked_ids)
            if name == "cosine":
                denom = owner.norm * self.norms
            elif role == "n":
                sub = _Concat(
                    [p.rated_ids for p in self.profiles], None
                ).member_counts(owner.liked_ids)
                denom = np.sqrt(sub) * self.norms
            else:
                sub = self.liked.member_counts(owner.rated_ids)
                denom = np.sqrt(sub) * owner.norm
            np.divide(common, denom, out=out, where=(common > 0) & (denom > 0))
            return out

        # general path (real-valued scores): weighted sorted-array intersection
        o_ids = owner.rated_ids
        o_scores = owner.rated_scores
        rated = self.rated
        if rated.ids.size == 0 or o_ids.size == 0:
            return out
        idx = np.searchsorted(o_ids, rated.ids)
        idx_c = np.where(idx < o_ids.size, idx, 0)
        match = (idx < o_ids.size) & (o_ids[idx_c] == rated.ids)
        seg_m = rated.seg[match]
        o_sc = o_scores[idx_c[match]]
        c_sc = rated.weights[match]
        dot = np.bincount(seg_m, weights=c_sc * o_sc, minlength=k)
        if name == "cosine":
            denom = owner.norm * self.norms
            np.divide(dot, denom, out=out, where=(dot != 0.0) & (denom > 0))
            return out
        # wup: sub(P_n, P_c) restricts the *chooser's* profile to common ids
        if role == "n":
            sub2 = np.bincount(seg_m, weights=o_sc * o_sc, minlength=k)
            denom = np.sqrt(sub2) * self.norms
        else:
            sub2 = np.bincount(seg_m, weights=c_sc * c_sc, minlength=k)
            denom = np.sqrt(sub2) * owner.norm
        np.divide(
            dot, denom, out=out, where=(dot != 0.0) & (sub2 > 0) & (denom > 0)
        )
        return out


def _batch_pool_scores(owner, pool: list, name: str, role: str) -> np.ndarray:
    """Score one packed owner against a list of packed profiles (ad hoc)."""
    return PackedPool(pool).score(owner, name, role)


def wup_pool_binary(
    owner: ProfileLike, candidates: Sequence[ProfileLike]
) -> list[float]:
    """WUP scores of one binary owner (chooser ``n``) against a binary pool.

    One Python call per *pool* with hoisted locals — per-pair function-call
    overhead is the dominant cost of merge scoring at the paper's
    window-bounded profile sizes.  Bitwise-equal to ``wup_similarity``'s
    binary fast path.
    """
    out = [0.0] * len(candidates)
    liked_n = owner.liked
    if not liked_n:
        return out
    sqrt = math.sqrt
    for i, c in enumerate(candidates):
        norm_c = c.norm
        if norm_c == 0.0:
            continue
        common = len(liked_n & c.liked)
        if common:
            out[i] = common / (sqrt(len(liked_n & _rated_ids(c))) * norm_c)
    return out


def wup_pool_vs_item(
    candidates: Sequence[ProfileLike], item: ProfileLike
) -> list[float]:
    """WUP scores of binary choosers against one real-valued item profile.

    BEEP's dislike orientation: each candidate is the chooser ``n``, the
    item profile the candidate side ``c``.  Skipping the chooser's
    explicit dislikes (score 0) drops exactly-zero terms from the general
    path's sums, so the result is bitwise-equal to ``wup_similarity``.
    """
    out = [0.0] * len(candidates)
    scores_c = item.scores
    norm_c = item.norm
    if norm_c == 0.0 or not scores_c:
        return out
    keys_c = scores_c.keys()
    sqrt = math.sqrt
    for i, p in enumerate(candidates):
        common = p.liked & keys_c  # = L_n ∩ R_c
        if not common:
            continue
        dot = 0.0
        for iid in sorted(common):
            dot += scores_c[iid]
        if dot != 0.0:
            out[i] = dot / (sqrt(len(common)) * norm_c)
    return out


def wup_items_vs_pool(
    pool: PackedPool, items: Sequence
) -> list[np.ndarray]:
    """WUP scores of a binary chooser pool against *many* item profiles.

    The fused kernel behind BEEP's batched dislike orientation: every
    disliked item a node received this cycle is scored against the same
    packed RPS pool in one pass per item over the pool's concatenated
    liked-id arrays — the per-candidate Python set loop of
    :func:`wup_pool_vs_item` disappears.

    *items* are packed views (:func:`pack_profile` results) of the item
    profiles; the pool must be all-binary.  Returns one ``float64`` array
    per item, aligned with the pool's profiles.

    Bitwise-equal to :func:`wup_pool_vs_item` and to
    :meth:`PackedPool.score` with ``role="c"``: intersection counts are
    exact integers and each candidate's weighted sum accumulates over its
    liked ids in ascending order (``bincount`` adds left-to-right over the
    per-segment sorted arrays) — a chooser's explicit dislikes contribute
    exactly-zero terms in the rated formulation, which cannot change any
    accumulated float.

    This is the *numpy-tier* fused pass: with the native tier active the
    caller (:meth:`~repro.core.beep.BeepForwarder.forward_batch`) skips
    the pre-pass entirely and scores each copy through the fused C argmax
    instead, so no native branch lives here.
    """
    liked = pool.liked
    k = pool.k
    ids = liked.ids
    seg = liked.seg
    n_ids = ids.size
    out = []
    for p in items:
        scores = np.zeros(k, dtype=np.float64)
        o_ids = p.rated_ids
        norm_c = p.norm
        if norm_c != 0.0 and o_ids.size and n_ids:
            idx = np.searchsorted(o_ids, ids)
            idx_c = np.where(idx < o_ids.size, idx, 0)
            match = (idx < o_ids.size) & (o_ids[idx_c] == ids)
            seg_m = seg[match]
            dot = np.bincount(
                seg_m, weights=p.rated_scores[idx_c[match]], minlength=k
            )
            common = np.bincount(seg_m, minlength=k).astype(np.float64)
            denom = np.sqrt(common) * norm_c
            np.divide(
                dot, denom, out=scores, where=(dot != 0.0) & (denom > 0)
            )
        out.append(scores)
    return out


def score_candidates(
    owner: ProfileLike,
    candidates: Sequence[ProfileLike] | Iterable[ProfileLike],
    metric: MetricFn | str = "wup",
    *,
    owner_role: str = "n",
    cache: ScoreCache | None = None,
) -> list[float]:
    """Score a whole candidate pool against one owner profile, vectorised.

    Parameters
    ----------
    owner:
        The reference profile.  With ``owner_role="n"`` (default) it is the
        chooser ``n`` of the asymmetric WUP metric and each candidate is
        scored as ``metric(owner, candidate)`` — the Vicinity merge
        orientation.  With ``owner_role="c"`` the owner is the candidate
        side and the pool members are the choosers: ``metric(candidate,
        owner)`` — BEEP's dislike orientation, where many peer profiles are
        ranked against one item profile.
    candidates:
        The pool.  Frozen snapshots are scored from their memoised packed
        arrays; mutable profiles are packed on the fly.
    metric:
        Registered metric name or function.  Unregistered callables fall
        back to per-pair scalar calls (no vectorisation, no caching).
    cache:
        Optional :class:`ScoreCache`.  Pairs whose owner *and* candidate are
        frozen snapshots are looked up / stored under their uids; only the
        misses are scored, in a single vectorised pass.

    Returns
    -------
    list[float]
        Scores aligned with *candidates*, bitwise-equal to the scalar
        metric applied pairwise.

    Notes
    -----
    The kernel dispatches through three tiers (native → numpy →
    set-algebra).  With the native tier active, pools past
    :data:`NATIVE_MIN_PAIRS` go straight to the compiled kernels — one C
    call per pool over the packed arrays — and the score cache is
    bypassed: a native rescore is cheaper than the per-pair dict traffic
    a cache consultation costs (and produces the very same bits, so
    skipping the cache is unobservable).  Otherwise cache hits are served
    without any scoring and the remaining misses go through the
    vectorised numpy pass only when the pending work is large enough to
    amortise its fixed per-call overhead (measured crossover:
    ≳ :data:`VECTOR_MIN_PAIRS` pairs *and* ≳ :data:`VECTOR_MIN_ENTRIES`
    profile entries), and through the scalar metrics otherwise.  All
    tiers give the same bits — the scalar general path accumulates in
    the kernels' canonical ascending-id order — so the dispatch is
    invisible to callers.
    """
    if owner_role not in ("n", "c"):
        raise ConfigurationError(
            f"owner_role must be 'n' or 'c', got {owner_role!r}"
        )
    cands = candidates if isinstance(candidates, list) else list(candidates)
    k = len(cands)
    if k == 0:
        return []
    name = metric_name_of(metric)
    if name is None:
        fn = metric
        if owner_role == "n":
            return [fn(owner, c) for c in cands]
        return [fn(c, owner) for c in cands]

    # the native tier goes first and serves the whole pool in one C call
    # (bypassing the cache: a native rescore is cheaper than per-pair
    # dict traffic, and produces the same bits).  Shapes the kernels
    # cannot serve — unmapped (metric, role, owner-shape) combinations or
    # pools with an unresolvable member — fall through to the Python
    # tiers *with* their score cache intact.
    nk = _native()
    if nk is not None and k >= NATIVE_MIN_PAIRS:
        code = _native_pool_code(name, owner_role, _is_binary(owner))
        if code is not None:
            native_scores = nk.score_profiles(owner, cands, code)
            if native_scores is not None:
                return native_scores.tolist()
    bucket = None
    if cache is not None and len(owner.scores) >= CACHE_MIN_OWNER_ENTRIES:
        owner_f = _frozen_or_none(owner)
    else:
        owner_f = None
    out = [0.0] * k
    if owner_f is not None:
        bucket = cache.bucket((owner_f.uid, name, owner_role))
        bget = bucket.get
        to_score = []
        append = to_score.append
        for i, c in enumerate(cands):
            cached = (
                bget(c.uid) if isinstance(c, FrozenProfile) else None
            )
            if cached is None:
                append(i)
            else:
                out[i] = cached
        cache.hits += k - len(to_score)
        cache.misses += len(to_score)
    else:
        to_score = range(k)

    if not to_score:
        return out

    n_pairs = len(to_score)
    sub = cands if n_pairs == k else [cands[i] for i in to_score]
    if n_pairs >= VECTOR_MIN_PAIRS and (
        sum(len(c.scores) for c in sub) >= VECTOR_MIN_ENTRIES
    ):
        owner_p = _pack(owner)
        scores = [
            float(s)
            for s in _batch_pool_scores(
                owner_p, [_pack(c) for c in sub], name, owner_role
            )
        ]
    elif (
        name == "wup"
        and owner_role == "n"
        and _is_binary(owner)
        and _all_binary(sub)
    ):
        scores = wup_pool_binary(owner, sub)
    elif (
        name == "wup"
        and owner_role == "c"
        and not _is_binary(owner)
        and _all_binary(sub)
    ):
        scores = wup_pool_vs_item(sub, owner)
    else:
        fn = _METRICS[name]
        if owner_role == "n":
            scores = [fn(owner, c) for c in sub]
        else:
            scores = [fn(c, owner) for c in sub]

    if bucket is None:
        for i, s in zip(to_score, scores, strict=True):
            out[i] = s
    else:
        fresh = 0
        for i, s in zip(to_score, scores, strict=True):
            out[i] = s
            c = cands[i]
            if isinstance(c, FrozenProfile) and c.uid not in bucket:
                bucket[c.uid] = s
                fresh += 1
        cache.note_inserts(fresh)
    return out


# ---------------------------------------------------------------------------
# Vectorised all-pairs forms (centralized baselines & analyses)
# ---------------------------------------------------------------------------


def pairwise_cosine(likes: np.ndarray) -> np.ndarray:
    """All-pairs binary cosine similarity.

    Parameters
    ----------
    likes:
        Boolean array of shape ``(n_users, n_items)``; ``likes[u, i]`` is
        true when user *u* likes item *i*.

    Returns
    -------
    numpy.ndarray
        Dense ``(n_users, n_users)`` matrix with
        ``S[a, b] = |L_a ∩ L_b| / sqrt(|L_a| |L_b|)`` and zero rows/columns
        for users with empty profiles.  The diagonal is *not* zeroed.
    """
    mat = np.asarray(likes, dtype=np.float64)
    common = mat @ mat.T
    counts = mat.sum(axis=1)
    denom = np.sqrt(np.outer(counts, counts))
    out = np.zeros_like(common)
    np.divide(common, denom, out=out, where=denom > 0)
    return out


def pairwise_wup(likes: np.ndarray, rated: np.ndarray) -> np.ndarray:
    """All-pairs binary WUP similarity.

    Parameters
    ----------
    likes:
        Boolean ``(n_users, n_items)`` like matrix.
    rated:
        Boolean ``(n_users, n_items)`` rated matrix (likes *and* dislikes).
        Must be a superset of *likes* element-wise.

    Returns
    -------
    numpy.ndarray
        ``S[n, c] = |L_n ∩ L_c| / (sqrt(|L_n ∩ R_c|) · sqrt(|L_c|))`` — the
        matrix form of :func:`wup_similarity` for binary profiles.  Rows are
        the "chooser" *n*, columns the candidate *c*.
    """
    lmat = np.asarray(likes, dtype=np.float64)
    rmat = np.asarray(rated, dtype=np.float64)
    if lmat.shape != rmat.shape:
        raise ConfigurationError(
            f"likes shape {lmat.shape} != rated shape {rmat.shape}"
        )
    common_likes = lmat @ lmat.T  # |L_n ∩ L_c|
    liked_rated = lmat @ rmat.T  # |L_n ∩ R_c|  (row n, column c)
    liked_counts = lmat.sum(axis=1)  # |L_c| per candidate column
    denom = np.sqrt(liked_rated) * np.sqrt(liked_counts)[None, :]
    out = np.zeros_like(common_likes)
    np.divide(common_likes, denom, out=out, where=denom > 0)
    return out


def similarity_matrix(
    likes: np.ndarray,
    rated: np.ndarray,
    metric: str = "wup",
) -> np.ndarray:
    """All-pairs similarity by metric name (vectorised where possible).

    ``"wup"`` and ``"cosine"`` use the dense matrix forms above; the set
    metrics fall back to a vectorised formulation over the like matrix.
    """
    name = metric.lower()
    if name == "wup":
        return pairwise_wup(likes, rated)
    if name == "cosine":
        return pairwise_cosine(likes)
    lmat = np.asarray(likes, dtype=np.float64)
    inter = lmat @ lmat.T
    counts = lmat.sum(axis=1)
    if name == "jaccard":
        union = counts[:, None] + counts[None, :] - inter
        out = np.zeros_like(inter)
        np.divide(inter, union, out=out, where=union > 0)
        return out
    if name == "overlap":
        mins = np.minimum(counts[:, None], counts[None, :])
        out = np.zeros_like(inter)
        np.divide(inter, mins, out=out, where=mins > 0)
        return out
    raise ConfigurationError(
        f"unknown similarity metric {metric!r}; available: {available_metrics()}"
    )
