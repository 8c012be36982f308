"""Reuse-distance profiles: score many cache geometries from one pass.

A sweep replays the *same* merged rack PR stream through the Property
Cache once per knob point (capacity, ways, line geometry), even though
the stream never changes.  A :class:`StreamProfile` extracts what the
delayed-insert cache model actually consumes from the stream — the
sorted unique values, each element's first-occurrence position, and the
per-set occupancy under any geometry — once, then scores each knob
point from the profile instead of an independent LRU replay.

Exactness, not approximation
----------------------------

The delayed-insert LRU violates stack inclusion across geometries (a
miss alters the pending-insert schedule), so no classical Mattson
single-pass algorithm applies.  The profile instead exploits two exact
structural facts:

- **Eviction-free geometries.**  If every cache set receives at most
  ``ways`` distinct values over the whole stream, nothing is ever
  evicted and presence is monotone: position ``i`` hits iff
  ``i >= first_pos + max(delay, 1)``.  This is a fully vectorized
  closed form — it covers the "infinite cache" sweep points that
  otherwise allocate millions of empty sets just to never evict.
- **Per-set independence.**  Sets interact only through the eviction
  tick of the ``random`` policy, and evictions can only happen in
  *contended* sets (those receiving more than ``ways`` distinct
  values).  Replaying only the contended sets' subsequence — carrying
  global stream positions so the delayed-insert due times are
  preserved — is therefore bit-identical to the full replay, while the
  untouched majority of elements score through the closed form.

Both paths are pinned against :class:`repro.core.pcache.PropertyCache`
driven by the reference front-end in ``tests/test_reusedist.py``
(seeds x set geometries x ways x capacities x segmented line sizes).

The profile is the scoring kernel behind the batch planner
(:mod:`repro.parallel.batch`): the cluster model's fast path builds
one for a merged rack stream the second time a geometry is asked of
it, and runs :func:`repro.core.pcache_fast.delayed_cache_hits`
verbatim for the first request and for anything the profile cannot
fold (the hit masks are identical either way — the profile only
changes which loop produces them).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.pcache_fast import delayed_cache_hits

__all__ = ["StreamProfile", "build_profile", "profile_stats",
           "reset_profile_stats", "score_many"]

_NEVER = 1 << 62

#: Module counters surfaced as ``perf.batch.*`` telemetry and in the
#: ``batch`` BENCH block.
_STATS = {
    "profiles_built": 0,
    "scores": 0,
    "closed_form": 0,        # scores fully answered by the closed form
    "hybrid": 0,             # contended-subset replays
    "delegated": 0,          # full-replay fallbacks
    "build_seconds": 0.0,
    "score_seconds": 0.0,
}


def profile_stats() -> Dict[str, float]:
    """Snapshot of the profile build/score counters."""
    return dict(_STATS)


def reset_profile_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0.0 if key.endswith("seconds") else 0


class StreamProfile:
    """One stream's reuse structure, reusable across cache geometries.

    Holds the stream itself (for exact fallback), its sorted unique
    values, and each element's first-occurrence position.  Scoring a
    geometry never mutates the profile, so one profile safely serves a
    whole knob grid.
    """

    __slots__ = ("idxs", "size", "uniq", "inverse", "first_pos")

    def __init__(self, idxs: np.ndarray):
        t0 = time.perf_counter()
        self.idxs = np.asarray(idxs)
        self.size = int(self.idxs.size)
        if self.size:
            uniq, first_index, inverse = np.unique(
                self.idxs, return_index=True, return_inverse=True
            )
            self.uniq = uniq
            self.inverse = inverse
            self.first_pos = first_index[inverse]
        else:
            self.uniq = np.zeros(0, dtype=self.idxs.dtype)
            self.inverse = np.zeros(0, dtype=np.int64)
            self.first_pos = np.zeros(0, dtype=np.int64)
        _STATS["profiles_built"] += 1
        _STATS["build_seconds"] += time.perf_counter() - t0

    # -- structure queries --------------------------------------------

    def n_unique(self) -> int:
        return int(self.uniq.size)

    def reuse_distances(self) -> np.ndarray:
        """Position distance to the first occurrence, for every reuse
        (duplicate) element — the profile's telemetry-facing view."""
        pos = np.arange(self.size, dtype=np.int64)
        dup = pos != self.first_pos
        return (pos - self.first_pos)[dup]

    def reuse_histogram(self, bins: Sequence[int] = (1, 16, 256, 4096,
                                                     65536)) -> Dict[str, int]:
        """Reuse-distance counts in log-spaced buckets."""
        dist = self.reuse_distances()
        edges = list(bins)
        out: Dict[str, int] = {}
        lo = 0
        for hi in edges:
            out[f"<{hi}"] = int(((dist >= lo) & (dist < hi)).sum())
            lo = hi
        out[f">={lo}"] = int((dist >= lo).sum())
        return out

    def _set_partition(
        self, n_sets: int, ways: int
    ) -> Tuple[int, np.ndarray]:
        """(max per-set occupancy, per-element contended mask)."""
        uniq_sets = self.uniq % n_sets
        occupied, counts = np.unique(uniq_sets, return_counts=True)
        occ_max = int(counts.max()) if counts.size else 0
        if occ_max <= ways:
            return occ_max, np.zeros(0, dtype=bool)
        contended = occupied[counts > ways]
        elem_mask = np.isin(uniq_sets, contended)[self.inverse]
        return occ_max, elem_mask

    # -- scoring -------------------------------------------------------

    def score(self, n_sets: int, ways: int, delay: int,
              policy: str = "lru") -> np.ndarray:
        """Exact hit mask under one geometry (bit-identical to
        :func:`~repro.core.pcache_fast.delayed_cache_hits`)."""
        t0 = time.perf_counter()
        try:
            _STATS["scores"] += 1
            n_sets = int(n_sets)
            ways = int(ways)
            delay = max(int(delay), 0)
            if self.size == 0 or n_sets <= 0:
                return np.zeros(self.size, dtype=bool)
            occ_max, elem_mask = self._set_partition(n_sets, ways)
            pos = np.arange(self.size, dtype=np.int64)
            if occ_max <= ways:
                # No set can ever evict: presence is monotone from the
                # first occurrence's delayed insert.
                _STATS["closed_form"] += 1
                return (pos - self.first_pos) >= max(delay, 1)
            frac = float(elem_mask.mean())
            if frac >= 0.95:
                # Nearly everything is contended — the subset replay
                # would walk the whole stream anyway; use the pinned
                # kernel directly.
                _STATS["delegated"] += 1
                return delayed_cache_hits(self.idxs, n_sets, ways, delay,
                                          policy=policy)[0]
            _STATS["hybrid"] += 1
            hits = (pos - self.first_pos) >= max(delay, 1)
            hits[elem_mask] = False
            self._replay_contended(hits, elem_mask, n_sets, ways, delay,
                                   policy)
            return hits
        finally:
            _STATS["score_seconds"] += time.perf_counter() - t0

    def _replay_contended(self, hits: np.ndarray, elem_mask: np.ndarray,
                          n_sets: int, ways: int, delay: int,
                          policy: str) -> None:
        """Replay only the contended sets' elements, at their *global*
        stream positions, mirroring ``DelayedCacheReplayer`` exactly.

        Applying a pending insert at the next contended element (rather
        than the next element of any set) is exact: an insert only
        matters to lookups of its own set, and those are all contended
        elements.  Non-contended inserts never evict (their sets never
        exceed ``ways`` distinct values), so even the ``random``
        policy's global eviction tick sees the same sequence.
        """
        gpos = np.flatnonzero(elem_mask).tolist()
        vals = self.idxs[elem_mask].tolist()
        sets: Dict[int, dict] = {}
        lru = policy == "lru"
        rand = policy == "random"
        tick = 0
        pend_v: list = []
        pend_p: list = []
        head = 0
        next_due = _NEVER
        hit_pos: list = []
        push_hit = hit_pos.append

        for i, v in zip(gpos, vals):
            while i >= next_due:
                w = pend_v[head]
                head += 1
                next_due = (
                    pend_p[head] + delay if head < len(pend_p) else _NEVER
                )
                s = sets.get(w % n_sets)
                if s is None:
                    s = sets[w % n_sets] = {}
                if w not in s:
                    if len(s) >= ways:
                        if rand:
                            tick = (tick * 1103515245 + 12345) & 0x7FFFFFFF
                            victim = list(s)[tick % len(s)]
                        else:
                            victim = next(iter(s))
                        del s[victim]
                    s[w] = True
            s = sets.get(v % n_sets)
            if s is None:
                s = sets[v % n_sets] = {}
            if v in s:
                push_hit(i)
                if lru:
                    del s[v]
                    s[v] = True
            else:
                pend_v.append(v)
                pend_p.append(i)
                if next_due == _NEVER:
                    next_due = i + delay
        if hit_pos:
            hits[hit_pos] = True


def build_profile(idxs: np.ndarray) -> StreamProfile:
    """Profile one stream (counted in ``profile_stats``)."""
    return StreamProfile(idxs)


def score_many(
    profile: StreamProfile,
    points: Sequence[Tuple[int, int, int, str]],
) -> List[np.ndarray]:
    """Hit masks for ``[(n_sets, ways, delay, policy), ...]`` — the
    one-profile-many-geometries entry point the planner uses."""
    return [profile.score(*point) for point in points]
