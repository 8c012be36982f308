"""The NetSparse cluster model: exact trace semantics + rate-limit timing.

For one kernel iteration on an N-node cluster this model:

1. 1D-partitions the matrix and builds every node's idx scan trace.
2. Applies RIG batching + Idx-Filter/Pending-Table semantics exactly
   (:func:`repro.core.filtering.filter_and_coalesce`) to decide which
   remote idxs become wire PRs.
3. Concatenates PR streams with the window model
   (:func:`repro.core.concat.window_concat`) at the NIC and again at
   the ToR switch (cross-node), producing per-flow wire bytes.
4. Runs each rack's merged PR stream through an exact LRU Property
   Cache with delayed insertion (a missing property only becomes
   cacheable after its response returns).
5. Derives time from the interacting rate limits: RIG command
   dispatch/pipelining, concatenation-SRAM occupancy, host injection
   and ejection ports, and fabric link drains — the same
   throughput-bound idealization the paper applies to its baselines —
   plus a zero-load RTT term.

Scale note: window and in-flight parameters are expressed as fractions
of the per-node stream so the behaviour is invariant under the matrix
downscaling documented in DESIGN.md.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.config import NetSparseConfig
from repro.core import kernels, reusedist
from repro.core.concat import ConcatStats, window_concat, window_concat_totals
from repro.core.filtering import filter_and_coalesce, first_occurrence_positions
from repro.core.pcache import PropertyCache, n_sets_for
from repro.core.pcache_fast import delayed_cache_hits
from repro.core.rig import rig_generation_time
from repro.results import CommResult
from repro.network.topology import Dragonfly, HyperX, LeafSpine, Topology
from repro.partition import OneDPartition, cached_partition

__all__ = [
    "batch_stats",
    "build_cluster_topology",
    "reset_batch_state",
    "simulate_netsparse",
    "NetSparseKnobs",
]


# -- logical stage memos -----------------------------------------------
#
# Sweep evaluation is single-pass: every stage output that is a pure
# function of *logical* inputs (which partition, which per-node clamped
# batch size, which cache geometry) is memoized under that logical key,
# so the planner's fused groups — and sequential probe loops like the
# autotune ladder — stop replaying identical stages.  Keys never hash
# array content: object identity tokens stand in for the heavyweight
# inputs (matrix, partition, topology, config), which the
# suite/trace/topology caches already share across a sweep.
# Everything here is bit-exact: a memo hit returns the same arrays (or
# a pickled copy) the miss path computed.

_MEMO_LOCK = threading.RLock()
_MISS = object()


class _BoundedMemo:
    """FIFO-bounded memo with approximate byte accounting."""

    def __init__(self, budget_bytes: int):
        self.budget = int(budget_bytes)
        self.data: "OrderedDict" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with _MEMO_LOCK:
            entry = self.data.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
                return None
            self.hits += 1
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        nbytes = max(int(nbytes), 1)
        if nbytes > self.budget:
            return
        with _MEMO_LOCK:
            if key in self.data:
                return
            while self.bytes + nbytes > self.budget and self.data:
                _, (_, old_bytes) = self.data.popitem(last=False)
                self.bytes -= old_bytes
            self.data[key] = (value, nbytes)
            self.bytes += nbytes

    def clear(self) -> None:
        with _MEMO_LOCK:
            self.data.clear()
            self.bytes = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        return {"entries": len(self.data), "bytes": self.bytes,
                "hits": self.hits, "misses": self.misses}


#: Byte budget shared out among the stage memos below.
_MEMO_BUDGET = 256 << 20

_B = _MEMO_BUDGET // 8
_ANCHORS = _BoundedMemo(_B)       # (part, node) -> first-occurrence anchor
_MASKS = _BoundedMemo(_B)         # + clamped batch -> issued node stream
_NIC_CONCAT = _BoundedMemo(_B // 4)   # + window -> (bytes, packets)
_MERGES = _BoundedMemo(2 * _B)    # rack merge of member streams
_PROFILES = _BoundedMemo(2 * _B)  # reuse-distance profile per merge
_HITS = _BoundedMemo(_B)          # + geometry -> cache hit mask
_SIMS = _BoundedMemo(_B // 2)     # whole-simulation result templates
_RIGGEN = _BoundedMemo(_B // 8)   # scalar rig makespan per (nnz, params)
_ALL_MEMOS = {
    "anchors": _ANCHORS, "masks": _MASKS,
    "nic_concat": _NIC_CONCAT, "merges": _MERGES, "profiles": _PROFILES,
    "hits": _HITS, "sims": _SIMS, "riggen": _RIGGEN,
}

#: Deleted memos that ``BENCHMARK.json`` still declares a
#: ``cluster.memo.<name>.hit_ratio`` metric for: :func:`batch_stats`
#: reports them empty so the traced benchmark run finds every metric.
_RETIRED_MEMOS = ("fbase",)

#: merge_key -> how many distinct-geometry hit masks were requested for
#: that stream.  A profile is only built on the second request: a
#: geometry *sweep* amortizes the unique-sort, while a single-geometry
#: workload (e.g. the autotune ladder, where every probe's stream is
#: new) goes straight to the pinned replay kernel with zero overhead.
_PROFILE_REQS: Dict[tuple, int] = {}

_token_counter = itertools.count(1)
_token_by_id: Dict[int, tuple] = {}


def _obj_token(obj) -> Optional[int]:
    """A stable int identity for a live object (``None`` if it cannot
    be weak-referenced).  Tokens die with the object, so a recycled
    ``id()`` can never resurrect a stale memo entry."""
    key = id(obj)
    with _MEMO_LOCK:
        entry = _token_by_id.get(key)
        if entry is not None and entry[1]() is obj:
            return entry[0]
        try:
            ref = weakref.ref(
                obj, lambda _r, key=key: _token_by_id.pop(key, None)
            )
        except TypeError:
            return None
        token = next(_token_counter)
        _token_by_id[key] = (token, ref)
        return token


def reset_batch_state() -> None:
    """Drop every stage memo (tests and cold-run benchmarks)."""
    for memo in _ALL_MEMOS.values():
        memo.clear()
    with _MEMO_LOCK:
        _PROFILE_REQS.clear()
    reusedist.reset_profile_stats()


def batch_stats() -> dict:
    """Memo + profile counters for telemetry and the bench block."""
    out = {name: memo.stats() for name, memo in _ALL_MEMOS.items()}
    for name in _RETIRED_MEMOS:
        out[name] = {"entries": 0, "bytes": 0, "hits": 0, "misses": 0}
    out["profile"] = reusedist.profile_stats()
    return out


def build_cluster_topology(config: NetSparseConfig) -> Topology:
    """The Table 5 / §9.6 cluster fabrics by name."""
    if config.topology == "leafspine":
        return LeafSpine(
            n_racks=config.n_racks,
            nodes_per_rack=config.nodes_per_rack,
            n_spines=8,
            link_bandwidth=config.link_bandwidth,
        )
    if config.topology == "hyperx":
        return HyperX(shape=(4, 4, 2), hosts_per_switch=4, width=4,
                      link_bandwidth=config.link_bandwidth)
    if config.topology == "dragonfly":
        return Dragonfly(n_groups=4, switches_per_group=8, hosts_per_switch=4,
                         global_link_count=4,
                         link_bandwidth=config.link_bandwidth)
    raise ValueError(f"unknown topology {config.topology!r}")


@dataclass(frozen=True)
class NetSparseKnobs:
    """Scale-invariant model knobs (fractions of per-node streams).

    ``inflight_frac`` — how far (as a fraction of a node's remote-idx
    stream) a PR stays outstanding before its response lands; governs
    filtering vs coalescing.  ``cache_inflight_frac`` — the same for
    the switch cache's delayed inserts.
    """

    inflight_frac: float = 0.03
    cache_inflight_frac: float = 0.03


class DelayedInsertCache:
    """Property Cache front-end with in-flight response modelling.

    A read that misses triggers an insert only ``delay`` stream
    positions later (its response's return).  Duplicate in-flight
    misses both travel (the switch has no MSHR-style coalescing).

    This is the *reference* backend for the cache stage; the default
    fast path is :func:`repro.core.pcache_fast.property_cache_hits`,
    golden-tested to reproduce this class bit-for-bit.
    """

    def __init__(self, cache: PropertyCache, delay: int):
        self.cache = cache
        self.delay = max(int(delay), 0)
        self._pending: deque = deque()

    def process(self, idxs: np.ndarray) -> np.ndarray:
        hits = np.zeros(idxs.size, dtype=bool)
        pending = self._pending
        cache = self.cache
        for i, idx in enumerate(idxs.tolist()):
            while pending and pending[0][0] <= i:
                cache.insert(pending.popleft()[1])
            if cache.lookup(idx):
                hits[i] = True
            else:
                pending.append((i + self.delay, idx))
        while pending:
            cache.insert(pending.popleft()[1])
        return hits


def _merge_rack_streams(
    per_node: List[Tuple[np.ndarray, ...]], nodes: List[int]
) -> Dict[str, np.ndarray]:
    """Interleave node streams by per-node position (concurrent scan)."""
    srcs, poss, idxs, owners = [], [], [], []
    for node, (pos, idx, owner) in zip(nodes, per_node):
        srcs.append(np.full(pos.size, node, dtype=np.int64))
        poss.append(pos)
        idxs.append(idx)
        owners.append(owner)
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    pos = np.concatenate(poss) if poss else np.zeros(0, dtype=np.int64)
    idx = np.concatenate(idxs) if idxs else np.zeros(0, dtype=np.int64)
    owner = np.concatenate(owners) if owners else np.zeros(0, dtype=np.int64)
    order = np.lexsort((src, pos))
    return {"src": src[order], "pos": pos[order],
            "idx": idx[order], "owner": owner[order]}


def _rack_cache_hits(
    rack_streams: List[np.ndarray],
    config: NetSparseConfig,
    pcache_bytes: int,
    payload: int,
    knobs: "NetSparseKnobs",
) -> List[np.ndarray]:
    """Hit masks for every rack's merged PR stream, by the reference
    front-end: a :class:`PropertyCache` per rack driven element by
    element through :class:`DelayedInsertCache`.

    This is the executable spec of the cache stage
    (``REPRO_KERNELS=reference``); the fast path scores the same
    streams with reuse profiles or the fused replay kernel, golden-
    tested to return identical bits.
    """
    out = []
    for m_idx in rack_streams:
        if m_idx.size == 0:
            out.append(np.zeros(0, dtype=bool))
            continue
        delay = max(int(knobs.cache_inflight_frac * m_idx.size), 1)
        pcache = PropertyCache(
            capacity_bytes=pcache_bytes,
            ways=config.pcache_ways,
            n_segments=config.pcache_segments,
            segment_bytes=config.pcache_min_line,
        )
        pcache.configure(max(payload, 1))
        out.append(DelayedInsertCache(pcache, delay).process(m_idx))
    return out


def _concat_stage_bytes(
    dests: np.ndarray,
    payload: int,
    config: NetSparseConfig,
    window_prs: int,
) -> Tuple[Dict[int, int], ConcatStats]:
    """Per-destination wire bytes after one concatenation stage."""
    maxp = config.max_prs_per_packet(payload)
    stats = window_concat(dests, max_prs_per_packet=maxp, window_prs=window_prs)
    byte_map = stats.wire_bytes_per_dest(
        pr_payload=payload,
        header_upper=config.header_upper,
        header_concat=config.header_concat,
        header_concat_solo=config.header_concat_solo,
        header_pr=config.header_pr,
    )
    return byte_map, stats


def _concat_stage_totals(
    dests: np.ndarray,
    payload: int,
    config: NetSparseConfig,
    window_prs: int,
) -> Tuple[int, int]:
    """``(wire bytes, packets)`` of one concatenation stage — the lean
    form for consumers that never look at individual destinations
    (integer-exact; see
    :func:`repro.core.concat.window_concat_totals`).  The reference
    kernels sum the full per-destination accounting instead."""
    if not kernels.is_fast():
        byte_map, stats = _concat_stage_bytes(dests, payload, config,
                                              window_prs)
        return sum(byte_map.values()), stats.n_packets
    maxp = config.max_prs_per_packet(payload)
    return window_concat_totals(
        dests, maxp, window_prs, payload,
        header_upper=config.header_upper,
        header_concat=config.header_concat,
        header_concat_solo=config.header_concat_solo,
        header_pr=config.header_pr,
    )


def _pr_rate(config: NetSparseConfig, payload: int, issue_frac: float) -> float:
    """Aggregate PR rate through one node's concatenation point."""
    scan = config.n_client_units * config.snic_freq * max(issue_frac, 1e-3)
    resp_drain = config.link_bandwidth / (config.header_pr + payload)
    return min(scan, resp_drain)


def _concat_windows(
    config: NetSparseConfig, payload: int, issue_frac: float
) -> Tuple[int, int]:
    """(NIC, switch) window sizes in PRs for the delay-queue model."""
    rate = _pr_rate(config, payload, issue_frac)
    nic_delay = config.concat_delay_cycles_nic / config.snic_freq
    sw_delay = config.concat_delay_cycles_switch / config.switch_freq
    w_nic = max(int(nic_delay * rate), 1)
    # The switch sees the merged streams of the whole rack.
    w_sw = max(int(sw_delay * rate * config.nodes_per_rack), 1)
    return w_nic, w_sw


def _concat_sram_rate_cap(
    config: NetSparseConfig, payload: int
) -> float:
    """PRs/s one concatenation point can hold without exhausting its
    SRAM while PRs wait out the delay (the Figure 17 falloff)."""
    delay_s = config.concat_delay_cycles_nic / config.snic_freq
    if delay_s <= 0:
        return float("inf")
    per_pr = config.header_pr + payload
    return config.concat_sram_bytes / (delay_s * per_pr)


def simulate_netsparse(
    matrix,
    k: int,
    config: Optional[NetSparseConfig] = None,
    topology: Optional[Topology] = None,
    rig_batch: Optional[int] = None,
    scale: float = 1.0,
    knobs: NetSparseKnobs = NetSparseKnobs(),
    partition: Optional[OneDPartition] = None,
) -> CommResult:
    """Simulate one iteration's communication under NetSparse.

    ``rig_batch`` is in *paper-scale* nonzeros (the 8k/32k of §8.2);
    ``scale`` is this matrix's nnz over the paper matrix's nnz (see
    DESIGN.md).  Scale multiplies the quantities tied to absolute
    matrix size — the batch, the per-command host overhead, and the
    Property Cache capacity — so hit rates, batching tradeoffs and
    speedup ratios survive the downscaling.  Scale-free quantities
    (delay windows, link rates, headers) stay physical.

    ``partition`` overrides the default equal-rows 1D partition (e.g.
    :func:`repro.partition.balanced_by_nnz`).
    """
    config = config or NetSparseConfig()
    topo = topology or build_cluster_topology(config)
    n = config.n_nodes
    feats = config.features
    payload = config.property_bytes(k)
    part = partition or cached_partition(matrix, n)
    if part.n_nodes != n:
        raise ValueError("partition node count must match the config")
    if not 0.0 < scale:
        raise ValueError("scale must be positive")
    if rig_batch is None:
        rig_batch = config.rig_batch_nonzeros
    rig_batch = max(int(rig_batch * scale), 1)
    cmd_overhead = config.rig_cmd_overhead * scale
    pcache_bytes = int(config.pcache_bytes * scale)

    # Identity tokens key the logical memos.  The whole-simulation
    # memos are skipped while telemetry is enabled so `netsparse
    # profile` always sees every stage span/counter.
    pt = _obj_token(part)
    tt = _obj_token(topo)
    if pt is None or tt is None:
        raise TypeError("partition and topology must support weak "
                        "references (they key the stage memos)")
    sim_key = tmpl_base = tmpl_key = None
    if not telemetry.enabled():
        mt = _obj_token(matrix)
        ct = _obj_token(config)
        if mt is not None and ct is not None:
            sim_key = ("sim", mt, pt, tt, ct, knobs, k, rig_batch,
                       repr(float(scale)))
            blob = _SIMS.get(sim_key)
            if blob is not None:
                return pickle.loads(blob)
            # Template key: ``rig_batch`` is deliberately absent.  Two
            # probes whose *clamped per-node* batches (bkeys, appended
            # after stage 1) coincide share all traffic stages; only
            # the PR-generation makespan sees the raw batch, and that
            # is overlaid per probe.
            tmpl_base = ("sim2", mt, pt, tt, ct, knobs, k,
                         repr(float(scale)))
    traces = part.node_traces()

    # ---- stage 1: per-node filtering/coalescing ----------------------
    node_streams = []            # (pos, idx, owner) of issued PRs per node
    bkeys: List[Optional[int]] = []  # canonical per-node batch (memo key)
    pr_gen_time = np.zeros(n)
    useful_payload = np.zeros(n)
    n_candidates = n_issued = n_filtered = n_coalesced = 0
    with telemetry.span("cluster.stage.filter", matrix=matrix.name, k=k):
        for node, tr in enumerate(traces):
            remote_idx = tr.remote_idxs
            remote_owner = tr.remote_owners
            remote_pos = tr.remote_pos
            useful_payload[node] = tr.unique_remote_count() * payload
            n_candidates += remote_idx.size
            if feats.rig_offload and remote_idx.size:
                remote_frac = remote_idx.size / max(tr.n_nonzeros, 1)
                batch_remote = max(int(rig_batch * remote_frac), 1)
                window = max(int(knobs.inflight_frac * remote_idx.size), 1)
                # Batches >= the stream put every idx in unit 0, so the
                # clamped value is this node's canonical batch identity.
                bkey = min(batch_remote, int(remote_idx.size))
                mask_key = ("mask", pt, node, config.n_client_units,
                            feats.filtering, feats.coalescing,
                            knobs.inflight_frac, bkey)
                cached = _MASKS.get(mask_key)
                if cached is None:
                    # The filter anchor is the only sort in the filter
                    # and depends on the stream alone, so every batch,
                    # window and feature point of a sweep shares it.
                    anchor_key = ("fp", pt, node)
                    fp = _ANCHORS.get(anchor_key)
                    if fp is None:
                        fp = first_occurrence_positions(remote_idx)
                        _ANCHORS.put(anchor_key, fp, fp.nbytes)
                    fr = filter_and_coalesce(
                        remote_idx,
                        n_units=config.n_client_units,
                        batch_size=batch_remote,
                        inflight_window=window,
                        enable_filtering=feats.filtering,
                        enable_coalescing=feats.coalescing,
                        first_pos=fp,
                    )
                    mask = fr.issued_mask
                    cached = (
                        remote_pos[mask], remote_idx[mask],
                        remote_owner[mask], fr.n_filtered, fr.n_coalesced,
                        fr.n_issued,
                    )
                    _MASKS.put(mask_key, cached,
                               sum(a.nbytes for a in cached[:3]) + 24)
                stream = cached[:3]
                n_filtered += cached[3]
                n_coalesced += cached[4]
                n_issued += cached[5]
            else:
                bkey = None
                stream = (remote_pos.copy(), remote_idx.copy(),
                          remote_owner.copy())
                n_issued += int(remote_idx.size)
            bkeys.append(bkey)
            node_streams.append(stream)
            # The rig makespan is a pure scalar function of these five
            # numbers — nodes with equal nonzero counts (and every
            # sweep point that leaves the batch alone) share one
            # evaluation of the max-plus scan.
            rg_key = ("rg", tr.n_nonzeros, config.n_client_units,
                      rig_batch, repr(config.snic_freq),
                      repr(cmd_overhead))
            rg = _RIGGEN.get(rg_key)
            if rg is None:
                rg = rig_generation_time(
                    tr.n_nonzeros,
                    config.n_client_units,
                    rig_batch,
                    freq=config.snic_freq,
                    cmd_overhead=cmd_overhead,
                )
                _RIGGEN.put(rg_key, rg, 64)
            pr_gen_time[node] = rg
            # Windowed (sharded) traces drop their materialized windows
            # once their selections are copied out, keeping the resident
            # set bounded by one node's trace.
            release = getattr(tr, "release", None)
            if release is not None:
                release()
    telemetry.count("cluster.filter.candidates", n_candidates,
                    matrix=matrix.name)
    telemetry.count("cluster.filter.drops", n_filtered, matrix=matrix.name)
    telemetry.count("cluster.filter.coalesced", n_coalesced,
                    matrix=matrix.name)
    telemetry.count("cluster.filter.issued", n_issued, matrix=matrix.name)

    if tmpl_base is not None:
        tmpl_key = tmpl_base + (tuple(bkeys),)
        blob = _SIMS.get(tmpl_key)
        if blob is not None:
            # Identical traffic under a different raw batch: overlay
            # the freshly computed PR-generation makespan on the
            # template and rebuild the stage-4 maxima with the exact
            # expressions of the timing stage.
            result = pickle.loads(blob)
            st = result.extras["stage_times"]
            per_node_time = np.maximum.reduce(
                [pr_gen_time, st["up"], st["down"], st["pcie"],
                 st["server"], st["concat"]]
            )
            fabric_time = result.extras["fabric_time"]
            if feats.concat_nic:
                drain = config.concat_delay_cycles_nic / config.snic_freq
            else:
                drain = 0.0
            rtt = topo.rtt(0, n - 1) * scale
            result.pr_gen_time = pr_gen_time
            st["pr_gen"] = pr_gen_time
            result.per_node_time = per_node_time
            result.total_time = (
                max(float(per_node_time.max()), fabric_time)
                + rtt + drain * scale
            )
            result.extras["rig_batch"] = rig_batch
            return result

    issue_frac = n_issued / max(n_candidates, 1)
    w_nic, w_sw = _concat_windows(config, payload, issue_frac)
    if not feats.concat_nic:
        w_nic = 1
    read_window_sw = w_sw if feats.concat_switch else 1

    # ---- stage 2: per-rack cache + read traffic -----------------------
    rack_of = np.array([topo.rack_of(i) for i in range(n)])
    racks: Dict[int, List[int]] = {}
    for node in range(n):
        racks.setdefault(int(rack_of[node]), []).append(node)

    up_bytes = np.zeros(n)
    down_bytes = np.zeros(n)
    fabric_loads = np.zeros(topo.n_links)
    link_bw = np.array([ln.bandwidth for ln in topo.links])
    n_packets_total = 0
    cache_lookups = cache_hits = 0
    miss_records = []            # surviving reads, to be served by owners

    def _route_fabric(src: int, dst: int, nbytes: float) -> None:
        for lid in topo.route(src, dst)[1:-1]:
            fabric_loads[lid] += nbytes

    with telemetry.span("cluster.stage.cache", matrix=matrix.name, k=k):
        rack_list = sorted(racks.items())
        merge_keys = []
        merged_list = []
        for rack, members in rack_list:
            merge_key = ("merge", pt, tt, rack, config.n_client_units,
                         feats.rig_offload, feats.filtering,
                         feats.coalescing, knobs.inflight_frac,
                         tuple(bkeys[m] for m in members))
            merged = _MERGES.get(merge_key)
            if merged is None:
                merged = _merge_rack_streams(
                    [node_streams[m] for m in members], members
                )
                _MERGES.put(merge_key, merged,
                            sum(a.nbytes for a in merged.values()))
            merge_keys.append(merge_key)
            merged_list.append(merged)
        # Property Cache at the ToR middle pipes.  Each merged stream's
        # reuse-distance profile scores the geometry (bit-identical to
        # a replay; golden-tested), and both the profile and the scored
        # hit mask are memoized so a knob sweep replays nothing.
        if feats.property_cache:
            if kernels.is_fast():
                n_sets = n_sets_for(
                    pcache_bytes, config.pcache_ways, max(payload, 1),
                    config.pcache_segments, config.pcache_min_line,
                )
                rack_hits = []
                for merge_key, merged in zip(merge_keys, merged_list):
                    m_idx = merged["idx"]
                    if m_idx.size == 0:
                        rack_hits.append(np.zeros(0, dtype=bool))
                        continue
                    delay = max(
                        int(knobs.cache_inflight_frac * m_idx.size), 1
                    )
                    hits_key = ("hits", merge_key, n_sets,
                                config.pcache_ways, delay)
                    hits = _HITS.get(hits_key)
                    if hits is None:
                        prof = _PROFILES.get(merge_key)
                        if prof is None:
                            with _MEMO_LOCK:
                                reqs = _PROFILE_REQS.get(merge_key, 0) + 1
                                _PROFILE_REQS[merge_key] = reqs
                            if reqs >= 2:
                                prof = reusedist.build_profile(m_idx)
                                _PROFILES.put(merge_key, prof,
                                              m_idx.nbytes * 4)
                        if prof is not None:
                            hits = prof.score(n_sets, config.pcache_ways,
                                              delay, "lru")
                        else:
                            # First (and possibly only) geometry asked
                            # of this stream: the pinned replay kernel
                            # is cheaper than profiling for a single
                            # point, and the masks agree bit-for-bit.
                            hits = delayed_cache_hits(
                                m_idx, n_sets, config.pcache_ways, delay,
                                policy="lru",
                            )[0]
                        _HITS.put(hits_key, hits, hits.nbytes)
                    rack_hits.append(hits)
            else:
                rack_hits = _rack_cache_hits(
                    [m["idx"] for m in merged_list], config, pcache_bytes,
                    payload, knobs,
                )
        else:
            rack_hits = [
                np.zeros(m["idx"].size, dtype=bool) for m in merged_list
            ]
        nic_maxp = config.max_prs_per_packet(0)
        nic_headers = (config.header_upper, config.header_concat,
                       config.header_concat_solo, config.header_pr)
        for (rack, members), merged, hits in zip(rack_list, merged_list,
                                                 rack_hits):
            m_src, m_pos = merged["src"], merged["pos"]
            m_idx, m_owner = merged["idx"], merged["owner"]

            # NIC-stage read bytes (host -> ToR) per member node.
            for node in members:
                pos, idx, owner = node_streams[node]
                nic_key = ("nic", pt, node, config.n_client_units,
                           feats.rig_offload, feats.filtering,
                           feats.coalescing, knobs.inflight_frac,
                           bkeys[node], w_nic, nic_maxp, nic_headers)
                nic_val = _NIC_CONCAT.get(nic_key)
                if nic_val is None:
                    nic_val = _concat_stage_totals(owner, 0, config, w_nic)
                    _NIC_CONCAT.put(nic_key, nic_val, 64)
                up_bytes[node] += nic_val[0]
                if not feats.concat_switch:
                    n_packets_total += nic_val[1]

            if feats.property_cache and m_idx.size:
                cache_lookups += int(m_idx.size)
                cache_hits += int(hits.sum())

            # Cache-hit responses: generated at the ToR, delivered in-rack.
            if hits.any():
                hit_src = m_src[hits]
                byte_map, stats = _concat_stage_bytes(
                    hit_src, payload, config, read_window_sw
                )
                for node_id, b in byte_map.items():
                    down_bytes[node_id] += b
                n_packets_total += stats.n_packets

            # Misses continue toward their owners (switch-stage concat).
            miss = ~hits
            if miss.any():
                ms, mp = m_src[miss], m_pos[miss]
                mi, mo = m_idx[miss], m_owner[miss]
                byte_map, stats = _concat_stage_bytes(
                    mo, 0, config, read_window_sw
                )
                n_packets_total += stats.n_packets
                # Distribute rack-stage bytes over (src, owner) flows by
                # PR share.
                pair_keys = ms * n + mo
                uniq_pairs, pair_counts = np.unique(
                    pair_keys, return_counts=True
                )
                owner_totals = {
                    int(d): cnt
                    for d, cnt in zip(*np.unique(mo, return_counts=True))
                }
                for key, cnt in zip(uniq_pairs.tolist(), pair_counts.tolist()):
                    s, d = divmod(key, n)
                    share = byte_map[d] * cnt / owner_totals[d]
                    _route_fabric(s, d, share)
                    down_bytes[d] += share
                miss_records.append(
                    {"src": ms, "pos": mp, "idx": mi, "owner": mo}
                )
    telemetry.count("pcache.lookups", cache_lookups, matrix=matrix.name)
    telemetry.count("pcache.hits", cache_hits, matrix=matrix.name)

    # ---- stage 3: responses from owners -------------------------------
    if miss_records:
        all_src = np.concatenate([r["src"] for r in miss_records])
        all_pos = np.concatenate([r["pos"] for r in miss_records])
        all_owner = np.concatenate([r["owner"] for r in miss_records])
    else:
        all_src = all_pos = all_owner = np.zeros(0, dtype=np.int64)

    served_per_node = np.zeros(n, dtype=np.int64)
    resp_window_sw = w_sw if feats.concat_switch else 1
    with telemetry.span("cluster.stage.respond", matrix=matrix.name, k=k):
        owner_rack = rack_of[all_owner]
        for rack, members in sorted(racks.items()):
            # Responses produced by owners in this rack, merged at its ToR.
            sel = owner_rack == rack
            if not sel.any():
                continue
            r_src, r_pos, r_owner = all_src[sel], all_pos[sel], all_owner[sel]
            order = np.lexsort((r_owner, r_pos))
            r_src, r_pos, r_owner = (
                r_src[order], r_pos[order], r_owner[order]
            )

            # NIC-stage response bytes per owner.  One stable owner
            # sort splits the stream; within each owner the stream
            # order (and hence every byte count) is unchanged.
            oorder = np.argsort(r_owner, kind="stable")
            ro = r_owner[oorder]
            rs = r_src[oorder]
            lo_b = np.searchsorted(ro, members, side="left")
            hi_b = np.searchsorted(ro, members, side="right")
            for owner, lo, hi in zip(members, lo_b.tolist(), hi_b.tolist()):
                if hi <= lo:
                    continue
                served_per_node[owner] += hi - lo
                nbytes, npkts = _concat_stage_totals(
                    rs[lo:hi], payload, config, w_nic
                )
                up_bytes[owner] += nbytes
                if not feats.concat_switch:
                    n_packets_total += npkts

            # Switch-stage response bytes toward each requester.
            byte_map, stats = _concat_stage_bytes(
                r_src, payload, config, resp_window_sw
            )
            n_packets_total += stats.n_packets
            pair_keys = r_owner * n + r_src
            uniq_pairs, pair_counts = np.unique(pair_keys, return_counts=True)
            dest_totals = {
                int(d): cnt
                for d, cnt in zip(*np.unique(r_src, return_counts=True))
            }
            for key, cnt in zip(uniq_pairs.tolist(), pair_counts.tolist()):
                o, s = divmod(key, n)
                share = byte_map[s] * cnt / dest_totals[s]
                _route_fabric(o, s, share)
                down_bytes[s] += share

    # ---- stage 4: timing ----------------------------------------------
    with telemetry.span("cluster.stage.timing", matrix=matrix.name, k=k):
        t_up = up_bytes / config.link_bandwidth
        t_down = down_bytes / config.link_bandwidth
        t_pcie = down_bytes / config.pcie_bandwidth
        t_server = served_per_node / (
            (config.n_rig_units - config.n_client_units) * config.snic_freq
        )
        per_node_prs = np.array(
            [node_streams[i][0].size for i in range(n)], dtype=np.float64
        )
        if feats.concat_nic:
            cap = _concat_sram_rate_cap(config, payload)
            t_concat = per_node_prs / cap
            drain = config.concat_delay_cycles_nic / config.snic_freq
        else:
            t_concat = np.zeros(n)
            drain = 0.0
        per_node_time = np.maximum.reduce(
            [pr_gen_time, t_up, t_down, t_pcie, t_server, t_concat]
        )
        fabric_time = (
            float((fabric_loads / link_bw).max()) if topo.n_links else 0.0
        )
        # Fixed latencies scale with the matrix downscaling like every
        # other absolute time constant (DESIGN.md §5) — at paper scale
        # they are negligible against millisecond totals, and must stay
        # negligible.
        rtt = topo.rtt(0, n - 1) * scale
        total_time = (
            max(float(per_node_time.max()), fabric_time) + rtt + drain * scale
        )

    telemetry.count("concat.packets", n_packets_total, matrix=matrix.name)
    if n_packets_total:
        telemetry.observe("concat.prs_per_packet",
                          n_issued / n_packets_total, matrix=matrix.name)

    result = CommResult(
        scheme="netsparse",
        matrix_name=matrix.name,
        k=k,
        n_nodes=n,
        total_time=total_time,
        per_node_time=per_node_time,
        recv_wire_bytes=down_bytes,
        sent_wire_bytes=up_bytes,
        useful_payload_bytes=useful_payload,
        link_bandwidth=config.link_bandwidth,
        n_pr_candidates=n_candidates,
        n_prs_issued=n_issued,
        n_filtered=n_filtered,
        n_coalesced=n_coalesced,
        n_packets=n_packets_total,
        cache_lookups=cache_lookups,
        cache_hits=cache_hits,
        pr_gen_time=pr_gen_time,
        extras={
            "fabric_time": fabric_time,
            "rig_batch": rig_batch,
            "window_nic": w_nic,
            "window_switch": w_sw,
            # Per-node stage breakdown — consumed by repro.faults to
            # attribute analytic penalties to the stages a fault hits.
            "stage_times": {
                "pr_gen": pr_gen_time,
                "up": t_up,
                "down": t_down,
                "pcie": t_pcie,
                "server": t_server,
                "concat": t_concat,
            },
        },
    )
    if sim_key is not None:
        # Stored as pickled bytes: a memo hit deserializes a *fresh*
        # result, so callers (fault injection, report post-processing)
        # can mutate theirs without corrupting the template.
        blob = pickle.dumps(result)
        _SIMS.put(sim_key, blob, len(blob))
        if tmpl_key is not None:
            _SIMS.put(tmpl_key, blob, len(blob))
    return result
