"""Golden-equivalence suite: fast kernels vs their reference backends.

The fast kernels (`repro.core.pcache_fast`, the vectorized paths in
`repro.core.rig` / `repro.core.concat`) claim *bit-identical* results
to the original per-element Python implementations, which remain
selectable via ``REPRO_KERNELS=reference``.  This suite is the claim's
enforcement: sweeps over seeds, cache geometries (ways / segments /
delay), concat windows and RIG shapes, plus whole-model runs, assert
exact equality — never approximate.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.cluster import (
    batch_stats,
    build_cluster_topology,
    reset_batch_state,
    simulate_netsparse,
)
from repro.cluster.model import DelayedInsertCache
from repro.config import NetSparseConfig
from repro.core import kernels
from repro.core.concat import (
    _window_concat_fast,
    _window_concat_reference,
    window_concat,
)
from repro.core.pcache import PropertyCache, n_sets_for
from repro.core.pcache_fast import delayed_cache_hits, property_cache_hits
from repro.core.rig import rig_generation_time
from repro.partition import (
    TraceCache,
    balanced_by_nnz,
    cached_partition,
    get_trace_cache,
    set_trace_cache,
)
from repro.partition.oned import OneDPartition
from repro.sim import Simulator
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark


# ---------------------------------------------------------------------
# backend switch
# ---------------------------------------------------------------------


# The suite must pass under either backend (the CI matrix runs a
# REPRO_KERNELS=reference leg), so the expected default is whatever the
# environment selected — "fast" when unset.
_ENV_BACKEND = os.environ.get("REPRO_KERNELS", "fast")


class TestBackendSwitch:
    def test_default_tracks_environment(self):
        assert kernels.get_backend() in kernels.BACKENDS
        assert kernels.get_backend() == _ENV_BACKEND
        assert kernels.BACKENDS == ("fast", "reference")
        assert kernels.is_fast() == (_ENV_BACKEND == "fast")

    def test_set_backend_returns_previous(self):
        other = "reference" if _ENV_BACKEND == "fast" else "fast"
        prev = kernels.set_backend(other)
        try:
            assert prev == _ENV_BACKEND
            assert kernels.get_backend() == other
            assert kernels.is_fast() == (other == "fast")
        finally:
            kernels.set_backend(prev)
        assert kernels.get_backend() == _ENV_BACKEND

    def test_use_backend_restores_on_error(self):
        other = "reference" if _ENV_BACKEND == "fast" else "fast"
        with pytest.raises(RuntimeError):
            with kernels.use_backend(other):
                assert kernels.get_backend() == other
                raise RuntimeError("boom")
        assert kernels.get_backend() == _ENV_BACKEND

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("cuda")
        with pytest.raises(ValueError):
            kernels.set_backend("pool")
        with pytest.raises(ValueError):
            with kernels.use_backend(""):
                pass  # pragma: no cover


# ---------------------------------------------------------------------
# delayed-insert Property Cache
# ---------------------------------------------------------------------


def reference_cache_hits(idxs, n_sets, ways, delay, policy="lru"):
    """The executable spec: PropertyCache driven by DelayedInsertCache."""
    # Default geometry: 16-byte properties occupy one 16-byte segment,
    # so capacity = n_sets * ways * 16 configures exactly n_sets sets.
    pc = PropertyCache(
        capacity_bytes=n_sets * ways * 16, ways=ways, policy=policy
    )
    pc.configure(16)
    assert pc.n_sets == n_sets
    hits = DelayedInsertCache(pc, delay).process(np.asarray(idxs))
    return hits, pc.stats


class TestPcacheGolden:
    @pytest.mark.parametrize("policy", PropertyCache.POLICIES)
    @pytest.mark.parametrize(
        "n_sets,ways", [(0, 1), (1, 1), (1, 2), (3, 2), (10, 4), (64, 16)]
    )
    @pytest.mark.parametrize("delay", [0, 1, 7, 150, 10**6])
    def test_hit_sequence_and_stats_match(self, policy, n_sets, ways, delay):
        seed = (
            n_sets * 7919
            + ways * 131
            + min(delay, 997)
            + PropertyCache.POLICIES.index(policy)
        )
        rng = np.random.default_rng(seed)
        space = max(4 * max(n_sets, 1) * ways, 8)
        for stream in (
            rng.integers(0, space, size=500),          # uniform
            rng.zipf(1.5, size=500) % space,           # skewed: real hits
            np.zeros(64, dtype=np.int64),              # pathological dupes
        ):
            fast_hits, fast_stats = delayed_cache_hits(
                stream, n_sets, ways, delay, policy=policy
            )
            ref_hits, ref_stats = reference_cache_hits(
                stream, n_sets, ways, delay, policy=policy
            )
            np.testing.assert_array_equal(fast_hits, ref_hits)
            assert fast_stats == ref_stats

    def test_empty_stream(self):
        fast_hits, fast_stats = delayed_cache_hits(
            np.array([], dtype=np.int64), 4, 2, 3
        )
        ref_hits, ref_stats = reference_cache_hits(
            np.array([], dtype=np.int64), 4, 2, 3
        )
        assert fast_hits.size == ref_hits.size == 0
        assert fast_stats == ref_stats

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            delayed_cache_hits(np.arange(4), 2, 2, 1, policy="mru")

    def test_duplicate_inflight_misses_both_travel(self):
        # delay=3 keeps both 7s in flight: neither may hit (no MSHR).
        hits, stats = delayed_cache_hits(
            np.array([7, 7, 1, 2]), n_sets=4, ways=4, delay=3
        )
        assert not hits.any()
        ref_hits, _ = reference_cache_hits(
            np.array([7, 7, 1, 2]), n_sets=4, ways=4, delay=3
        )
        np.testing.assert_array_equal(hits, ref_hits)
        # both travel, but the second insert finds 7 present: no-op
        assert stats.insertions == 3

    @pytest.mark.parametrize(
        "property_bytes,n_segments,segment_bytes",
        [
            (16, 32, 16),    # one segment
            (100, 32, 16),   # several segments, power-of-two rounding
            (512, 32, 16),   # exactly the max line
            (513, 32, 16),   # tiled across whole lines
            (4096, 8, 64),   # large property, fat segments
            (1, 1, 16),      # degenerate selector
        ],
    )
    def test_property_cache_hits_uses_configured_geometry(
        self, property_bytes, n_segments, segment_bytes
    ):
        capacity, ways, delay = 1 << 14, 4, 5
        pc = PropertyCache(
            capacity_bytes=capacity,
            ways=ways,
            n_segments=n_segments,
            segment_bytes=segment_bytes,
        )
        pc.configure(property_bytes)
        assert pc.n_sets == n_sets_for(
            capacity, ways, property_bytes, n_segments, segment_bytes
        )
        rng = np.random.default_rng(property_bytes)
        idxs = rng.integers(0, 4 * max(pc.n_sets, 1) * ways, size=600)
        fast_hits, fast_stats = property_cache_hits(
            idxs,
            capacity_bytes=capacity,
            ways=ways,
            property_bytes=property_bytes,
            delay=delay,
            n_segments=n_segments,
            segment_bytes=segment_bytes,
        )
        ref_hits = DelayedInsertCache(pc, delay).process(idxs)
        np.testing.assert_array_equal(fast_hits, ref_hits)
        assert fast_stats == pc.stats


# ---------------------------------------------------------------------
# window concatenation
# ---------------------------------------------------------------------


class TestConcatGolden:
    @pytest.mark.parametrize("max_prs", [1, 2, 5, 16])
    @pytest.mark.parametrize("window", [1, 2, 7, 64, 10**9])
    def test_sweep(self, max_prs, window):
        rng = np.random.default_rng(max_prs * 1000 + min(window, 999))
        for n_dests, n in ((1, 40), (17, 999), (128, 2048)):
            dests = rng.integers(0, n_dests, size=n)
            fast = _window_concat_fast(dests, max_prs, window)
            ref = _window_concat_reference(dests, max_prs, window)
            assert fast == ref

    def test_sparse_destination_space_falls_back_exactly(self):
        # Raw row-id destinations: keyspace >> 4n forces the np.unique
        # path inside the fast kernel; results must still be identical.
        rng = np.random.default_rng(3)
        dests = rng.choice(
            np.array([3, 999_983, 7_654_321], dtype=np.int64), size=200
        )
        fast = _window_concat_fast(dests, 5, 8)
        ref = _window_concat_reference(dests, 5, 8)
        assert fast == ref

    def test_window_concat_dispatches_on_backend(self):
        dests = np.tile(np.arange(4), 25)
        fast = window_concat(dests, 8, 10)
        with kernels.use_backend("reference"):
            ref = window_concat(dests, 8, 10)
        assert fast == ref
        assert fast.n_prs == 100

    def test_empty_stream_short_circuits(self):
        stats = window_concat(np.array([], dtype=np.int64), 4, 10)
        assert stats.n_prs == stats.n_packets == 0
        assert stats.per_dest_prs == {}

    def test_degenerate_windows_mean_no_concatenation(self):
        dests = np.array([2, 2, 2, 5, 5])
        for max_prs, window in ((1, 100), (8, 1), (8, 0)):
            stats = window_concat(dests, max_prs, window)
            ref = _window_concat_reference(dests, max_prs, max(window, 1))
            assert stats == ref
            assert stats.n_packets == dests.size


# ---------------------------------------------------------------------
# RIG batch-dispatch makespan
# ---------------------------------------------------------------------


class TestRigGolden:
    @pytest.mark.parametrize("policy", ["least_loaded", "round_robin"])
    def test_random_sweep_is_bit_identical(self, policy):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_idxs = int(rng.integers(1, 5000))
            n_units = int(rng.integers(1, 12))
            batch = int(rng.integers(1, 300))
            freq = float(rng.uniform(1e8, 3e9))
            ovh = float(rng.uniform(1e-8, 1e-5))
            fast = rig_generation_time(
                n_idxs, n_units, batch, freq, ovh, policy=policy
            )
            with kernels.use_backend("reference"):
                ref = rig_generation_time(
                    n_idxs, n_units, batch, freq, ovh, policy=policy
                )
            assert fast == ref  # exact float equality, not approx

    def test_zero_and_negative_idxs(self):
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                assert rig_generation_time(0, 4, 32) == 0.0
                assert rig_generation_time(-3, 4, 32) == 0.0

    def test_validation_identical_across_backends(self):
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError):
                    rig_generation_time(10, 0, 32)
                with pytest.raises(ValueError):
                    rig_generation_time(10, 4, 0)
                with pytest.raises(ValueError):
                    rig_generation_time(10, 4, 32, policy="fastest_first")


# ---------------------------------------------------------------------
# whole cluster model
# ---------------------------------------------------------------------


def _assert_equal(x, y, path):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        np.testing.assert_array_equal(x, y, err_msg=path)
    elif isinstance(x, dict):
        assert set(x) == set(y), path
        for key in x:
            _assert_equal(x[key], y[key], f"{path}[{key!r}]")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (xi, yi) in enumerate(zip(x, y)):
            _assert_equal(xi, yi, f"{path}[{i}]")
    else:
        assert x == y, path


def assert_results_equal(a, b):
    """Field-by-field exact equality of two CommResults."""
    assert type(a) is type(b)
    for f in dataclasses.fields(type(a)):
        _assert_equal(getattr(a, f.name), getattr(b, f.name), f.name)


CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


def reference_leg(run):
    """``run()`` under the reference kernels, from cold stage memos.

    The fast leg before it ran on the same partition and topology, so
    without the reset the reference leg would be a whole-simulation
    memo hit and compare the fast result with itself.
    """
    reset_batch_state()
    with kernels.use_backend("reference"):
        result = run()
    assert batch_stats()["sims"]["hits"] == 0, "reference leg hit a memo"
    return result


class TestModelGolden:
    @pytest.mark.parametrize("name", ["queen", "stokes"])
    def test_commresult_bit_identical(self, name):
        mat = load_benchmark(name, "tiny")
        topo = build_cluster_topology(CFG16)
        fast = simulate_netsparse(mat, 8, CFG16, topo)
        ref = reference_leg(lambda: simulate_netsparse(mat, 8, CFG16, topo))
        assert_results_equal(fast, ref)

    def test_faulted_run_bit_identical(self):
        # faults= perturbs the *result* analytically; the kernels under
        # it must still agree, and the shared TraceCache entry is safe.
        from repro.faults import FaultPlan
        from repro.parallel.jobs import SimJob, execute_job

        plan = FaultPlan.scaled(0.5, seed=13)
        job = SimJob(
            scheme="netsparse",
            matrix="queen",
            k=8,
            config=CFG16,
            scale_name="tiny",
            faults=plan.canonical_json(),
        )
        fast = execute_job(job)
        ref = reference_leg(lambda: execute_job(job))
        assert_results_equal(fast, ref)


# ---------------------------------------------------------------------
# TraceCache
# ---------------------------------------------------------------------


def random_matrix(seed=0, n=60, nnz=600, name=""):
    rng = np.random.default_rng(seed)
    mat = COOMatrix(
        n_rows=n,
        n_cols=n,
        rows=rng.integers(0, n, size=nnz),
        cols=rng.integers(0, n, size=nnz),
        name=name,
    )
    return mat.canonicalize()


class TestTraceCache:
    def test_structural_keying_ignores_name_and_values(self):
        cache = TraceCache()
        a = random_matrix(seed=1, name="a")
        b = random_matrix(seed=1, name="b").with_random_values(seed=9)
        assert a.structural_digest() == b.structural_digest()
        part_a = cache.get_partition(a, 4)
        part_b = cache.get_partition(b, 4)
        assert part_a is part_b
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_distinct_structures_and_rules_get_distinct_entries(self):
        cache = TraceCache()
        a, b = random_matrix(seed=1), random_matrix(seed=2)
        assert a.structural_digest() != b.structural_digest()
        cache.get_partition(a, 4)
        cache.get_partition(b, 4)
        cache.get_partition(a, 8)            # node count is part of the key
        cache.get_partition(a, 4, kind="nnz")
        assert cache.misses == 4 and cache.hits == 0 and len(cache) == 4

    def test_nnz_kind_matches_balanced_by_nnz(self):
        cache = TraceCache()
        mat = random_matrix(seed=3)
        part = cache.get_partition(mat, 4, kind="nnz")
        direct = balanced_by_nnz(mat, 4)
        np.testing.assert_array_equal(part.row_starts, direct.row_starts)

    def test_explicit_row_starts_keyed_by_digest(self):
        cache = TraceCache()
        mat = random_matrix(seed=4)
        starts = np.array([0, 10, 25, 40, mat.n_rows], dtype=np.int64)
        part = cache.get_partition(mat, 4, row_starts=starts)
        again = cache.get_partition(mat, 4, row_starts=starts.copy())
        assert part is again
        assert cache.hits == 1
        np.testing.assert_array_equal(part.row_starts, starts)
        # ...and distinct from the default "rows" entry
        assert cache.get_partition(mat, 4) is not part

    def test_lru_eviction_is_bounded(self):
        cache = TraceCache(max_entries=2)
        mats = [random_matrix(seed=s) for s in (1, 2, 3)]
        for mat in mats:
            cache.get_partition(mat, 4)
        assert len(cache) == 2 and cache.evictions == 1
        cache.get_partition(mats[0], 4)      # oldest was evicted: rebuild
        assert cache.misses == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceCache().get_partition(random_matrix(), 4, kind="2d")
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)

    def test_cached_partition_uses_swappable_global(self):
        mine = TraceCache()
        previous = set_trace_cache(mine)
        try:
            mat = random_matrix(seed=5)
            part = cached_partition(mat, 4)
            assert get_trace_cache() is mine
            assert mine.misses == 1
            assert cached_partition(mat, 4) is part
            assert mine.hits == 1
            assert isinstance(part, OneDPartition)
        finally:
            set_trace_cache(previous)
        assert get_trace_cache() is previous

    def test_stats_snapshot(self):
        cache = TraceCache(max_entries=3)
        part = cache.get_partition(random_matrix(seed=6), 4)
        snap = cache.stats()
        assert snap == {
            "entries": 1,
            "max_entries": 3,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "contended_builds": 0,
            "spills": 0,
            "reloads": 0,
            "resident_nnz": part.resident_trace_nnz(),
        }
        assert snap["resident_nnz"] > 0
        assert cache.clear() == 1
        assert len(cache) == 0


# ---------------------------------------------------------------------
# per-Simulator request ids (satellite: module-global counter removed)
# ---------------------------------------------------------------------


class _ProbeRecorder:
    def __init__(self):
        self.issued_ids = []

    def issued(self, request_id):
        self.issued_ids.append(request_id)

    def completed(self, request_id):
        pass


def _run_gather(idxs):
    """One fresh DES gather; returns the request ids it issued."""
    from repro.core.rig import RigClientUnit, RigServerUnit
    from repro.sim import Store

    sim = Simulator()

    def wire():
        a, b = Store(sim), Store(sim)

        def fwd():
            while True:
                item = yield a.get()
                yield sim.timeout(1e-6)
                yield b.put(item)

        sim.process(fwd())
        return a, b

    c2s_in, c2s_out = wire()
    s2c_in, s2c_out = wire()
    client = RigClientUnit(
        sim, unit_id=0, node=0, tx_queue=c2s_in, rx_queue=s2c_out,
        idx_filter=set(),
    )
    probe = _ProbeRecorder()
    client.latency_probe = probe
    RigServerUnit(
        sim, unit_id=1, node=1, rx_queue=c2s_out, tx_queue=s2c_in,
        payload_bytes=64,
    )
    client.execute(idxs)
    sim.run()
    return probe.issued_ids


class TestRequestIdDeterminism:
    def test_counter_is_per_simulator(self):
        sim = Simulator()
        assert [sim.next_request_id() for _ in range(3)] == [0, 1, 2]
        assert Simulator().next_request_id() == 0
        assert sim.next_request_id() == 3

    def test_identical_runs_issue_identical_ids(self):
        first = _run_gather([1, 2, 3, 4])
        # An unrelated simulation in between must not shift the ids —
        # exactly what the old module-global itertools.count() broke.
        _run_gather(list(range(50)))
        second = _run_gather([1, 2, 3, 4])
        assert first == second
        assert first[0] == 0
        assert first == list(range(len(first)))
