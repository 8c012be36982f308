"""Tests for the SUOpt / SAOpt / vanilla-SA baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.baselines import (
    saopt_goodput_curve,
    simulate_saopt,
    simulate_suopt,
    vanilla_sa_transfer,
)
from repro.baselines.saopt import saopt_pr_counts
from repro.baselines.software import per_core_payload_rate
from repro.config import NetSparseConfig
from repro.partition import TraceCache, cached_partition, set_trace_cache
from repro.sparse.matrix import COOMatrix
from repro.sparse.suite import load_benchmark

CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


@pytest.fixture(scope="module")
def arabic():
    return load_benchmark("arabic", "tiny")


@pytest.fixture(scope="module")
def europe():
    return load_benchmark("europe", "tiny")


class TestSuopt:
    def test_receive_everything_not_owned(self, arabic):
        res = simulate_suopt(arabic, 16, CFG16)
        payload = 64
        # Every node receives all columns it does not own.
        n_cols = arabic.n_cols
        own = n_cols // 16
        assert res.recv_wire_bytes[0] == pytest.approx(
            (n_cols - own) * payload, rel=0.01
        )

    def test_time_is_line_rate_bound(self, arabic):
        res = simulate_suopt(arabic, 16, CFG16)
        expected = res.recv_wire_bytes.max() / CFG16.link_bandwidth
        assert res.total_time == pytest.approx(expected)

    def test_goodput_is_tiny(self, arabic):
        """SU moves the whole array; useful fraction is tiny (Table 1)."""
        res = simulate_suopt(arabic, 16, CFG16)
        assert res.useful_payload_bytes.sum() < 0.15 * res.recv_wire_bytes.sum()

    def test_k_scaling(self, arabic):
        r1 = simulate_suopt(arabic, 1, CFG16)
        r128 = simulate_suopt(arabic, 128, CFG16)
        assert r128.total_time == pytest.approx(128 * r1.total_time)


class TestSaopt:
    def test_pr_counts_shapes(self, arabic):
        sent, served, part = saopt_pr_counts(arabic, CFG16)
        assert sent.shape == (16, CFG16.host_cores)
        assert served.shape == (16, CFG16.host_cores)
        # Conservation: every sent PR is served somewhere.
        assert sent.sum() == served.sum()

    def test_per_rank_filtering_weaker_than_global(self, arabic):
        """Per-rank dedup keeps cross-rank duplicates: total sent PRs
        exceed the node-global unique count (the paper's -#PR gap)."""
        sent, _, part = saopt_pr_counts(arabic, CFG16)
        global_unique = sum(
            t.unique_remote_count() for t in part.node_traces()
        )
        assert sent.sum() >= global_unique

    def test_time_scales_with_software_cost(self, arabic):
        fast = simulate_saopt(arabic, 16, CFG16)
        slow_cfg = NetSparseConfig(
            n_nodes=16, n_racks=4, nodes_per_rack=4,
            sw_pr_cost_fixed=CFG16.sw_pr_cost_fixed * 10,
            sw_pr_cost_per_byte=CFG16.sw_pr_cost_per_byte * 10,
        )
        slow = simulate_saopt(arabic, 16, slow_cfg)
        assert slow.total_time > 5 * fast.total_time

    def test_scale_validation(self, arabic):
        with pytest.raises(ValueError):
            simulate_saopt(arabic, 16, CFG16, scale=-1.0)

    def test_europe_has_few_duplicates(self, europe):
        res = simulate_saopt(europe, 16, CFG16)
        # Nearly no reuse: sent PRs ~ candidates.
        assert res.n_prs_issued >= 0.9 * res.n_pr_candidates


def reference_saopt_pr_counts(matrix, config, exclude_cols=None):
    """Executable spec of SAOpt's per-rank filtering: one ``np.unique``
    per (node, rank) chunk, exactly as the model was first written."""
    n, cores = config.n_nodes, config.host_cores
    part = cached_partition(matrix, n)
    sent = np.zeros((n, cores), dtype=np.int64)
    served = np.zeros((n, cores), dtype=np.int64)
    own_cols = np.diff(part.col_starts)
    for node, tr in enumerate(part.node_traces()):
        idxs = tr.remote_idxs
        owners = tr.remote_owners
        if exclude_cols is not None and idxs.size:
            keep = ~exclude_cols[idxs]
            idxs, owners = idxs[keep], owners[keep]
        if idxs.size == 0:
            continue
        chunk_edges = np.linspace(0, idxs.size, cores + 1, dtype=np.int64)
        for c in range(cores):
            lo, hi = chunk_edges[c], chunk_edges[c + 1]
            if hi <= lo:
                continue
            # Dedup within the rank: unique idx implies unique owner.
            uniq_idx, first = np.unique(idxs[lo:hi], return_index=True)
            sent[node, c] = uniq_idx.size
            owners_u = owners[lo:hi][first]
            # The serving rank is the one owning the idx's column slice.
            offset = uniq_idx - part.col_starts[owners_u]
            rank_span = np.maximum(own_cols[owners_u] // cores, 1)
            serve_rank = np.minimum(offset // rank_span, cores - 1)
            np.add.at(served, (owners_u, serve_rank), 1)
    return sent, served


@st.composite
def saopt_cases(draw):
    n_nodes = draw(st.integers(1, 16))
    n_rows = draw(st.integers(n_nodes, 48))
    n_cols = draw(st.integers(1, 48))
    nnz = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = COOMatrix(n_rows, n_cols, rng.integers(0, n_rows, nnz),
                       rng.integers(0, n_cols, nnz)).canonicalize()
    mask_kind = draw(st.sampled_from(["none", "all", "nothing", "random"]))
    exclude = {
        "none": None,
        "all": np.ones(n_cols, dtype=bool),
        "nothing": np.zeros(n_cols, dtype=bool),
        "random": rng.random(n_cols) < 0.3,
    }[mask_kind]
    config = NetSparseConfig(n_nodes=n_nodes,
                             host_cores=draw(st.integers(1, 64)))
    return matrix, config, exclude


class TestSaoptRankDedup:
    @settings(max_examples=150, deadline=None)
    @given(saopt_cases())
    def test_matches_reference(self, case):
        matrix, config, exclude = case
        sent, served, _ = saopt_pr_counts(matrix, config, exclude)
        ref_sent, ref_served = reference_saopt_pr_counts(
            matrix, config, exclude)
        assert sent.dtype == ref_sent.dtype == np.int64
        np.testing.assert_array_equal(sent, ref_sent)
        np.testing.assert_array_equal(served, ref_served)

    @pytest.mark.parametrize("cores", [1, 7, 64])
    def test_matches_reference_on_benchmark(self, arabic, cores):
        config = NetSparseConfig(n_nodes=16, host_cores=cores)
        sent, served, _ = saopt_pr_counts(arabic, config)
        ref_sent, ref_served = reference_saopt_pr_counts(arabic, config)
        np.testing.assert_array_equal(sent, ref_sent)
        np.testing.assert_array_equal(served, ref_served)


class TestSaoptCountsMemo:
    @pytest.fixture
    def fresh_cache(self):
        previous = set_trace_cache(TraceCache())
        yield
        set_trace_cache(previous)

    def test_returned_arrays_are_read_only(self, arabic):
        sent, served, _ = saopt_pr_counts(arabic, CFG16)
        for arr in (sent, served):
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_masks_differing_in_one_column_do_not_share(self, arabic):
        part = cached_partition(arabic, 16)
        col = int(part.node_traces()[0].remote_idxs[0])
        mask_a = np.zeros(arabic.n_cols, dtype=bool)
        mask_b = mask_a.copy()
        mask_b[col] = True
        sent_a, _, _ = saopt_pr_counts(arabic, CFG16, mask_a)
        sent_b, _, _ = saopt_pr_counts(arabic, CFG16, mask_b)
        assert sent_a is not sent_b
        assert sent_b.sum() < sent_a.sum()
        ref_b, _ = reference_saopt_pr_counts(arabic, CFG16, mask_b)
        np.testing.assert_array_equal(sent_b, ref_b)

    def test_fresh_partition_starts_empty(self, arabic, fresh_cache):
        part = cached_partition(arabic, 16)
        assert getattr(part, "_saopt_counts", {}) == {}
        with telemetry.telemetry_scope() as reg:
            for k in (1, 16, 128):
                simulate_saopt(arabic, k, CFG16)
        counters = reg.counters
        assert counters["baselines.saopt.counts.memo_builds"].value == 1
        assert counters["baselines.saopt.counts.memo_hits"].value == 2
        assert reg.span_totals("wall")["baselines.saopt.counts"][0] == 1


class TestVanillaSa:
    def test_transfer_rate_positive(self, arabic):
        res = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        assert res.transfer_rate_gbps > 0
        assert 0 < res.goodput < res.line_utilization < 1

    def test_low_line_utilization(self, arabic):
        """The motivation claim: vanilla SA utilizes <5% of the line."""
        res = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        assert res.line_utilization < 0.05

    def test_europe_slower_than_webcrawl(self, arabic, europe):
        """Mostly-local matrices waste scan time per byte moved."""
        ra = vanilla_sa_transfer(arabic, k=32, n_nodes=2)
        re = vanilla_sa_transfer(europe, k=32, n_nodes=2)
        assert re.transfer_rate_bytes < ra.transfer_rate_bytes


class TestSoftwareModel:
    def test_per_core_rate_increases_with_k(self):
        assert per_core_payload_rate(128) > per_core_payload_rate(1)

    def test_goodput_curve_linear_then_saturates(self):
        curve = saopt_goodput_curve([1, 2, 4, 8, 16, 32, 64], k=16)
        goodputs = [g for _, g in curve]
        assert goodputs == sorted(goodputs)
        # Linear region: 2 cores = 2x of 1 core.
        assert goodputs[1] == pytest.approx(2 * goodputs[0], rel=1e-9)
        assert goodputs[-1] <= 1.0

    def test_calibration_lands_near_paper(self):
        """64 cores at K=16 should reach ~10% goodput, K=128 ~40%
        (§8.1 / Figure 10 / Table 7's SAOpt goodput column)."""
        (_, g16), = saopt_goodput_curve([64], k=16)
        (_, g128), = saopt_goodput_curve([64], k=128)
        assert 0.05 < g16 < 0.2
        assert 0.25 < g128 < 0.6

    def test_curve_validates_cores(self):
        with pytest.raises(ValueError):
            saopt_goodput_curve([0], k=16)
