"""Tests for the NetSparse cluster model."""

import numpy as np
import pytest

from repro.config import FeatureFlags, NetSparseConfig
from repro.cluster import build_cluster_topology, simulate_netsparse
from repro.cluster.model import DelayedInsertCache
from repro.core.pcache import PropertyCache
from repro.sparse.suite import load_benchmark


CFG16 = NetSparseConfig(n_nodes=16, n_racks=4, nodes_per_rack=4)


def topo16():
    from repro.network import LeafSpine

    return LeafSpine(n_racks=4, nodes_per_rack=4, n_spines=2)


@pytest.fixture(scope="module")
def arabic_tiny():
    return load_benchmark("arabic", "tiny")


@pytest.fixture(scope="module")
def result(arabic_tiny):
    return simulate_netsparse(arabic_tiny, 16, CFG16, topo16())


def test_basic_sanity(result):
    assert result.total_time > 0
    assert result.n_prs_issued > 0
    assert result.n_prs_issued <= result.n_pr_candidates
    assert result.per_node_time.shape == (16,)
    assert (result.per_node_time >= 0).all()


def test_issued_plus_dropped_equals_candidates(result):
    assert (
        result.n_prs_issued + result.n_filtered + result.n_coalesced
        == result.n_pr_candidates
    )


def test_traffic_is_positive_and_bounded(result):
    assert result.recv_wire_bytes.sum() > 0
    assert result.sent_wire_bytes.sum() > 0
    # Useful payload cannot exceed received wire bytes in aggregate
    # (wire carries payload + headers; every useful byte crosses the wire
    # at most... exactly once plus escaped duplicates).
    assert result.useful_payload_bytes.sum() <= result.recv_wire_bytes.sum()


def test_deterministic(arabic_tiny):
    a = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    b = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    assert a.total_time == b.total_time
    np.testing.assert_array_equal(a.recv_wire_bytes, b.recv_wire_bytes)
    assert a.n_packets == b.n_packets


def test_scale_validation(arabic_tiny):
    with pytest.raises(ValueError):
        simulate_netsparse(arabic_tiny, 16, CFG16, topo16(), scale=0.0)


def test_partition_without_weakrefs_rejected(arabic_tiny):
    # Stage memos are keyed on partition identity; an object that
    # cannot be weak-referenced has none, so it must not share keys.
    class SlottedPartition:
        __slots__ = ("n_nodes",)

    part = SlottedPartition()
    part.n_nodes = CFG16.n_nodes
    with pytest.raises(TypeError):
        simulate_netsparse(arabic_tiny, 16, CFG16, topo16(), partition=part)


def test_filtering_reduces_traffic(arabic_tiny):
    on = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    cfg_off = CFG16.with_features(filtering=False, coalescing=False)
    off = simulate_netsparse(arabic_tiny, 16, cfg_off, topo16())
    assert on.n_prs_issued < off.n_prs_issued
    assert on.recv_wire_bytes.sum() < off.recv_wire_bytes.sum()
    assert off.n_filtered == 0 and off.n_coalesced == 0


def test_cache_disabled_means_no_lookups(arabic_tiny):
    cfg = CFG16.with_features(property_cache=False)
    res = simulate_netsparse(arabic_tiny, 16, cfg, topo16())
    assert res.cache_lookups == 0
    assert res.cache_hits == 0


def test_cache_reduces_fabric_traffic(arabic_tiny):
    with_cache = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    no_cache = simulate_netsparse(
        arabic_tiny, 16, CFG16.with_features(property_cache=False), topo16()
    )
    assert with_cache.cache_hits > 0
    assert with_cache.extras["fabric_time"] <= no_cache.extras["fabric_time"]


def test_concat_reduces_packet_count(arabic_tiny):
    full = simulate_netsparse(arabic_tiny, 16, CFG16, topo16())
    solo = simulate_netsparse(
        arabic_tiny, 16,
        CFG16.with_features(concat_nic=False, concat_switch=False,
                            property_cache=False),
        topo16(),
    )
    # Without concatenation every PR is its own packet.
    assert solo.avg_prs_per_packet <= 1.01
    assert full.avg_prs_per_packet > 1.5


def test_ablation_monotone_traffic(arabic_tiny):
    """Adding mechanisms never increases tail traffic (Table 8 trend)."""
    levels = ["rig", "filter", "coalesce", "conc_nic", "switch"]
    traffic = []
    for level in levels:
        cfg = NetSparseConfig(
            n_nodes=16, n_racks=4, nodes_per_rack=4,
            features=FeatureFlags.ablation_level(level),
        )
        res = simulate_netsparse(arabic_tiny, 16, cfg, topo16())
        traffic.append(res.recv_wire_bytes.sum())
    for before, after in zip(traffic, traffic[1:]):
        assert after <= before * 1.05  # small slack for window effects


def test_larger_k_more_payload(arabic_tiny):
    from repro.sparse.suite import scale_factor

    sc = scale_factor("arabic", arabic_tiny)
    small = simulate_netsparse(arabic_tiny, 1, CFG16, topo16(), scale=sc)
    large = simulate_netsparse(arabic_tiny, 128, CFG16, topo16(), scale=sc)
    assert large.useful_payload_bytes.sum() == pytest.approx(
        128 * small.useful_payload_bytes.sum()
    )
    assert large.total_time > small.total_time


def test_active_nodes_curve(result):
    t, active = result.active_nodes_over_time(50)
    assert active[0] == 16
    assert active[-1] == 0
    assert (np.diff(active) <= 0).all()


def test_topology_builder_names():
    for name in ("leafspine", "hyperx", "dragonfly"):
        cfg = NetSparseConfig(topology=name)
        topo = build_cluster_topology(cfg)
        assert topo.n_nodes == 128
    with pytest.raises(ValueError):
        build_cluster_topology(NetSparseConfig(topology="torus"))


class TestDelayedInsertCache:
    def make(self, delay):
        pc = PropertyCache(capacity_bytes=1 << 16, ways=4)
        pc.configure(64)
        return DelayedInsertCache(pc, delay)

    def test_immediate_reuse_misses_within_delay(self):
        front = self.make(delay=5)
        hits = front.process(np.array([1, 1, 1]))
        # All three within the in-flight window: all miss.
        assert not hits.any()

    def test_reuse_after_delay_hits(self):
        front = self.make(delay=2)
        hits = front.process(np.array([1, 9, 9, 9, 1]))
        assert hits[4]  # idx 1 re-referenced after its insert landed

    def test_zero_delay_inserts_next_position(self):
        front = self.make(delay=0)
        hits = front.process(np.array([3, 3]))
        assert not hits[0] and hits[1]

    def test_no_hit_without_insert(self):
        front = self.make(delay=1)
        hits = front.process(np.array([1, 2, 3, 4]))
        assert not hits.any()
