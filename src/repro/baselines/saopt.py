"""SAOpt: the idealized sparsity-aware software baseline (§8.1).

The paper augments SA with the Conveyors framework and grants it every
software-feasible NetSparse mechanism for free:

- *batching + concatenation* via Conveyors two-sided message
  aggregation (headers shared within a node's messages);
- *perfect offline filtering* — but only per rank: Conveyors binds each
  of the node's 64 cores to its own rank, and cross-rank duplicates
  survive (the paper's "-#PR vs SA" column in Table 7 measures exactly
  this gap against NetSparse's node-level filter).

Time accounts only for the software costs of PR generation,
book-keeping, synchronization and buffering — the calibrated per-PR
cost over 64 cores — plus the line-rate lower bound on moving the
payload.  No network or SNIC latency is charged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import telemetry
from repro.config import NetSparseConfig
from repro.results import CommResult
from repro.partition import cached_partition

__all__ = ["remote_totals", "saopt_pr_counts", "simulate_saopt"]


def remote_totals(part):
    """Per-node distinct remote idx counts and the total number of
    remote nonzeros (the PR candidates), memoized on the partition.

    Every software baseline reports both, and neither depends on K.
    """
    totals = getattr(part, "_remote_totals", None)
    if totals is None:
        traces = part.node_traces()
        unique = np.array([t.unique_remote_count() for t in traces],
                          dtype=np.int64)
        unique.setflags(write=False)
        candidates = int(sum(t.remote.sum() for t in traces))
        totals = part._remote_totals = (unique, candidates)
    return totals


def saopt_pr_counts(
    matrix,
    config: Optional[NetSparseConfig] = None,
    exclude_cols: Optional[np.ndarray] = None,
):
    """PR counts after perfect *per-rank* offline filtering.

    Each node's nonzero trace is split into ``host_cores`` contiguous
    rank chunks; duplicates are eliminated within a chunk only (the
    Conveyors rank boundary).  Returns per-(node, rank) sent counts and
    per-(node, rank) served counts — the owner's rank that holds an idx
    serves the matching sends, so popular properties concentrate work
    on single ranks (the intra-node imbalance the paper calls out for
    arabic).

    ``exclude_cols`` (boolean mask over columns) removes columns served
    by another mechanism — the hybrid baseline's broadcast set.

    The counts do not depend on K, so they are memoized on the
    partition per (``host_cores``, exact mask bytes); the returned
    arrays are shared and read-only.
    """
    config = config or NetSparseConfig()
    part = cached_partition(matrix, config.n_nodes)
    if exclude_cols is not None:
        exclude_cols = np.asarray(exclude_cols, dtype=bool)
        key = (config.host_cores, exclude_cols.size,
               np.packbits(exclude_cols).tobytes())
    else:
        key = (config.host_cores, None)
    memo = getattr(part, "_saopt_counts", None)
    if memo is None:
        memo = part._saopt_counts = {}
    counts = memo.get(key)
    if counts is None:
        with telemetry.span("baselines.saopt.counts"):
            counts = _rank_dedup_counts(part, config.host_cores,
                                        exclude_cols)
        telemetry.count("baselines.saopt.counts.memo_builds")
        for arr in counts:
            arr.setflags(write=False)
        memo[key] = counts
    else:
        telemetry.count("baselines.saopt.counts.memo_hits")
    sent, served = counts
    return sent, served, part


def _rank_dedup_counts(part, cores: int, exclude_cols):
    """One sort per node over integer ``rank * n_cols + idx`` keys: a
    distinct key is exactly one rank's deduplicated PR."""
    n, n_cols = part.n_nodes, part.matrix.n_cols
    col_starts = part.col_starts
    own_cols = np.diff(col_starts)
    sent = np.zeros((n, cores), dtype=np.int64)
    served = np.zeros(n * cores, dtype=np.int64)
    for node, tr in enumerate(part.node_traces()):
        idxs = tr.remote_idxs
        if exclude_cols is not None and idxs.size:
            idxs = idxs[~exclude_cols[idxs]]
        if idxs.size == 0:
            continue
        # Rank c scans positions [edges[c], edges[c+1]); empty chunks
        # (traces shorter than host_cores) repeat nothing.
        chunk_edges = np.linspace(0, idxs.size, cores + 1, dtype=np.int64)
        ranks = np.repeat(np.arange(cores, dtype=np.int64),
                          np.diff(chunk_edges))
        # Sort-and-compare, not np.unique: numpy 2.x's hash-based
        # unique is ~30x slower on these keys.
        keys = ranks * n_cols + idxs
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rank_u, uniq_idx = np.divmod(keys, n_cols)
        sent[node] = np.bincount(rank_u, minlength=cores)
        owners_u = np.searchsorted(col_starts, uniq_idx, side="right") - 1
        # The serving rank is the one owning the idx's column slice.
        offset = uniq_idx - col_starts[owners_u]
        rank_span = np.maximum(own_cols[owners_u] // cores, 1)
        serve_rank = np.minimum(offset // rank_span, cores - 1)
        served += np.bincount(owners_u * cores + serve_rank,
                              minlength=n * cores)
    return sent, served.reshape(n, cores)


def simulate_saopt(
    matrix,
    k: int,
    config: Optional[NetSparseConfig] = None,
    scale: float = 1.0,
) -> CommResult:
    """Simulate one iteration's communication under idealized SA software.

    ``scale`` is the matrix's nnz over the paper matrix's nnz (see
    DESIGN.md).  Request-side PR counts shrink with the matrix, but the
    *serve-side* hot-rank counts saturate at the number of requester
    ranks (a popular property is served once per rank that wants it,
    regardless of matrix size), so the serve term — like every other
    scale-invariant time constant — is multiplied by ``scale`` to keep
    ratios faithful to paper scale.
    """
    config = config or NetSparseConfig()
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = config.n_nodes
    payload = config.property_bytes(k)
    sent_ranks, served_ranks, part = saopt_pr_counts(matrix, config)
    sent_prs = sent_ranks.sum(axis=1)
    served_prs = served_ranks.sum(axis=1)

    pr_cost = config.sw_pr_cost(payload)
    # Two-sided Conveyors: a node finishes when its slowest rank has
    # handled its own requests plus the sends it owes other nodes.
    sw_time = (sent_ranks + served_ranks * scale).max(axis=1) * pr_cost

    recv_payload = sent_prs.astype(np.float64) * payload
    sent_payload = served_prs.astype(np.float64) * payload
    wire_floor = np.maximum(recv_payload, sent_payload) / config.link_bandwidth
    per_node_time = np.maximum(sw_time, wire_floor)

    unique_remote, n_candidates = remote_totals(part)

    return CommResult(
        scheme="saopt",
        matrix_name=matrix.name,
        k=k,
        n_nodes=n,
        total_time=float(per_node_time.max()),
        per_node_time=per_node_time,
        recv_wire_bytes=recv_payload,
        sent_wire_bytes=sent_payload,
        useful_payload_bytes=(unique_remote * payload).astype(np.float64),
        link_bandwidth=config.link_bandwidth,
        n_pr_candidates=n_candidates,
        n_prs_issued=int(sent_prs.sum()),
        extras={"sw_time": sw_time},
    )
