"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (the matrix
generator seed and, for ``serve``, the request stream), sets up in the
calling process, and then runs *passes*: one fixed unit of work, timed
and checked.  The harness runs every pass in a forked child of the
set-up process, so each pass sees warm matrices and partition traces
(set-up) but cold simulation memos, exactly like a fresh run of the
same experiment.  Set-up and passes time their work one matrix at a
time through the harness's ``clock`` (``worker.HostClock``), which
probes the host's speed between the units.

Why these four:

- ``headline``   — the paper's main result (Fig. 12/13 grid); the
  baselines take most of the time.
- ``knob_sweep`` — the Fig. 17/18 knob grid; exercises the single-pass
  sweep machinery (batch planner, reuse profiles, cluster memos) and
  does no baseline work.
- ``des``        — the only workload where the packet-level DES runs;
  also measures the trace model's gap to it.
- ``serve``      — the only workload for the job service and the store.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.config import NetSparseConfig
from repro.parallel import (
    ExecutionEngine,
    ResultCache,
    SimJob,
    engine_scope,
    simulate_many,
)
from repro.partition import cached_partition, col_owner_array, get_trace_cache
from repro.sparse.suite import (
    BENCHMARKS,
    MATRIX_NAMES,
    load_benchmark,
    suite_cache_stats,
)

import checks

SCHEMES = ("netsparse", "saopt", "suopt", "hybrid")


def layer_counters(engine: Optional[ExecutionEngine]) -> dict:
    """Counters the layers already expose, read at the end of a pass."""
    from repro.cluster import model

    batch = model.batch_stats()
    profile = batch.pop("profile")
    stats = engine.stats if engine is not None else None
    return {
        "engine": stats.as_dict() if stats is not None else {},
        "memos": batch,
        "profile": profile,
        "trace_cache": get_trace_cache().stats(),
        "suite": suite_cache_stats(),
    }


class Workload:
    """Shared shape: ``setup`` then any number of ``run_pass``."""

    name = ""
    scale = "small"
    n_nodes = NetSparseConfig().n_nodes
    #: Seconds between host probes inside a timed unit (0: none).
    sample_s = 0.25

    def __init__(self, seed: int, reduced: bool = False):
        self.seed = int(seed)
        self.reduced = reduced
        self.matrices = MATRIX_NAMES[:2] if reduced else MATRIX_NAMES
        if reduced:
            self.scale = "tiny"

    def setup(self, clock, tracer=None) -> None:
        """Cold matrix generation plus partition-trace build."""
        for name in self.matrices:
            clock.measure(self._setup_matrix, name, tracer)

    def _setup_matrix(self, name: str, tracer) -> None:
        mat = load_benchmark(name, self.scale, seed=self.seed)
        part = cached_partition(mat, self.n_nodes)
        with (tracer.span("partition.trace_build") if tracer
              else nullcontext()):
            part.node_traces()

    def prepare(self, run_forked) -> None:
        """Work done once after set-up, outside every timed region."""

    def run_pass(self, clock) -> dict:
        raise NotImplementedError


class _JobGrid(Workload):
    """A fixed job grid through ``simulate_many`` on a serial, uncached
    engine (the path ``netsparse run`` takes by default)."""

    def jobs(self) -> List[SimJob]:
        raise NotImplementedError

    def run_pass(self, clock) -> dict:
        jobs = self.jobs()
        engine = ExecutionEngine(jobs=1)
        results = []
        with engine_scope(engine):
            # One matrix per timed unit (``jobs`` lists them matrix by
            # matrix); the planner never batches two matrices together.
            for name in self.matrices:
                results += clock.measure(
                    simulate_many, [j for j in jobs if j.matrix == name])
        failures = [err for err in map(checks.check_comm_result, results)
                    if err]
        return {
            "sims": len(jobs),
            "attempted": len(jobs),
            "failures": failures,
            "digest": checks.digest_of_digests(
                {job.digest(): checks.stats_digest(res)
                 for job, res in zip(jobs, results)}),
            "counters": layer_counters(engine),
        }


class Headline(_JobGrid):
    name = "headline"
    ks = (1, 16, 128)

    def jobs(self) -> List[SimJob]:
        cfg = NetSparseConfig()
        ks = self.ks[:2] if self.reduced else self.ks
        return [
            SimJob(scheme=s, matrix=m, k=k, config=cfg, scale_name=self.scale,
                   seed=self.seed,
                   rig_batch=(BENCHMARKS[m].default_rig_batch
                              if s == "netsparse" else None))
            for m in self.matrices for k in ks for s in SCHEMES
        ]


class KnobSweep(_JobGrid):
    """Fig. 18 cache sizes (MB, paper scale; 0 = no cache, -1 = infinite)
    crossed with Fig. 17 concat delays (cycles; 0 = no concatenation)."""

    name = "knob_sweep"
    sizes_mb = (0, 2, 8, 32, 128, -1)
    delays = (0, 100, 500, 2000, 10_000)
    k = 16

    @staticmethod
    def config(size_mb: int, delay: int) -> NetSparseConfig:
        cfg = NetSparseConfig()
        if size_mb == 0:
            cfg = cfg.with_features(property_cache=False)
        else:
            cfg = replace(cfg, pcache_bytes=(1 << 40) if size_mb < 0
                          else size_mb * 1024 * 1024)
        if delay == 0:
            return cfg.with_features(concat_nic=False, concat_switch=False)
        return replace(cfg, concat_delay_cycles_nic=delay,
                       concat_delay_cycles_switch=max(delay // 4, 1))

    def jobs(self) -> List[SimJob]:
        sizes = self.sizes_mb[::2] if self.reduced else self.sizes_mb
        delays = self.delays[:2] if self.reduced else self.delays
        return [
            SimJob(scheme="netsparse", matrix=m, k=self.k,
                   config=self.config(mb, d), scale_name=self.scale,
                   seed=self.seed, rig_batch=BENCHMARKS[m].default_rig_batch)
            for m in self.matrices for d in delays for mb in sizes
        ]


class Des(Workload):
    """Packet-level gathers on the 2x4 DES cluster at K=1, plus the
    matching 8-node trace-model runs (as ``des_validation`` pairs them)."""

    name = "des"
    scale = "tiny"
    n_racks, nodes_per_rack, k = 2, 4, 1
    n_nodes = n_racks * nodes_per_rack

    def trace_jobs(self) -> List[SimJob]:
        cfg = NetSparseConfig(n_nodes=self.n_nodes, n_racks=self.n_racks,
                              nodes_per_rack=self.nodes_per_rack)
        return [
            SimJob(scheme="netsparse", matrix=m, k=self.k, config=cfg,
                   scale_name=self.scale, seed=self.seed, scale=0.01,
                   topology=("leafspine", self.n_racks,
                             self.nodes_per_rack, 1))
            for m in self.matrices
        ]

    def _gather(self, name: str):
        """One matrix's DES gather: ``(requested, result, events, host
        seconds in run_gather)``."""
        from repro.dessim import DesCluster

        mat = load_benchmark(name, self.scale, seed=self.seed)
        part = cached_partition(mat, self.n_nodes)
        cluster = DesCluster(
            n_racks=self.n_racks, nodes_per_rack=self.nodes_per_rack,
            k=self.k, n_cols=mat.n_cols, col_owner=col_owner_array(part))
        requested = {node: tr.remote_idxs.tolist()
                     for node, tr in enumerate(part.node_traces())
                     if tr.remote.any()}
        g0 = time.perf_counter()
        res = cluster.run_gather(requested)
        gather_s = time.perf_counter() - g0
        return requested, res, cluster.sim.events_dispatched, gather_s

    def run_pass(self, clock) -> dict:
        failures, digests, per_matrix = [], {}, {}
        events = 0
        gather_s = 0.0
        for name in self.matrices:
            requested, res, n_events, seconds = clock.measure(
                self._gather, name)
            events += n_events
            gather_s += seconds
            err = checks.check_delivered(requested, res.received)
            if err:
                failures.append(f"{name}: {err}")
            per_matrix[name] = res
        engine = ExecutionEngine(jobs=1)
        jobs = self.trace_jobs()
        with engine_scope(engine):
            traces = clock.measure(simulate_many, jobs)
        failures += [err for err in map(checks.check_comm_result, traces)
                     if err]

        model = {}
        for name, tr in zip(self.matrices, traces):
            des = per_matrix[name]
            model[name] = {
                "des_prs": int(des.issued_prs),
                "trace_prs": int(tr.n_prs_issued),
                "des_bytes": float(des.host_down_bytes.sum()),
                "trace_bytes": float(tr.recv_wire_bytes.sum()),
            }
            digests[f"des:{name}"] = checks.stats_digest([
                des.finish_time, des.received, des.issued_prs,
                des.dropped_prs, des.cache_turnarounds, des.host_up_bytes,
                des.host_down_bytes, des.fabric_bytes,
                des.total_prs_on_fabric, des.fabric_packets])
        for job, tr in zip(jobs, traces):
            digests[job.digest()] = checks.stats_digest(tr)
        des_all = list(per_matrix.values())
        return {
            "sims": 2 * len(self.matrices),
            "attempted": 2 * len(self.matrices),
            "failures": failures,
            "digest": checks.digest_of_digests(digests),
            "counters": layer_counters(engine),
            "des": {
                "events": events,
                "gather_s": gather_s,
                "prs_issued": sum(r.issued_prs for r in des_all),
                "prs_dropped": sum(r.dropped_prs for r in des_all),
                "cache_turnarounds": sum(r.cache_turnarounds
                                         for r in des_all),
                "fabric_packets": sum(r.fabric_packets for r in des_all),
                "model": model,
            },
        }


class Serve(Workload):
    """Closed loop from one process: two client connections, each
    sending its next single-job request only after the previous one
    completed, against a ``JobServer`` (engine ``jobs=2``, a temporary
    ``ResultCache`` and a temporary SQLite store).  Requests draw from a
    pool of 40 distinct tiny jobs, so about 90% are repeats.  The loop
    runs in ``rounds`` timed units; between two, both clients wait for
    the host probe."""

    name = "serve"
    scale = "tiny"
    # A probe inside the closed loop would measure the client and server
    # threads it competes with for the interpreter, not the host.
    sample_s = 0.0
    ks = (4, 32)
    clients = 2
    requests_per_client = 200
    rounds = 10

    def __init__(self, seed: int, reduced: bool = False):
        super().__init__(seed, reduced)
        pool = [dict(scheme=s, matrix=m, k=k, scale_name=self.scale,
                     seed=self.seed)
                for s in SCHEMES for m in self.matrices for k in self.ks]
        n = 20 if reduced else self.requests_per_client
        rng = np.random.default_rng(self.seed)
        self.streams = [[pool[i] for i in rng.integers(0, len(pool), n)]
                        for _ in range(self.clients)]
        self.reference: Dict[str, str] = {}

    def _sim_jobs(self) -> Dict[str, SimJob]:
        from repro.service.protocol import JobRequest

        out = {}
        for stream in self.streams:
            for req in stream:
                job = JobRequest.from_dict(req).to_sim_job()
                out[job.digest()] = job
        return out

    def prepare(self, run_forked) -> None:
        """Direct-engine reference results, computed in a forked child so
        the set-up process keeps cold simulation memos."""
        self.reference = run_forked(_direct_digests, self._sim_jobs())

    def run_pass(self, clock) -> dict:
        from repro.service import ServiceClient, serve_in_background
        from repro.store import Store

        tmp = tempfile.mkdtemp(prefix="serve-")
        store = Store.open(f"sqlite:///{os.path.join(tmp, 'store.db')}")
        engine = ExecutionEngine(
            jobs=2, cache=ResultCache(os.path.join(tmp, "cache"), store=store))
        bg = serve_in_background(engine)
        latencies: List[float] = []
        answers: List[tuple] = []
        errors: List[str] = []
        lock = threading.Lock()

        def client(c, stream):
            for req in stream:
                t = time.perf_counter()
                try:
                    status = c.submit(req)
                    res = c.wait(status.job_id, timeout=120)
                except Exception as exc:  # counted, not fatal
                    with lock:
                        errors.append(f"{req}: {exc!r}")
                    continue
                dt = time.perf_counter() - t
                with lock:
                    latencies.append(dt)
                    answers.append((res.digest, res))

        def closed_loop(chunks):
            threads = [threading.Thread(target=client, args=(c, chunk))
                       for c, chunk in zip(clients, chunks)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()

        clients = [ServiceClient(bg.url) for _ in self.streams]
        per_round = -(-len(self.streams[0]) // self.rounds)
        for start in range(0, len(self.streams[0]), per_round):
            clock.measure(closed_loop, [s[start:start + per_round]
                                        for s in self.streams])
        stats = ServiceClient(bg.url).stats()
        bg.stop()
        engine.close()
        counts = store.counts()
        store.close()

        failures = list(errors)
        served = {}
        for digest, answer in answers:
            res = answer.comm_result()
            got = checks.stats_digest(res)
            served[digest] = got
            err = (checks.check_served(got, self.reference.get(digest))
                   or checks.check_comm_result(res))
            if err:
                failures.append(f"{digest[:12]}: {err}")
        n_req = sum(len(s) for s in self.streams)
        counters = layer_counters(engine)
        svc = stats["service"]["counters"]
        counters["service"] = {key: svc.get(f"service.{key}", 0)
                               for key in ("coalesced", "cache_hits",
                                           "rejected")}
        counters["store"] = counts
        return {
            "sims": n_req,
            "attempted": n_req,
            "failures": failures,
            "digest": checks.digest_of_digests(served),
            "counters": counters,
            "latencies": latencies,
        }


def _direct_digests(jobs: Dict[str, SimJob]) -> Dict[str, str]:
    engine = ExecutionEngine(jobs=1)
    results = engine.run_jobs(list(jobs.values()))
    return {digest: checks.stats_digest(res)
            for digest, res in zip(jobs, results)}


WORKLOADS = {cls.name: cls for cls in (Headline, KnobSweep, Des, Serve)}
