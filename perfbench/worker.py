"""Run one workload in this process and write its measurements as JSON.

``run.py`` launches this file in a fresh process with a pinned
environment; it is not meant to be called by hand.  The flow:

1. set up (cold matrix generation plus trace build) at least
   ``SETUP_REPS`` times and until ``SETUP_MIN_S`` seconds of set-up
   were timed — all but the last in forked children — and keep the
   median;
2. run whole passes, each in a forked child of the set-up process,
   until ``--seconds`` have passed and at least ``MIN_PASSES`` ran;
3. check every output and that every pass gives the same simulated
   statistics.

A host probe runs between every two timed units, and each set-up and
pass time is scaled to the reference host by the probes around it
(:class:`HostClock`); the unscaled times are reported beside them.

With ``--trace 1`` untraced and traced passes alternate instead; the
traced ones record spans around the layer calls (:mod:`spans`) and
give the per-layer metrics, and the difference between the two kinds
of pass is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List

import numpy as np

#: Variables that select non-default program paths or carry state
#: between runs; ``run.py`` strips them and the worker refuses to run
#: if one is still set.
PINNED_ENV = ("REPRO_BATCH", "REPRO_KERNELS", "REPRO_STORE_DSN",
              "REPRO_TRACE_SPILL_NNZ", "REPRO_SUITE_CACHE_NNZ",
              "REPRO_BATCH_MEMO_MB", "REPRO_SHARDED_SCALES",
              "NETSPARSE_CACHE_DIR")

SETUP_REPS = 3
#: Short set-ups (``des``, ``serve``: ~0.2 s) repeat until this much
#: set-up time was timed, so their median rests on more samples.
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def run_forked(fn: Callable, *args):
    """``fn(*args)`` in a forked child; returns its (pickled) result.

    The child inherits the set-up state copy-on-write and takes every
    memo it warms with it when it exits, so each call starts from the
    same state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            payload = ("ok", fn(*args))
        except BaseException:
            payload = ("error", traceback.format_exc())
        try:
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        os.waitpid(pid, 0)
    status, value = pickle.loads(data) if data else ("error", "child died")
    if status != "ok":
        raise RuntimeError(f"forked child failed:\n{value}")
    return value


#: Probe time of the reference host.  Reported times are scaled to it:
#: ``setup_s`` and ``wall_s`` are the seconds the work would take on a
#: host on which :func:`host_probe` takes ``PROBE_REF_S``.
PROBE_REF_S = 0.009

_rng = np.random.default_rng(0)
#: 16 MB read at 200 000 random places: the probe's memory part.
_PROBE_TABLE = _rng.random(2_000_000)
_PROBE_IDX = _rng.integers(0, _PROBE_TABLE.size, 200_000)


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc += i * i % 7
    _PROBE_TABLE[_PROBE_IDX].sum()
    return time.perf_counter() - t0


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop plus a random gather from
    memory, the median of three tries.  It runs no repo code, so only
    the host moves it.  Of the parts tried, the loop tracked the pass
    times of ``headline`` and ``des`` best and the gather those of
    ``serve``; a ``np.unique`` part scattered them more than it
    steadied them."""
    return statistics.median(_probe_once() for _ in range(3))


class HostClock:
    """Times work in units and scales each unit to the reference host.

    The host's speed drifts by tens of percent within seconds to
    minutes, so a pass time alone says as much about the host as about
    the program.  The workloads therefore time their work in units of
    a second or two (one matrix each).  A probe runs before the first
    unit and after every unit and, with ``sample_s``, also every
    ``sample_s`` seconds inside a unit, from a ``SIGALRM`` handler.
    A unit's time, less the probes inside it, is divided by the mean of
    the probes that ran during and around it.  Probes are not timed
    work."""

    def __init__(self, sample_s: float = 0.0):
        self.sample_s = sample_s
        self.probes = [host_probe()]
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def measure(self, fn: Callable, *args):
        """``fn(*args)``, timed as one unit."""
        inside: List[float] = []
        if self.sample_s:
            previous = signal.signal(
                signal.SIGALRM, lambda *_: inside.append(_probe_once()))
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - t0
        before, after = self.probes[-1], host_probe()
        self.probes.append(after)
        seconds -= sum(inside)
        speed = statistics.mean([before, after] + inside)
        self.raw_s += seconds
        self.scaled_s += seconds * PROBE_REF_S / speed
        return out

    def times(self) -> dict:
        return {"wall_s": self.raw_s, "scaled_wall_s": self.scaled_s,
                "probes": self.probes}


def provenance() -> dict:
    from repro.store.provenance import git_sha

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


# A traced set-up or pass probes only between units: a probe inside a
# unit would add its time to the self time of the span it lands in.


def _setup(workload, tracer=None) -> dict:
    clock = HostClock(0.0 if tracer else workload.sample_s)
    workload.setup(clock, tracer)
    return clock.times()


def _pass(workload, traced: bool = False) -> dict:
    clock = HostClock(0.0 if traced else workload.sample_s)
    result = workload.run_pass(clock)
    result.update(clock.times())
    return result


def _traced_pass(workload, run_id: str) -> dict:
    from spans import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        result = _pass(workload, traced=True)
    finally:
        tracer.uninstall()
    result["spans"] = tracer.spans
    return result


def _tail(latencies: List[float]):
    """``(value, percentile)`` at the highest percentile that has at
    least ten samples beyond it (the maximum for fewer samples)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_values(p: dict, matrices) -> Dict[str, float]:
    """Every per-layer number one pass yields (0 where a layer is unused)."""
    from spans import self_times

    st = self_times(p.get("spans", []))

    def self_s(name):
        return st.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    c = p["counters"]
    out = {}
    for scheme in ("saopt", "hybrid", "suopt"):
        out[f"baselines.{scheme}_s"] = self_s(f"baselines.simulate_{scheme}")
        out[f"baselines.{scheme}_calls"] = calls(
            f"baselines.simulate_{scheme}")
    out["cluster.netsparse_s"] = self_s("cluster.simulate_netsparse")
    out["cluster.netsparse_calls"] = calls("cluster.simulate_netsparse")
    for memo, s in sorted(c["memos"].items()):
        out[f"cluster.memo.{memo}.hit_ratio"] = _ratio(
            s["hits"], s["hits"] + s["misses"])
    out["cluster.memo.bytes"] = sum(s["bytes"] for s in c["memos"].values())
    prof = c["profile"]
    for key in ("profiles_built", "closed_form", "hybrid", "delegated"):
        out[f"core.reusedist.{key}"] = prof[key]
    out["core.reusedist.score_s"] = prof["score_seconds"]
    eng = c["engine"]
    for key in ("executed", "memo_hits", "cache_hits", "batched"):
        out[f"parallel.engine.{key}"] = eng.get(key, 0)
    out["parallel.batch.fold_ratio"] = _ratio(eng.get("batched", 0),
                                              prof["profiles_built"])
    out["parallel.engine.overhead_s"] = self_s(
        "parallel.ExecutionEngine.run_jobs")
    out["sparse.memo_hits"] = c["suite"]["hits"]
    out["sparse.memo_misses"] = c["suite"]["misses"]
    out["sparse.resident_nnz"] = c["suite"]["resident_nnz"]
    for key in ("hits", "misses", "evictions", "spills"):
        out[f"partition.trace_cache.{key}"] = c["trace_cache"][key]

    des = p.get("des", {})
    out["sim.events"] = des.get("events", 0)
    out["dessim.gather_s"] = des.get("gather_s", 0.0)
    for key in ("prs_issued", "prs_dropped", "cache_turnarounds",
                "fabric_packets"):
        out[f"dessim.{key}"] = des.get(key, 0)
    out["des_events_per_s"] = _ratio(des.get("events", 0),
                                     des.get("gather_s", 0.0))
    model = des.get("model", {})
    gap_prs = gap_bytes = 0.0
    for name in matrices:
        m = model.get(name, {})
        for key in ("des_prs", "trace_prs", "des_bytes", "trace_bytes"):
            out[f"model.{name}.{key}"] = m.get(key, 0)
        if m:
            gap_prs = max(gap_prs, abs(m["trace_prs"] - m["des_prs"])
                          / m["des_prs"])
            gap_bytes = max(gap_bytes, abs(m["trace_bytes"] - m["des_bytes"])
                            / m["des_bytes"])
    out["model_gap_prs"] = gap_prs
    out["model_gap_bytes"] = gap_bytes

    svc = c.get("service", {})
    submit = st.get("service.ServiceClient.submit", {}).get("durations", [])
    wait = st.get("service.ServiceClient.wait", {}).get("durations", [])
    out["service.submit_ms_p50"] = 1e3 * statistics.median(submit) if submit else 0.0
    out["service.wait_ms_p50"] = 1e3 * statistics.median(wait) if wait else 0.0
    for key in ("coalesced", "cache_hits", "rejected"):
        out[f"service.{key}"] = svc.get(key, 0)
    store = c.get("store", {})
    out["store.results_rows"] = store.get("results", 0)
    out["store.ledger_rows"] = store.get("ledger", 0)
    out["req_per_s"] = (p["sims"] / p["wall_s"]) if "latencies" in p else 0.0
    return out


def _median_dict(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _latency_values(passes: List[dict]) -> Dict[str, float]:
    lat = [x for p in passes for x in p.get("latencies", [])]
    if not lat:
        return {"latency_p50_ms": 0.0, "latency_tail_ms": 0.0,
                "latency_tail_pct": 0.0, "latency_samples": 0}
    value, pct = _tail(lat)
    return {"latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * value,
            "latency_tail_pct": pct,
            "latency_samples": len(lat)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool,
        reduced: bool = False) -> dict:
    """Measure one workload; returns metrics, report values and spans."""
    from repro import telemetry
    from workloads import WORKLOADS

    leaked = [var for var in PINNED_ENV if var in os.environ]
    if leaked:
        raise RuntimeError(f"pinned variables are set: {leaked}")
    if telemetry.enabled():
        raise RuntimeError("repro.telemetry must stay off")

    workload = WORKLOADS[name](seed, reduced=reduced)
    run_id = f"{name}-s{seed}-{os.getpid()}"
    all_spans: List[dict] = []

    if trace:
        from spans import Tracer

        tracer = Tracer(f"{run_id}/setup")
        tracer.install()
        try:
            setups = [_setup(workload, tracer)]
        finally:
            tracer.uninstall()
        setup_spans = tracer.spans
        all_spans += setup_spans
    else:
        setups = []
        while (len(setups) < SETUP_REPS - 1
               or (sum(s["wall_s"] for s in setups) < SETUP_MIN_S
                   and len(setups) < SETUP_MAX_REPS - 1)):
            setups.append(run_forked(_setup, workload))
        setups.append(_setup(workload))
        setup_spans = []
    # Free the set-up's garbage before the passes fork. Left alone, how
    # much of it survives depends on where the collector's thresholds
    # fell, which made peak_rss_mb on des differ by 15% from seed to
    # seed; the passes still collect as the program always does.
    gc.collect()
    workload.prepare(run_forked)

    plain: List[dict] = []
    traced: List[dict] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if trace:
            if (elapsed >= seconds and len(plain) >= MIN_TRACED_PASSES
                    and len(traced) >= MIN_TRACED_PASSES):
                break
            if len(plain) <= len(traced):
                plain.append(run_forked(_pass, workload))
            else:
                pass_id = f"{run_id}/pass{len(plain) + len(traced)}"
                traced.append(run_forked(_traced_pass, workload, pass_id))
        else:
            if elapsed >= seconds and len(plain) >= MIN_PASSES:
                break
            plain.append(run_forked(_pass, workload))

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    digest = passes[0]["digest"]
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        if p["digest"] != digest:
            kind = "traced" if i >= len(plain) else "untraced"
            failures.append(f"pass {i} ({kind}) simulated statistics differ "
                            "from pass 0")
    failed = len(failures)

    from repro.sparse.suite import MATRIX_NAMES

    wall_s = statistics.median(p["scaled_wall_s"] for p in plain)
    sims = plain[0]["sims"]
    values = _median_dict([pass_values(p, MATRIX_NAMES) for p in plain])
    values.update(_latency_values(plain))
    report = {key: values[key] for key in (
        "des_events_per_s", "model_gap_prs", "model_gap_bytes", "req_per_s",
        "latency_p50_ms", "latency_tail_ms", "latency_tail_pct",
        "latency_samples")}
    report.update({
        "failed_frac": failed / attempted,
        "host.calib_s": statistics.median(
            x for u in setups + passes for x in u["probes"]),
        "sim_digest": digest,
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_scaled_s": [p["scaled_wall_s"] for p in plain],
        "raw_setup_s": statistics.median(s["wall_s"] for s in setups),
        "raw_wall_s": statistics.median(p["wall_s"] for p in plain),
        "traced_passes": len(traced),
        "setup_reps": len(setups),
        **provenance(),
    })
    metrics = {
        "setup_s": statistics.median(s["scaled_wall_s"] for s in setups),
        "wall_s": wall_s,
        "sims_per_s": sims / wall_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        from spans import self_times

        layer = _median_dict([pass_values(p, MATRIX_NAMES) for p in traced])
        layer.update(_latency_values(traced))
        st = self_times(setup_spans)
        layer["sparse.load_s"] = st.get("sparse.load_benchmark",
                                        {}).get("self_s", 0.0)
        layer["partition.build_s"] = sum(
            st.get(n, {}).get("self_s", 0.0)
            for n in ("partition.cached_partition", "partition.trace_build"))
        layer["failed_frac"] = report["failed_frac"]
        layer["trace.overhead_s"] = (
            statistics.median(p["scaled_wall_s"] for p in traced) - wall_s)
        layer["host.calib_s"] = report["host.calib_s"]
        for p in traced:
            all_spans += p["spans"]
        metrics = layer
    return {"metrics": metrics, "report": report, "attempted": attempted,
            "failed": failed, "failures": failures[:20], "spans": all_spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    if spans:
        with open(args.spans, "w") as fh:
            json.dump({"spans": spans}, fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
