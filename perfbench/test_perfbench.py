"""The benchmark's own tests.

Run from the checkout root:  ``python3 -m pytest perfbench -q``  (~1.5 min).

They run a reduced-size pass of every workload, check that every
declared metric is emitted with its unit, and feed each output check a
corrupted input to prove it fires.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The report-only figures and the workloads on which each must be set.
REPORTED_ON = {
    "des_events_per_s": {"des"},
    "model_gap_prs": {"des"},
    "model_gap_bytes": {"des"},
    "req_per_s": {"serve"},
    "latency_p50_ms": {"serve"},
    "latency_tail_ms": {"serve"},
}


@pytest.fixture(autouse=True)
def _unpinned_env(monkeypatch):
    for var in worker.PINNED_ENV:
        monkeypatch.delenv(var, raising=False)


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_run_emits_every_metric(name, trace):
    result = worker.run(name, seed=3, seconds=0, trace=bool(trace),
                        reduced=True)
    assert result["failed"] == 0, result["failures"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    line = run.result_line(result, declared)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    report = result["report"]
    assert report["failed_frac"] == 0
    for key, where in REPORTED_ON.items():
        assert (report[key] > 0) == (name in where), key
    if trace:
        assert result["spans"], "traced run recorded no spans"
        assert {"name", "start", "end", "parent", "run_id"} <= set(
            result["spans"][0])


def test_pass_digest_mismatch_is_counted(monkeypatch):
    class Unsteady(workloads.Workload):
        name = "unsteady"

        def setup(self, clock, tracer=None):
            pass

        def run_pass(self, clock):
            clock.measure(time.sleep, 0.01)
            return {"sims": 1, "attempted": 1,
                    "failures": [], "digest": str(os.getpid()),
                    "counters": workloads.layer_counters(None)}

    monkeypatch.setitem(workloads.WORKLOADS, "unsteady", Unsteady)
    result = worker.run("unsteady", seed=1, seconds=0, trace=True)
    assert result["failed"] == 3          # 4 passes, 3 differ from pass 0
    assert "traced" in " ".join(result["failures"])


# -- each check fires on a corrupted input --------------------------------


def _tiny_result():
    from repro.parallel import simulate

    return simulate("suopt", "europe", 4, scale_name="tiny")


def test_comm_result_check_fires_on_perturbed_total_time():
    res = _tiny_result()
    assert checks.check_comm_result(res) is None
    for bad in (float("nan"), float("inf"), 0.0, -res.total_time):
        assert checks.check_comm_result(replace(res, total_time=bad))
    assert checks.check_comm_result({"total_time": 1.0})


def test_delivered_check_fires_on_dropped_idx():
    requested = {0: [3, 5, 9], 1: [2]}
    assert checks.check_delivered(requested, {0: [9, 5, 3], 1: [2]}) is None
    assert checks.check_delivered(requested, {0: [3, 5], 1: [2]})
    assert checks.check_delivered(requested, {0: [3, 5, 9]})


def test_served_check_fires_on_mismatched_payload():
    from repro.service.protocol import decode_result, encode_result

    res = _tiny_result()
    direct = checks.stats_digest(res)
    payload = json.loads(json.dumps(encode_result(res)))
    assert checks.check_served(checks.stats_digest(decode_result(payload)),
                               direct) is None
    bad = decode_result(payload)
    bad.recv_wire_bytes[0] += 1
    assert checks.check_served(checks.stats_digest(bad), direct)
    assert checks.check_served(direct, None)


# -- each workload runs its checks on what it actually sees ---------------


def test_des_workload_counts_a_dropped_delivered_idx(monkeypatch):
    from repro.dessim import DesCluster

    original = DesCluster.run_gather

    def dropping(self, requested):
        res = original(self, requested)
        node = min(res.received)
        res.received[node] = res.received[node][1:]
        return res

    monkeypatch.setattr(DesCluster, "run_gather", dropping)
    result = worker.run("des", seed=3, seconds=0, trace=False, reduced=True)
    assert result["failed"] > 0
    assert any("delivered set differs" in f for f in result["failures"])


def test_serve_workload_counts_a_perturbed_served_result(monkeypatch):
    from repro.service.protocol import JobResult

    original = JobResult.comm_result

    def perturbed(self):
        res = original(self)
        return replace(res, total_time=res.total_time * (1 + 1e-12))

    monkeypatch.setattr(JobResult, "comm_result", perturbed)
    result = worker.run("serve", seed=3, seconds=0, trace=False, reduced=True)
    assert result["failed"] > 0
    assert any("differs from the direct-engine" in f
               for f in result["failures"])


# -- the command, run from the checkout root ------------------------------


def test_command_pins_environment_and_prints_result_line(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "0")   # must be stripped
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr[-2000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
