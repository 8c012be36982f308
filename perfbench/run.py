"""The repo benchmark: one workload per run, each in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 15 --trace 0

prints the workload's end-to-end metrics (``--trace 1``: its per-layer
metrics, from a separate traced run) and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``--workload`` every workload runs in turn and a
table of every metric is printed instead.  Metric names, units and
bounds live in ``BENCHMARK.json``; ``perfbench/METRICS.md`` explains
each one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import PINNED_ENV  # noqa: E402

#: A run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170

#: Figures printed beside the end-to-end metrics on every run: the
#: ones that exist on one workload only, the failure ratio and the host
#: calibration.  They are per-layer metrics too (units from there).
REPORTED = ("failed_frac", "des_events_per_s", "model_gap_prs",
            "model_gap_bytes", "req_per_s", "latency_p50_ms",
            "latency_tail_ms", "host.calib_s")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def launch(root: Path, workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    """Run ``worker.py`` for one workload in a fresh process with the
    pinned environment and a private scratch directory; returns its
    result dict."""
    state = root / ".perfbench"
    run_dir = state / f"run-{os.getpid()}-{workload}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    (state / "spans").mkdir(parents=True, exist_ok=True)
    out = run_dir / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out),
           "--spans", str(state / "spans" / f"{workload}-s{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr,
                            start_new_session=True)

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        try:
            rc = proc.wait(timeout=RUN_TIMEOUT_S)
        except BaseException as exc:
            # Timed out or signalled: stop the worker together with its
            # forked pass children (they share its session), then reap it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(
                    f"{workload} did not finish in {RUN_TIMEOUT_S}s") from None
            raise
        if rc != 0:
            _kill_session(proc.pid)   # a pass child may outlive a crash
            raise RuntimeError(f"{workload} worker exited with code {rc}")
        return json.loads(out.read_text())
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(run_dir, ignore_errors=True)


def _kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def result_line(result: dict, declared: list) -> dict:
    """The result line printed last: exactly the declared metrics."""
    metrics = {}
    for m in declared:
        if m["name"] not in result["metrics"]:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def describe(workload: str, result: dict, declared: list, units: dict) -> str:
    lines = [f"== {workload}"]
    for m in declared:
        lines.append(f"  {m['name']:<34} {result['metrics'][m['name']]:>14.6g}"
                     f" {m['unit']}")
    rep = result["report"]
    for name in REPORTED:
        if rep[name] or name == "failed_frac":
            lines.append(f"  {name:<34} {rep[name]:>14.6g} {units[name]}")
    if rep["latency_samples"]:
        lines.append(f"  latency tail = p{rep['latency_tail_pct']:.2f} of "
                     f"{rep['latency_samples']} samples")
    lines.append(f"  sim_digest {rep['sim_digest']}")
    lines.append("  pass walls (s): " + " ".join(
        f"{w:.3f}" for w in rep["pass_wall_s"]))
    lines.append("  scaled to the reference host (s): " + " ".join(
        f"{w:.3f}" for w in rep["pass_scaled_s"]))
    lines.append(f"  unscaled setup_s {rep['raw_setup_s']:.4g} s, "
                 f"wall_s {rep['raw_wall_s']:.4g} s")
    lines.append("  passes={passes} traced_passes={traced_passes} "
                 "setup_reps={setup_reps} git={git_sha} python={python} "
                 "numpy={numpy} nproc={nproc}".format(**rep))
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not bench_file.is_file():
        return _fail("run from the checkout root (BENCHMARK.json not found)")
    if not (root / "src" / "repro").is_dir():
        return _fail("no program source at src/repro in this directory")
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    try:
        if args.workload:
            result = launch(root, args.workload, args.seed, args.seconds,
                            args.trace)
            line = result_line(result, declared)
            print(describe(args.workload, result, declared, units))
            print(json.dumps(line))
            return 0
        ok = True
        for workload in names:
            result = launch(root, workload, args.seed, args.seconds,
                            args.trace)
            result_line(result, declared)
            print(describe(workload, result, declared, units), flush=True)
            ok = ok and result["failed"] == 0
        return 0 if ok else 1
    except RuntimeError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
