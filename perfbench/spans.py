"""Span recording from the benchmark's own code.

The benchmark never turns on ``repro.telemetry`` (when it is on,
``simulate_netsparse`` skips its whole-simulation memo, so a traced run
would measure a different program).  Instead a :class:`Tracer` wraps
the public functions each layer exposes and records one span per call:
name, start, end, parent span and run id.  Spans stay in memory; the
harness writes them to disk once, when the run ends.

A layer's *self time* is the duration of its spans minus the part
covered by their child spans (spans recorded on the same thread while
the parent was open).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: ``(module, attribute path, span name)`` for every layer boundary the
#: traced run records.  Module-level functions are replaced wherever a
#: module has bound them (``from x import f`` copies), methods on their
#: class.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sparse.suite", "load_benchmark", "sparse.load_benchmark"),
    ("repro.partition.tracecache", "cached_partition",
     "partition.cached_partition"),
    ("repro.cluster.model", "simulate_netsparse", "cluster.simulate_netsparse"),
    ("repro.baselines.saopt", "simulate_saopt", "baselines.simulate_saopt"),
    ("repro.baselines.su", "simulate_suopt", "baselines.simulate_suopt"),
    ("repro.baselines.hybrid", "simulate_hybrid", "baselines.simulate_hybrid"),
    ("repro.parallel.engine", "ExecutionEngine.run_jobs",
     "parallel.ExecutionEngine.run_jobs"),
    ("repro.dessim.cluster", "DesCluster.run_gather",
     "dessim.DesCluster.run_gather"),
    ("repro.service.client", "ServiceClient.submit",
     "service.ServiceClient.submit"),
    ("repro.service.client", "ServiceClient.wait", "service.ServiceClient.wait"),
)


class Tracer:
    """In-memory span recorder; thread-safe, one instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer call; :meth:`uninstall` restores them."""
        for module_name, path, span_name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, span_name)
                continue
            original = getattr(module, path)
            traced = self.wrap(span_name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(path) is original:
                    self._replace(mod, path, original, traced)

    def _patch(self, owner, attr: str, span_name: str) -> None:
        original = owner.__dict__[attr]
        self._replace(owner, attr, original, self.wrap(span_name, original))

    def _replace(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        with tracer._lock:
            self.index = len(tracer.spans)
            tracer.spans.append({
                "id": self.index, "name": self.name,
                "start": None, "end": None,
                "parent": stack[-1] if stack else None,
                "run_id": tracer.run_id,
                "thread": threading.get_ident(),
            })
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        record = self.tracer.spans[self.index]
        record["start"], record["end"] = self.start, end
        return False


def self_times(spans: List[dict]) -> Dict[str, dict]:
    """``{span name: {"calls", "total_s", "self_s", "durations"}}``."""
    child_time = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None and sp["end"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out: Dict[str, dict] = {}
    for i, sp in enumerate(spans):
        if sp["end"] is None:
            continue
        dur = sp["end"] - sp["start"]
        agg = out.setdefault(sp["name"], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time[i]
        agg["durations"].append(dur)
    return out
