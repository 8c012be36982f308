"""Output checks and the simulated-statistics digest.

Every operation a workload runs is checked; a failed check counts
toward ``failed`` in the result line and ``failed_frac`` in the report.
Each check returns ``None`` when the output is correct and a one-line
reason otherwise, so the benchmark's tests can feed it corrupted inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Dict, Iterable, Optional

import numpy as np


def _feed(h, obj) -> None:
    """Hash ``obj`` by value: arrays by dtype, shape and bytes, floats
    by ``repr`` (exact), containers recursively in a fixed order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"nd:{obj.dtype.str}:{obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f:{float(obj)!r}".encode())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(f"b:{bool(obj)}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i:{int(obj)}".encode())
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def stats_digest(obj) -> str:
    """Bit-exact content hash of simulated statistics."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def digest_of_digests(items: Dict[str, str]) -> str:
    """Order-independent digest of ``{operation key: stats digest}``."""
    return stats_digest(sorted(items.items()))


def check_comm_result(result) -> Optional[str]:
    """A job must return a CommResult with a finite, positive total_time."""
    from repro.results import CommResult

    if not isinstance(result, CommResult):
        return f"expected CommResult, got {type(result).__name__}"
    t = result.total_time
    if not (isinstance(t, (int, float, np.floating)) and math.isfinite(t)
            and t > 0):
        return f"total_time {t!r} is not finite and positive"
    return None


def check_delivered(requested: Dict[int, Iterable[int]],
                    received: Dict[int, Iterable[int]]) -> Optional[str]:
    """Every DES node receives exactly the remote idxs it requested
    (exact, per docs/fidelity.md)."""
    bad = [node for node, idxs in requested.items()
           if set(map(int, idxs)) != set(map(int, received.get(node, ())))]
    if bad:
        return f"delivered set differs from requested set on nodes {bad}"
    return None


def check_served(served_digest: str, direct_digest: Optional[str]) -> Optional[str]:
    """A served result must be bit-identical to the same job run
    directly through an ExecutionEngine."""
    if direct_digest is None:
        return "no direct-engine reference for this job"
    if served_digest != direct_digest:
        return "served result differs from the direct-engine result"
    return None
