"""Hot-path kernel backend selection: ``fast`` (array kernels) or
``reference`` (the original pure-Python implementations).

The cluster model's inner loops — the delayed-insert Property Cache
front-end, the RIG batch-dispatch makespan and the window
concatenation aggregation — exist in two implementations with
*bit-identical* semantics:

- ``fast``       — array-backed kernels (:mod:`repro.core.pcache_fast`,
  the vectorized scans in :func:`repro.core.rig.rig_generation_time`
  and :func:`repro.core.concat.window_concat`); the production path;
- ``reference``  — the original per-element Python loops, kept as the
  executable specification the fast kernels are golden-tested against
  (``tests/test_fast_kernels.py``).

Because both backends produce the same bits, the choice is *not*
part of a simulation's identity: it never enters
:meth:`repro.config.NetSparseConfig.digest` or a
:class:`~repro.parallel.jobs.SimJob` cache key.  Select with
``REPRO_KERNELS=reference`` in the environment, or programmatically:

>>> from repro.core import kernels
>>> with kernels.use_backend("reference"):
...     assert not kernels.is_fast()
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "use_backend",
    "is_fast",
]

#: Recognized kernel backends.
BACKENDS = ("fast", "reference")

_backend = os.environ.get("REPRO_KERNELS", "fast")
if _backend not in BACKENDS:
    raise RuntimeError(
        f"REPRO_KERNELS={_backend!r} is not one of {BACKENDS}"
    )


def get_backend() -> str:
    """The active kernel backend name."""
    return _backend


def is_fast() -> bool:
    """True when the array-based fast kernels are active."""
    return _backend == "fast"


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the previous one."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; use {BACKENDS}")
    previous, _backend = _backend, name
    return previous


@contextmanager
def use_backend(name: str):
    """Temporarily switch the kernel backend (tests, A/B timing)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
