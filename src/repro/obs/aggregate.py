"""Scoped collection and cross-worker aggregation.

The deterministic-fan-out contract of :mod:`repro.parallel` extends to
observability: a work unit records its metrics, op counters and spans
into a *private* registry (pushed for the duration of the unit), and the
resulting :class:`~repro.obs.metrics.ObsSnapshot` travels back to the
parent **alongside** the unit's result rows.  The parent merges the
snapshots in submission order — float accumulation order is therefore
fixed — so fleet-wide totals are bit-identical on the ``process``,
``thread`` and ``serial`` backends at any worker count.

:func:`collect` is the caller-facing scope::

    with collect() as col:
        result = fig6.run(workers=8)
    print(col.snapshot.counters["chip.partial_programs"])

On exit the scope's snapshot is (by default) absorbed into the enclosing
registry, so nested scopes roll up and the process-global registry ends
up with the same totals it would have accumulated without scoping.

A sharded service (``repro.fleet``) runs each (round, shard) in a
non-absorbing scope and folds the snapshot into a running per-shard
total with :func:`~repro.obs.metrics.fold_snapshot`, so its memory is
one snapshot per shard however long it serves.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Tuple

from .metrics import (
    ObsSnapshot,
    Registry,
    get_registry,
    is_enabled,
    pop_registry,
    push_registry,
)


class Collection:
    """Holder handed out by :func:`collect`; ``snapshot`` is set on exit."""

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot = ObsSnapshot()


@contextmanager
def collect(absorb: bool = True) -> Iterator[Collection]:
    """Record everything inside the ``with`` body into a fresh scope.

    Yields a :class:`Collection` whose ``snapshot`` holds the scope's
    metrics, summed op counters, profile and spans (plus measured
    ``wall_s``) once the body exits — including anything worker units
    contributed through :class:`repro.parallel.ParallelRunner`, which
    absorbs merged fleet snapshots into the current scope.

    With ``absorb=True`` (default) the snapshot is also folded into the
    enclosing registry, so scoping never hides work from outer scopes.
    When observability is disabled the body runs unscoped and the
    snapshot stays empty (wall time is still measured).
    """
    holder = Collection()
    start = time.perf_counter()
    if not is_enabled():
        try:
            yield holder
        finally:
            holder.snapshot.wall_s = time.perf_counter() - start
        return
    registry = Registry()
    push_registry(registry)
    try:
        yield holder
    finally:
        pop_registry()
        snapshot = registry.snapshot()
        snapshot.wall_s = time.perf_counter() - start
        holder.snapshot = snapshot
        if absorb:
            get_registry().absorb(snapshot)


def scoped_call(
    fn: Callable[..., Any], args: Tuple[Any, ...]
) -> Tuple[Any, Optional[ObsSnapshot]]:
    """Run ``fn(*args)`` inside a private scope; return (result, snapshot).

    The worker-side half of cross-worker aggregation: picklable-friendly
    (both halves of the return travel through the process backend), and
    a no-op wrapper when observability is disabled.
    """
    if not is_enabled():
        return fn(*args), None
    with collect(absorb=False) as col:
        result = fn(*args)
    return result, col.snapshot
