"""Deterministic experiment execution engine with pluggable backends.

The paper's evaluation is embarrassingly parallel: four independent chip
samples, per-block trials, a grid of (wear, configuration) points (§6-§8).
Every experiment driver therefore decomposes into *work units* — typically
``(chip seed, block/trial range)`` tuples — whose randomness derives from
the :mod:`repro.rng` substream hierarchy, never from shared mutable state.
That property makes fan-out trivial *and* exact: a unit computes the same
bits whether it runs in the main process, in any worker thread or process,
in any order.

:class:`ParallelRunner` executes units through one of three *backends* and
returns partial results in *submission* order, so the caller's merge is
deterministic regardless of backend, worker count or OS scheduling:

``process``
    A :class:`concurrent.futures.ProcessPoolExecutor`.  True parallelism;
    pays process spawn + pickling overhead, which only amortises with
    multiple cores and non-trivial units.
``thread``
    A :class:`concurrent.futures.ThreadPoolExecutor`.  No pickling and
    cheap startup, but the GIL serialises pure-Python work — it wins only
    when units release the GIL (large numpy kernels) and still shares
    process-wide caches (the BCH codec registry).
``serial``
    A plain loop in the calling process.  Zero overhead; the baseline
    every other backend must beat.
``auto`` (default)
    ``process`` when it can plausibly win, ``serial`` when it cannot:
    a single worker, a single unit, or a single-CPU machine (where the
    measured pool "speedup" is < 1) all degrade to serial, with a log
    line saying why.

Observability rides along: with ``REPRO_OBS`` on, each unit runs through
:func:`repro.obs.scoped_call` (module-level, so the process backend can
pickle it) and its snapshot travels back with its result.  The parent
merges the snapshots in submission order with
:func:`repro.obs.merge_snapshots` — the same fold a registry absorbs
with, so the merge keeps the newest ``DEFAULT_SPAN_CAPACITY`` spans.

Resolution priority, for both knobs:

1. explicit ``workers=`` / ``backend=`` arguments (drivers expose them;
   the CLI maps ``--workers`` / ``--backend`` onto them);
2. the ``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment variables;
3. ``os.cpu_count()`` / ``"auto"``.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import obs
from .obs import ObsSnapshot

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"

#: Recognised execution backends.
BACKENDS = ("auto", "process", "thread", "serial")


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count (kwarg > ``REPRO_WORKERS`` > cpu_count)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_backend(backend: Optional[str] = None) -> str:
    """The requested backend (kwarg > ``REPRO_BACKEND`` > ``"auto"``)."""
    if backend is None:
        env = os.environ.get(BACKEND_ENV, "").strip()
        backend = env or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(BACKENDS)}, got {backend!r}"
        )
    return backend


def split_range(n: int, n_units: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most `n_units` contiguous (start, stop)
    spans of near-equal size, preserving order.  Useful for carving a
    driver's block/trial loop into work units."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    n_units = max(min(n_units, n), 1)
    spans = []
    base, extra = divmod(n, n_units)
    start = 0
    for i in range(n_units):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans


class ParallelRunner:
    """Run independent, deterministic work units through a backend.

    `fn` must be a module-level (picklable) function; each unit is the
    tuple of positional arguments for one call.  Results come back in unit
    order whatever the backend.  Exceptions in workers propagate to the
    caller.

    When observability is enabled, every unit runs inside a private
    :func:`repro.obs.collect` scope; the per-unit snapshots are merged
    in submission order and absorbed into the caller's current scope, so
    fleet-wide totals (metrics *and* chip op counters) are bit-identical
    on every backend at any worker count.  :meth:`map_with_obs` exposes
    the merged fleet snapshot directly.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.backend = resolve_backend(backend)

    def effective_backend(self, n_units: int) -> str:
        """The backend a :meth:`map` over `n_units` units would use.

        An explicit ``process``/``thread``/``serial`` request is honoured
        (modulo the degenerate one-worker / one-unit cases, where a pool
        could only add overhead); ``auto`` additionally degrades to serial
        on a single-CPU machine, where ``BENCH_parallel.json`` shows the
        process pool is a net loss.
        """
        if self.workers == 1 or n_units <= 1 or self.backend == "serial":
            return "serial"
        if self.backend == "auto":
            cpus = os.cpu_count() or 1
            if cpus == 1:
                logger.info(
                    "auto backend: running %d units serially "
                    "(cpu_count == 1; a worker pool cannot outrun the "
                    "serial loop here)",
                    n_units,
                )
                return "serial"
            return "process"
        return self.backend

    def map(
        self, fn: Callable[..., Any], units: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Map units to results; fleet metrics roll up transparently.

        The merged fleet snapshot is absorbed into the current obs
        scope, so callers that only want results keep the one-liner
        while ``with obs.collect()`` around a driver still observes
        every worker's metrics.
        """
        results, fleet = self.map_with_obs(fn, units)
        if fleet is not None:
            obs.get_registry().absorb(fleet)
        return results

    def map_with_obs(
        self, fn: Callable[..., Any], units: Sequence[Tuple[Any, ...]]
    ) -> Tuple[List[Any], Optional[ObsSnapshot]]:
        """Like :meth:`map`, also returning the merged fleet snapshot.

        The snapshot merges each unit's private scope in submission
        order (deterministic float accumulation), and is ``None`` when
        observability is disabled — in which case units run unwrapped,
        exactly as before the obs layer existed.
        """
        units = list(units)
        backend = self.effective_backend(len(units))
        if not obs.is_enabled():
            return self._run(fn, units, backend), None
        with obs.span(
            "parallel.map", backend=backend, units=len(units),
            workers=self.workers,
        ):
            pairs = self._run(
                obs.scoped_call, [(fn, unit) for unit in units], backend
            )
            obs.counter("parallel.units").inc(len(units))
            snapshots = [snap for _, snap in pairs if snap is not None]
            return [result for result, _ in pairs], obs.merge_snapshots(
                snapshots
            )

    def _run(
        self,
        fn: Callable[..., Any],
        units: Sequence[Tuple[Any, ...]],
        backend: str,
    ) -> List[Any]:
        if backend == "serial":
            return [fn(*unit) for unit in units]
        max_workers = min(self.workers, len(units))
        pool: Executor
        if backend == "thread":
            pool = ThreadPoolExecutor(max_workers=max_workers)
        else:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        results: List[Any] = [None] * len(units)
        with pool:
            futures = {
                pool.submit(fn, *unit): index
                for index, unit in enumerate(units)
            }
            for future in as_completed(futures):
                results[futures[future]] = future.result()
        return results


def run_units(
    fn: Callable[..., Any],
    units: Sequence[Tuple[Any, ...]],
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[Any]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(workers, backend).map(fn, units)
