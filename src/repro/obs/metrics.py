"""Metrics registry: counters, gauges, histograms, op-counter capture.

The paper's evaluation (§6-§8) is an accounting exercise — per-op
time/energy, BER after every bake, recovery rates — so the reproduction
needs first-class internal accounting too.  This module provides the
process-wide metric substrate every layer records into:

* **counters** — monotonically accumulated values
  (``bch.decode.errors_corrected``, ``ftl.gc.pages_rescued``, ...);
* **gauges** — last-written values (``ftl.gc.victim_valid_pages``);
* **histograms** — count/total/min/max summaries of observed values
  (``vthi.embed.steps_per_page``);
* **op-counter sources** — every :class:`~repro.nand.chip.FlashChip`
  registers its ``OpCounters`` at construction, so a snapshot can report
  the exact per-op totals the chip accumulated (the §6.1 accounting).

Call sites hold cheap name-bound handles (:func:`counter`,
:func:`gauge`, :func:`histogram`); each update resolves the *current*
registry — the innermost active scope on this thread, else the process
global — so the same instrumented code transparently records into a
worker's private registry inside a :func:`repro.obs.collect` scope and
into the process registry otherwise.  That indirection is what makes
cross-worker aggregation deterministic: each work unit's metrics are
captured in isolation and merged in submission order by the parent,
through :func:`fold_snapshot` — the one fold behind
:func:`merge_snapshots` and :meth:`Registry.absorb`.

Everything compiles to a near-no-op when observability is disabled
(``REPRO_OBS=0``): every update starts with one module-global flag check
and returns immediately.  Instrumentation never touches RNG or numeric
state, so enabled/disabled runs produce bit-identical experiment rows.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    MutableSequence,
    Optional,
    Tuple,
    Union,
)

#: Environment variable gating the whole subsystem.  ``0``/``false``/
#: ``no``/``off`` disable it; anything else (including unset) enables it.
OBS_ENV = "REPRO_OBS"

#: Environment variable naming a default JSONL trace export path; the CLI
#: consults it when ``--trace`` is not given.
TRACE_ENV = "REPRO_OBS_TRACE"

#: Span ring-buffer capacity of every registry and every merged
#: snapshot.  Old spans are evicted; the aggregated self-time profile is
#: updated at span exit, so eviction never loses profile data — only
#: raw trace rows.
DEFAULT_SPAN_CAPACITY = 4096

_DISABLED_VALUES = ("0", "false", "no", "off")


def _enabled_from_env() -> bool:
    return os.environ.get(OBS_ENV, "").strip().lower() not in _DISABLED_VALUES


_ENABLED = _enabled_from_env()


def is_enabled() -> bool:
    """Whether observability is currently recording."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Programmatically enable/disable recording (tests, the obs CLI)."""
    global _ENABLED
    _ENABLED = bool(value)


def default_trace_path() -> Optional[str]:
    """The ``REPRO_OBS_TRACE`` export path, if configured."""
    path = os.environ.get(TRACE_ENV, "").strip()
    return path or None


# ----------------------------------------------------------------------
# aggregated value types


@dataclass(slots=True)
class HistStats:
    """Summary statistics of one histogram's observations."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "HistStats") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max


@dataclass(slots=True)
class ProfileEntry:
    """Aggregated timing of one span name (the self-time profile row)."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, duration_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.self_s += self_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def merge(self, other: "ProfileEntry") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.self_s += other.self_s
        if other.min_s < self.min_s:
            self.min_s = other.min_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s


@dataclass(slots=True)
class ObsSnapshot:
    """One registry's state, frozen for transport and merging.

    Picklable by construction — this is what pool workers ship back to
    the parent alongside their result rows.  ``op_counters`` is the sum
    of every registered chip's :class:`~repro.nand.chip.OpCounters`
    (``None`` when no chip was created in scope).  ``spans`` holds the
    raw trace rows, oldest first and at most :data:`DEFAULT_SPAN_CAPACITY`
    of them; ``profile`` the complete aggregated self-time profile,
    unaffected by ring eviction.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistStats] = field(default_factory=dict)
    op_counters: Optional[Any] = None
    profile: Dict[str, ProfileEntry] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)
    wall_s: float = 0.0

    def deterministic_view(self) -> Tuple[Any, Any, Any, Any]:
        """The backend-invariant portion: everything except timings.

        Two runs of the same deterministic work units produce equal
        views on any backend at any worker count; span durations and
        wall time legitimately differ.
        """
        return (self.counters, self.gauges, self.histograms, self.op_counters)


def merge_snapshots(snapshots: Iterable[ObsSnapshot]) -> ObsSnapshot:
    """Fold worker snapshots, **in the given order**, into a fresh one.

    Each step is :func:`fold_snapshot`, so a merge is bounded exactly as
    a registry is: it keeps the newest :data:`DEFAULT_SPAN_CAPACITY`
    spans and sums every ``wall_s``.
    """
    merged = ObsSnapshot()
    for snapshot in snapshots:
        fold_snapshot(merged, snapshot)
    return merged


def fold_snapshot(
    into: Union[ObsSnapshot, "Registry"], snapshot: ObsSnapshot
) -> None:
    """Fold `snapshot` into `into` in place: the one way telemetry combines.

    :func:`merge_snapshots`, :meth:`Registry.absorb` and the fleet's
    per-shard running totals all go through here.  Counters and
    histogram fields add in call order (float addition is
    order-sensitive, so a fixed fold order makes fleet totals
    bit-identical across backends); gauges are last-writer-wins; op
    counters sum via ``OpCounters.__add__``; profiles merge; spans
    append and only the newest :data:`DEFAULT_SPAN_CAPACITY` stay — the
    registry's ring bound.  A snapshot target also sums ``wall_s``.
    """
    for name, value in snapshot.counters.items():
        into.counters[name] = into.counters.get(name, 0) + value
    into.gauges.update(snapshot.gauges)
    for name, hist in snapshot.histograms.items():
        target = into.histograms.get(name)
        if target is None:
            into.histograms[name] = replace(hist)
        else:
            target.merge(hist)
    if snapshot.op_counters is not None:
        into.op_counters = (
            snapshot.op_counters.copy()
            if into.op_counters is None
            else into.op_counters + snapshot.op_counters
        )
    for name, entry in snapshot.profile.items():
        target_entry = into.profile.get(name)
        if target_entry is None:
            into.profile[name] = replace(entry)
        else:
            target_entry.merge(entry)
    spans: MutableSequence[Any] = into.spans
    spans.extend(snapshot.spans)
    excess = len(spans) - DEFAULT_SPAN_CAPACITY
    if excess > 0:
        # Lists only: a registry's deque never outgrows its maxlen.
        del spans[:excess]
    if isinstance(into, ObsSnapshot):
        into.wall_s += snapshot.wall_s


# ----------------------------------------------------------------------
# the registry


class Registry:
    """One collection domain for metrics, op counters and spans.

    The process holds a global instance; :func:`repro.obs.collect`
    scopes push private ones so work units record in isolation.  A
    registry is only ever written from the thread(s) inside its scope —
    the scope stack is thread-local — so plain dict updates suffice.
    Its state is named as :class:`ObsSnapshot`'s, so
    :func:`fold_snapshot` folds into either.
    """

    def __init__(self, proc_label: str = "") -> None:
        #: Stamped onto every span recorded here whose ``proc`` is empty.
        #: Chip servers label their registries (``chip:3``) so stitched
        #: multi-process traces attribute spans to the recording process.
        self.proc_label = proc_label
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistStats] = {}
        self.profile: Dict[str, ProfileEntry] = {}
        self.spans: Deque[Any] = deque(maxlen=DEFAULT_SPAN_CAPACITY)
        #: ``OpCounters`` objects registered by chips created in scope.
        #: Strong references: snapshots read their *current* values.
        self.op_sources: List[Any] = []
        #: Running sum of absorbed snapshots' op counters (the live
        #: sources are added on top at snapshot time).
        self.op_counters: Optional[Any] = None

    # -- updates (called through the handles below) --------------------

    def counter_add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def hist_observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistStats()
        hist.observe(value)

    def record_span(self, record: Any) -> None:
        """Append a finished span and fold it into the profile."""
        if self.proc_label and not record.proc:
            record.proc = self.proc_label
        self.spans.append(record)
        entry = self.profile.get(record.name)
        if entry is None:
            entry = self.profile[record.name] = ProfileEntry()
        entry.add(record.duration_s, record.self_s)

    def register_op_source(self, op_counters: Any) -> None:
        self.op_sources.append(op_counters)

    # -- snapshot / absorb ---------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """Freeze the registry's current state (sources read live)."""
        ops = None if self.op_counters is None else self.op_counters.copy()
        for source in self.op_sources:
            current = source.copy()
            ops = current if ops is None else ops + current
        return ObsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={k: replace(v) for k, v in self.histograms.items()},
            op_counters=ops,
            profile={k: replace(v) for k, v in self.profile.items()},
            spans=list(self.spans),
        )

    def absorb(self, snapshot: ObsSnapshot) -> None:
        """Fold a child scope's / worker's snapshot into this registry.

        The parent calls this once per merged fleet snapshot (or child
        scope), in deterministic order, so totals roll up identically
        on every execution backend.
        """
        fold_snapshot(self, snapshot)

    def reset(self) -> None:
        """Drop all recorded state (tests, long-lived CLI sessions)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.profile.clear()
        self.spans.clear()
        self.op_sources.clear()
        self.op_counters = None


# ----------------------------------------------------------------------
# current-registry resolution

_GLOBAL = Registry()
_TLS = threading.local()


def get_registry() -> Registry:
    """The innermost active scope on this thread, else the global."""
    stack: Optional[List[Registry]] = getattr(_TLS, "stack", None)
    if stack:
        return stack[-1]
    return _GLOBAL


def push_registry(registry: Registry) -> None:
    stack: Optional[List[Registry]] = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(registry)


def pop_registry() -> Registry:
    registry: Registry = _TLS.stack.pop()
    return registry


# ----------------------------------------------------------------------
# instrument handles

_HANDLES: Dict[Tuple[str, str], Any] = {}
_HANDLES_LOCK = threading.Lock()


class Counter:
    """A name-bound counter handle; ``inc`` routes to the current scope."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def inc(self, value: float = 1) -> None:
        if not _ENABLED:
            return
        get_registry().counter_add(self.name, value)


class Gauge:
    """A name-bound gauge handle; ``set`` routes to the current scope."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        get_registry().gauge_set(self.name, value)


class Histogram:
    """A name-bound histogram handle; ``observe`` routes to the scope."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        get_registry().hist_observe(self.name, value)


def _handle(kind: str, name: str, factory: Callable[[str], Any]) -> Any:
    key = (kind, name)
    handle = _HANDLES.get(key)
    if handle is None:
        with _HANDLES_LOCK:
            handle = _HANDLES.get(key)
            if handle is None:
                handle = factory(name)
                # Lock-guarded memo of name -> handle; handles are
                # stateless (updates route to the current registry), so
                # cache hits in workers cannot leak state across units.
                _HANDLES[key] = handle
    return handle


def counter(name: str) -> Counter:
    """The process-wide counter handle for `name` (cache at module scope)."""
    return _handle("counter", name, Counter)


def gauge(name: str) -> Gauge:
    """The process-wide gauge handle for `name`."""
    return _handle("gauge", name, Gauge)


def histogram(name: str) -> Histogram:
    """The process-wide histogram handle for `name`."""
    return _handle("histogram", name, Histogram)


def register_op_counters(op_counters: Any) -> None:
    """Register a chip's ``OpCounters`` with the current scope.

    Called by :class:`~repro.nand.chip.FlashChip` at construction; the
    scope's snapshot sums all registered counters (via
    ``OpCounters.__add__``) so per-worker chip accounting reaches the
    parent regardless of execution backend.
    """
    if not _ENABLED:
        return
    get_registry().register_op_source(op_counters)
