"""``repro.obs``: structured tracing, metrics, cross-worker aggregation.

The observability layer for the whole stack (DESIGN.md §9):

* :func:`span` — near-zero-overhead nested timed spans with structured
  attributes, recorded into a ring buffer, exportable as JSONL, and
  aggregated into a per-name self-time profile;
* :func:`counter` / :func:`gauge` / :func:`histogram` — the metrics
  registry, compiled to no-ops when ``REPRO_OBS=0``;
* :func:`collect` + :func:`merge_snapshots` — scoped collection and the
  deterministic cross-worker merge :mod:`repro.parallel` uses to ship
  each worker's metrics and chip ``OpCounters`` back to the parent.
  Every merge, registry absorb and fleet per-shard total goes through
  one fold, :func:`fold_snapshot`;
* :func:`encode_snapshot` / :func:`decode_snapshot` — the versioned
  JSON snapshot document ``OBS_COLLECT`` carries over the ONFI wire.

Environment variables: ``REPRO_OBS`` (``0`` disables everything),
``REPRO_OBS_TRACE`` (default JSONL trace export path for the CLI).
Instrumentation never touches RNG or numeric state: experiment rows are
bit-identical with observability enabled or disabled.
"""

from .aggregate import Collection, collect, scoped_call
from .metrics import (
    DEFAULT_SPAN_CAPACITY,
    Counter,
    Gauge,
    HistStats,
    Histogram,
    OBS_ENV,
    ObsSnapshot,
    ProfileEntry,
    Registry,
    TRACE_ENV,
    counter,
    default_trace_path,
    fold_snapshot,
    gauge,
    get_registry,
    histogram,
    is_enabled,
    merge_snapshots,
    pop_registry,
    push_registry,
    register_op_counters,
    set_enabled,
)
from .report import (
    one_line_summary,
    render_metrics,
    render_profile,
    render_trace_tree,
    stitch_spans,
)
from .trace import (
    SpanRecord,
    adopt_parent,
    current_span_name,
    export_jsonl,
    load_jsonl,
    span,
)
from .wirefmt import OBS_WIRE_VERSION, decode_snapshot, encode_snapshot

__all__ = [
    "Collection",
    "Counter",
    "DEFAULT_SPAN_CAPACITY",
    "Gauge",
    "HistStats",
    "Histogram",
    "OBS_ENV",
    "OBS_WIRE_VERSION",
    "ObsSnapshot",
    "ProfileEntry",
    "Registry",
    "SpanRecord",
    "TRACE_ENV",
    "adopt_parent",
    "collect",
    "counter",
    "current_span_name",
    "decode_snapshot",
    "default_trace_path",
    "encode_snapshot",
    "export_jsonl",
    "fold_snapshot",
    "gauge",
    "get_registry",
    "histogram",
    "is_enabled",
    "load_jsonl",
    "merge_snapshots",
    "one_line_summary",
    "pop_registry",
    "push_registry",
    "register_op_counters",
    "render_metrics",
    "render_profile",
    "render_trace_tree",
    "scoped_call",
    "stitch_spans",
    "set_enabled",
    "span",
]
