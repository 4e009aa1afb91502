"""Bench-trajectory tracking: history rows and regression gating.

The repo's benchmark suite persists one JSON snapshot per subsystem
(``BENCH_ecc.json``, ``BENCH_chip.json``, ...).  Each snapshot is a
point-in-time measurement; this module gives them a *trajectory*:

* :func:`extract_metrics` pulls a curated catalogue of scalar metrics
  out of the snapshot files (speedups, throughputs, overhead
  percentages, bit-identity booleans);
* :func:`append_history` appends a schema-versioned row of those
  metrics to ``BENCH_history.jsonl`` (one JSON object per line —
  ``benchmarks/save_baseline.py`` does this after every full run);
* :func:`compare` diffs a current extraction against the most recent
  history row with per-metric regression thresholds and directions,
  and ``repro-stash bench-report`` renders the result, exiting nonzero
  on regression so CI can gate on it.

Thresholds are deliberately loose (CI machines are noisy; the committed
baselines come from a 1-CPU container) — the gate exists to catch
collapses (a 10x speedup dropping to 1x, bit-identity breaking, the
disabled-obs overhead blowing through its 2% bar), not 5% jitter.

Exit codes: 0 ok, 1 regression, 2 inputs missing (no snapshot files,
no history, or a baseline metric that vanished).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .obs.report import table

#: Version stamped on every history row.  Bump when the row layout
#: changes; readers skip rows newer than they understand.
HISTORY_SCHEMA_VERSION = 1

#: The history file, one JSON row per line, repo-root relative.
HISTORY_NAME = "BENCH_history.jsonl"

#: Snapshot files the catalogue draws from (repo-root relative).
BENCH_FILES = {
    "ecc": "BENCH_ecc.json",
    "chip": "BENCH_chip.json",
    "fleet": "BENCH_fleet.json",
    "onfi": "BENCH_onfi.json",
    "obs": "BENCH_obs.json",
    "parallel": "BENCH_parallel.json",
    "lint": "BENCH_lint.json",
    "selection": "BENCH_selection.json",
}

MetricValue = Union[float, bool]


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """One catalogue entry: where a metric lives and how it regresses.

    ``path`` walks the snapshot JSON; a ``"*"`` component expands to
    every key at that level (sorted), yielding one metric per match.
    ``direction`` is the *good* direction ("higher" / "lower"); a
    change against it beyond ``threshold_pct`` per cent of the baseline
    is a regression.  ``"bool"`` metrics must simply stay true.
    ``max_abs`` adds an absolute ceiling checked against the current
    value regardless of history (the obs 2% bar).
    """

    file: str  #: key into :data:`BENCH_FILES`
    path: Tuple[str, ...]
    direction: str  #: ``higher`` | ``lower`` | ``bool``
    threshold_pct: float = 50.0
    max_abs: Optional[float] = None


#: The metric catalogue.  Names become ``<file>.<joined path>``.
CATALOGUE: Tuple[MetricSpec, ...] = (
    MetricSpec("ecc", ("benchmarks", "*", "speedup"), "higher", 60.0),
    MetricSpec("chip", ("benchmarks", "*", "pages_per_s"), "higher", 60.0),
    MetricSpec("fleet", ("fleets", "*", "speedup"), "higher", 60.0),
    MetricSpec("fleet", ("fleets", "*", "bit_identical"), "bool"),
    MetricSpec(
        "onfi", ("transport", "*", "overhead_pct"), "lower", 150.0
    ),
    MetricSpec("onfi", ("fleet", "throughput_ratio"), "higher", 40.0),
    MetricSpec("onfi", ("fleet", "bit_identical"), "bool"),
    MetricSpec(
        "obs",
        ("benchmarks", "estimated_disabled_overhead_pct"),
        "lower",
        300.0,
        max_abs=2.0,
    ),
    MetricSpec("obs", ("rows_bit_identical",), "bool"),
    MetricSpec(
        "obs", ("remote", "zero_obs_frames_when_disabled"), "bool"
    ),
    MetricSpec(
        "parallel", ("experiments", "*", "seconds", "1"), "lower", 100.0
    ),
    # Static-analysis health: the full engine must stay fast enough to
    # gate every CI run (hard 10 s bar) and the tree must stay clean
    # (any unsuppressed finding is an absolute regression).
    MetricSpec("lint", ("wall_ms",), "lower", 200.0, max_abs=10_000.0),
    MetricSpec("lint", ("findings_total",), "lower", 100.0, max_abs=0.0),
    # Microseconds per hidden-cell selection and per 12 KiB keystream.
    MetricSpec("selection", ("after_us", "*"), "lower", 100.0),
)


def _walk(
    data: object, path: Tuple[str, ...]
) -> Iterator[Tuple[Tuple[str, ...], object]]:
    """Yield ``(resolved_path, value)`` for every match of `path`."""
    if not path:
        yield (), data
        return
    if not isinstance(data, dict):
        return
    head, rest = path[0], path[1:]
    keys = sorted(data) if head == "*" else ([head] if head in data else [])
    for key in keys:
        for resolved, value in _walk(data[key], rest):
            yield (key,) + resolved, value


def load_snapshots(root: Path) -> Dict[str, dict]:
    """Read every present BENCH snapshot under `root` (missing skipped)."""
    snapshots: Dict[str, dict] = {}
    for short, name in BENCH_FILES.items():
        path = root / name
        if path.is_file():
            snapshots[short] = json.loads(path.read_text())
    return snapshots


def extract_metrics(
    snapshots: Dict[str, dict],
) -> Dict[str, MetricValue]:
    """Apply the catalogue to loaded snapshots."""
    metrics: Dict[str, MetricValue] = {}
    for spec in CATALOGUE:
        report = snapshots.get(spec.file)
        if report is None:
            continue
        for resolved, value in _walk(report, spec.path):
            name = ".".join((spec.file,) + resolved)
            if spec.direction == "bool":
                metrics[name] = bool(value)
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                metrics[name] = float(value)
    return metrics


def _spec_for(name: str) -> Optional[MetricSpec]:
    parts = tuple(name.split("."))
    for spec in CATALOGUE:
        if parts[0] != spec.file or len(parts) - 1 != len(spec.path):
            continue
        if all(
            want in ("*", got)
            for want, got in zip(spec.path, parts[1:])
        ):
            return spec
    return None


def history_row(
    metrics: Dict[str, MetricValue],
    machine: Optional[dict] = None,
    timestamp: Optional[float] = None,
) -> dict:
    """A schema-versioned history row for `metrics`."""
    if timestamp is None:
        timestamp = time.time()
    row = {
        "schema": HISTORY_SCHEMA_VERSION,
        "timestamp": round(timestamp, 3),
        "metrics": metrics,
    }
    if machine:
        row["machine"] = machine
    return row


def append_history(row: dict, path: Path) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def read_history(path: Path) -> List[dict]:
    """All readable rows, oldest first; unknown schemas are skipped."""
    rows: List[dict] = []
    if not path.is_file():
        return rows
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            print(
                f"[benchtrack] {path}:{lineno}: unparseable row skipped",
                file=sys.stderr,
            )
            continue
        if (
            isinstance(row, dict)
            and isinstance(row.get("metrics"), dict)
            and isinstance(row.get("schema"), int)
            and row["schema"] <= HISTORY_SCHEMA_VERSION
        ):
            rows.append(row)
    return rows


@dataclass(frozen=True, slots=True)
class Delta:
    """One metric's movement against the baseline row."""

    name: str
    current: Optional[MetricValue]
    baseline: Optional[MetricValue]
    change_pct: Optional[float]  #: None for bools / new / missing
    status: str  #: ``ok`` | ``improved`` | ``regression`` | ``new`` | ``missing``
    note: str = ""


def _compare_one(
    spec: MetricSpec,
    name: str,
    current: Optional[MetricValue],
    baseline: Optional[MetricValue],
) -> Delta:
    if current is None:
        return Delta(name, None, baseline, None, "missing",
                     "metric vanished from snapshots")
    if spec.direction == "bool":
        if current is True:
            return Delta(name, current, baseline, None, "ok")
        return Delta(name, current, baseline, None, "regression",
                     "invariant is no longer true")
    assert isinstance(current, float)
    if spec.max_abs is not None and current > spec.max_abs:
        return Delta(name, current, baseline, None, "regression",
                     f"exceeds absolute bar {spec.max_abs}")
    if not isinstance(baseline, float) or baseline == 0.0:
        return Delta(name, current, baseline, None, "new")
    change_pct = (current - baseline) / abs(baseline) * 100.0
    moved_against = (
        -change_pct if spec.direction == "higher" else change_pct
    )
    if moved_against > spec.threshold_pct:
        status, note = "regression", (
            f"beyond {spec.threshold_pct:g}% threshold"
        )
    elif moved_against < -spec.threshold_pct:
        status, note = "improved", ""
    else:
        status, note = "ok", ""
    return Delta(name, current, baseline, round(change_pct, 2),
                 status, note)


def compare(
    current: Dict[str, MetricValue],
    baseline: Dict[str, MetricValue],
) -> List[Delta]:
    """Per-metric deltas over the union of current and baseline names."""
    deltas: List[Delta] = []
    for name in sorted(set(current) | set(baseline)):
        spec = _spec_for(name)
        if spec is None:
            continue  # stale catalogue entry in an old row
        deltas.append(
            _compare_one(spec, name, current.get(name),
                         baseline.get(name))
        )
    return deltas


def render_report(deltas: Sequence[Delta], baseline_row: dict) -> str:
    when = baseline_row.get("timestamp", 0.0)
    header = (
        f"bench trajectory vs history row @ {when:.0f} "
        f"(schema v{baseline_row.get('schema')})"
    )

    def fmt(value: Optional[MetricValue]) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(value).lower()
        return f"{value:g}"

    rows = [
        (
            d.name,
            fmt(d.baseline),
            fmt(d.current),
            "-" if d.change_pct is None else f"{d.change_pct:+.1f}%",
            d.status + (f" ({d.note})" if d.note else ""),
        )
        for d in deltas
    ]
    return header + "\n\n" + table(
        ("metric", "baseline", "current", "change", "status"), rows
    )


def report(
    root: Path,
    history_path: Optional[Path] = None,
    record: bool = False,
    check: bool = False,
) -> int:
    """The ``bench-report`` driver.  Returns the process exit code."""
    if history_path is None:
        history_path = root / HISTORY_NAME
    snapshots = load_snapshots(root)
    if not snapshots:
        print(f"no BENCH_*.json snapshots under {root}", file=sys.stderr)
        return 2
    current = extract_metrics(snapshots)
    rows = read_history(history_path)
    if not rows:
        if record:
            append_history(history_row(current), history_path)
            print(f"seeded {history_path} with {len(current)} metrics")
            return 0
        print(
            f"no usable history rows in {history_path} "
            f"(run with --record to seed it)",
            file=sys.stderr,
        )
        return 2
    baseline_row = rows[-1]
    deltas = compare(current, baseline_row["metrics"])
    print(render_report(deltas, baseline_row))
    regressions = [d for d in deltas if d.status == "regression"]
    missing = [d for d in deltas if d.status == "missing"]
    if record:
        append_history(history_row(current), history_path)
        print(f"\nappended history row ({len(current)} metrics)")
    if regressions:
        print(
            f"\n{len(regressions)} regression(s):"
            + "".join(f"\n  - {d.name}: {d.note}" for d in regressions),
            file=sys.stderr,
        )
        return 1
    if missing:
        print(
            f"\n{len(missing)} baseline metric(s) missing from current "
            "snapshots:"
            + "".join(f"\n  - {d.name}" for d in missing),
            file=sys.stderr,
        )
        return 2
    if check:
        print(f"\nbench-report check ok ({len(deltas)} metrics)")
    return 0
