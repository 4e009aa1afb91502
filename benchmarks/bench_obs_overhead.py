"""Observability overhead: the fig6 work unit enabled vs disabled.

Measures three things and writes them to ``BENCH_obs.json``:

* wall time of the fig6 sweep with observability **disabled**
  (``REPRO_OBS=0`` semantics) and **enabled** — the headline numbers;
* the microbenchmarked per-call cost of a disabled handle update (the
  flag-check no-op every instrumented call site pays);
* the structural overhead estimate — obs events emitted by the enabled
  run x per-call no-op cost — which must stay under 2% of the disabled
  runtime (the ISSUE acceptance bar, asserted noise-robustly the same
  way the CI smoke test does);
* the remote transport in both modes — with observability disabled the
  telemetry layer must put **zero** obs frames (and zero trace-prefix
  bytes) on the wire, asserted via the client's per-opcode frame
  counters.

Also verifies the rows are bit-identical in both modes.  Runnable
standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--tiny] [out.json]
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import repro.obs as obs
from repro.experiments import fig6

FIG6_KWARGS = dict(
    page_intervals=(0, 1, 2, 4),
    bit_counts=(32, 128, 512),
    max_steps=10,
    blocks_per_config=2,
    workers=1,
)

FIG6_TINY_KWARGS = dict(
    page_intervals=(0, 1), bit_counts=(32,), max_steps=5,
    blocks_per_config=1, workers=1,
)

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _timed_run(enabled: bool, kwargs):
    was = obs.is_enabled()
    obs.set_enabled(enabled)
    try:
        start = time.perf_counter()
        with obs.collect(absorb=False) as col:
            result = fig6.run(**kwargs)
        seconds = time.perf_counter() - start
    finally:
        obs.set_enabled(was)
    return result, col.snapshot, seconds


def noop_cost_s(calls: int = 500_000) -> float:
    """Per-call cost of a disabled counter update."""
    was = obs.is_enabled()
    obs.set_enabled(False)
    try:
        handle = obs.counter("bench.noop")
        start = time.perf_counter()
        for _ in range(calls):
            handle.inc()
        return (time.perf_counter() - start) / calls
    finally:
        obs.set_enabled(was)


def event_estimate(snapshot) -> int:
    """Generous upper bound on instrumented calls the run made."""
    ops = snapshot.op_counters.total_ops if snapshot.op_counters else 0
    spans = sum(entry.count for entry in snapshot.profile.values())
    metrics = len(snapshot.counters) + len(snapshot.gauges) + sum(
        h.count for h in snapshot.histograms.values()
    )
    return 4 * ops + 10 * spans + 10 * metrics


def remote_transport_section(tiny: bool = False) -> dict:
    """A remote ONFI workload, observability disabled vs enabled."""
    import numpy as np

    from repro.nand import TEST_MODEL
    from repro.onfi import Op, RemoteChip, spawn_chip_server

    geometry = TEST_MODEL.geometry
    rounds = 2 if tiny else 12
    rng = np.random.default_rng(17)
    bits = (rng.random(geometry.cells_per_page) < 0.5).astype("uint8")
    pages = list(range(geometry.pages_per_block))

    def run(enabled: bool):
        was = obs.is_enabled()
        obs.set_enabled(enabled)
        try:
            sock, handle = spawn_chip_server(
                geometry, TEST_MODEL.params, seed=5, backend="thread"
            )
            chip = RemoteChip(sock, geometry, TEST_MODEL.params)
            start = time.perf_counter()
            with obs.span("bench.remote"):
                for _ in range(rounds):
                    chip.program_page(0, 0, bits)
                    chip.read_pages(0, pages)
                    chip.erase_block(0)
            seconds = time.perf_counter() - start
            sent = dict(chip.sent_ops)
            chip.close()
            handle.close()
            return seconds, sent
        finally:
            obs.set_enabled(was)

    disabled_s, disabled_sent = run(False)
    enabled_s, _ = run(True)
    obs_frames = disabled_sent.get(int(Op.OBS_COLLECT), 0)
    assert obs_frames == 0, (
        f"disabled mode put {obs_frames} obs frames on the wire"
    )
    return {
        "rounds": rounds,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_over_disabled": round(enabled_s / disabled_s, 4),
        "zero_obs_frames_when_disabled": True,
    }


def collect(tiny: bool = False) -> dict:
    kwargs = FIG6_TINY_KWARGS if tiny else FIG6_KWARGS
    _timed_run(False, FIG6_TINY_KWARGS)  # warm the codec/table caches
    disabled_result, _, disabled_s = _timed_run(False, kwargs)
    enabled_result, snapshot, enabled_s = _timed_run(True, kwargs)
    if enabled_result.rows() != disabled_result.rows():
        raise AssertionError("rows differ between enabled and disabled runs")
    cost = noop_cost_s()
    events = event_estimate(snapshot)
    estimated_overhead_s = events * cost
    return {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {"experiment": "fig6", "tiny": tiny, **{
            k: v for k, v in kwargs.items() if k != "workers"
        }},
        "benchmarks": {
            "disabled_s": round(disabled_s, 4),
            "enabled_s": round(enabled_s, 4),
            "enabled_over_disabled": round(enabled_s / disabled_s, 4),
            "noop_call_ns": round(cost * 1e9, 2),
            "event_estimate": events,
            "estimated_disabled_overhead_s": round(estimated_overhead_s, 6),
            "estimated_disabled_overhead_pct": round(
                100 * estimated_overhead_s / disabled_s, 4
            ),
        },
        "remote": remote_transport_section(tiny=tiny),
        "rows_bit_identical": True,
    }


def main(argv) -> int:
    tiny = "--tiny" in argv
    paths = [a for a in argv if not a.startswith("--")]
    output = Path(paths[0]) if paths else DEFAULT_OUTPUT
    results = collect(tiny=tiny)
    bench = results["benchmarks"]
    print(f"fig6 ({'tiny' if tiny else 'full'}): "
          f"disabled {bench['disabled_s']:.3f} s, "
          f"enabled {bench['enabled_s']:.3f} s "
          f"({bench['enabled_over_disabled']:.3f}x)")
    print(f"disabled no-op: {bench['noop_call_ns']:.1f} ns/call; "
          f"~{bench['event_estimate']} events -> "
          f"{bench['estimated_disabled_overhead_pct']:.3f}% "
          f"of disabled runtime (bar: < 2%)")
    assert bench["estimated_disabled_overhead_pct"] < 2.0, (
        "disabled-mode overhead estimate exceeds the 2% bar"
    )
    remote = results["remote"]
    print(f"remote transport: disabled {remote['disabled_s']:.3f} s, "
          f"enabled {remote['enabled_s']:.3f} s "
          f"({remote['enabled_over_disabled']:.3f}x); "
          f"zero obs frames when disabled: OK")
    if not tiny:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {output}")
    print("rows bit-identical enabled vs disabled: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
