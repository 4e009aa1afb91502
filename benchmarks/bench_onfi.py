"""ONFI wire-transport overhead: RemoteChip vs in-process → BENCH_onfi.json.

Runs the same chip workloads against an in-process :class:`FlashChip`
and a :class:`RemoteChip` talking to an out-of-process device server
over a socketpair, and reports the transport overhead per workload:

- coalesced batch ops (``program_pages`` / ``read_pages`` /
  ``probe_voltages_batch`` / ``read_locations``) — one frame per batch,
  ndarray payloads straight from the wire buffer;
- uncoalesced single-page reads — the contrast row showing what
  per-op framing would cost without batching;
- the fleet drained over remote shards (one server process per shard,
  threaded fan-out) vs in-process shards, with the request frames the
  remote drain sent per request (``frames_per_request``, capped at
  :data:`FLEET_FRAMES_PER_REQUEST` in both modes).

Every timed workload also checksums its results against the in-process
run, so the numbers only count if the transport is bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_onfi.py [output.json]
    PYTHONPATH=src python benchmarks/bench_onfi.py --tiny      # CI smoke

The full run checks the ISSUE 8 acceptance floor: the coalesced
program path must amortise framing to single-digit-% overhead, and
every other batched workload stays under a per-workload ceiling
calibrated to the single-CPU CI runner (see ``FULL_CEILINGS_PCT`` for
the calibration rationale).  ``--tiny`` shrinks the chip and fleet so
the script runs in seconds; its floors are looser (tiny batches
amortise less) and only guard against the transport collapsing.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    WorkloadConfig,
    generate_requests,
)
from repro.nand import BENCH_MODEL, TEST_MODEL, FlashChip
from repro.onfi import RemoteChip, spawn_chip_server

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_onfi.json"

MODELS = {"bench": BENCH_MODEL, "test": TEST_MODEL}

FULL = dict(
    model="bench",
    blocks=12,
    location_batch=64,
    location_rounds=6,
    single_reads=192,
    repeats=9,
    seed=0,
    fleet=dict(tenants=200, n_shards=4, ops_per_tenant=6, seed=0),
)
TINY = dict(
    model="test",
    blocks=4,
    location_batch=16,
    location_rounds=2,
    single_reads=32,
    repeats=2,
    seed=0,
    fleet=dict(tenants=12, n_shards=2, ops_per_tenant=4, seed=0),
)

#: Full-run overhead ceilings per batched workload, in percent.
#:
#: ISSUE 8 acceptance — coalesced framing amortises to single-digit-%
#: overhead — is demonstrated by ``program_pages`` (28 MB of payload
#: per repeat shipped client→server in one frame per block, measured
#: at 3–8% across runs) and usually by ``probe_pages`` (4–8% since the
#: response path went zero-copy).  The read stages are measured at
#: 10–20% on the single-CPU CI runner, where client and server cannot
#: overlap, so every response byte is a serialised copy tax on top of
#: the read kernels; their ceilings bound that tax without flapping.
#: On a multi-core host the server computes while the client drains
#: and the read rows drop to single digits as well.
FULL_CEILINGS_PCT = {
    "program_pages": 9.0,
    "probe_pages": 15.0,
    "read_pages": 35.0,
    "read_locations": 35.0,
    "batched_aggregate": 20.0,
}

#: Tiny smoke: batches of 8 small pages amortise far less (the kernel
#: is ~0.1 ms against a socket round-trip), so the floor only guards
#: against the transport collapsing on CI.
TINY_BATCH_OVERHEAD_PCT = 200.0

#: Remote fleet throughput floor, as a fraction of in-process MB/s.
FULL_FLEET_RATIO = 0.5
TINY_FLEET_RATIO = 0.15

#: Ceiling on request frames per request in the remote drain, both
#: modes: Algorithm 1 is one EMBED_LOCATIONS frame per embed batch and
#: telemetry is harvested outside the drain, so a round costs about one
#: frame per request or less.  Moving the probe-and-pulse loop back to
#: the host puts it at 6-7.
FLEET_FRAMES_PER_REQUEST = 1.0

BATCHED_WORKLOADS = ("program_pages", "read_pages", "probe_pages",
                     "read_locations")


def _payloads(geometry, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, geometry.cells_per_page, dtype=np.uint8)
        for _ in range(geometry.pages_per_block)
    ]


def _locations(geometry, blocks, batch, rounds, seed):
    """Random (block, page) batches over the *programmed* blocks — the
    read-what-you-wrote pattern, where every round recomputes voltages.
    """
    rng = np.random.default_rng(seed + 1)
    total = blocks * geometry.pages_per_block
    batch = min(batch, total)
    return [
        [
            (int(i) // geometry.pages_per_block,
             int(i) % geometry.pages_per_block)
            for i in rng.choice(total, size=batch, replace=False)
        ]
        for _ in range(rounds)
    ]


def _workloads(geometry, params):
    """(name, fn) pairs; each fn returns a checksum of what it saw."""
    blocks = range(params["blocks"])
    pages = np.arange(geometry.pages_per_block)
    payloads = _payloads(geometry, params["seed"])
    location_sets = _locations(
        geometry, params["blocks"], params["location_batch"],
        params["location_rounds"], params["seed"],
    )
    singles = params["single_reads"]

    def program_pages(chip):
        for block in blocks:
            chip.erase_block(block)
            chip.program_pages(block, pages, payloads)
        return len(payloads)

    def read_pages(chip):
        # Read after a retention hour — the VT-HI decode pattern (read
        # hidden data back after storage).  The leak-field computation
        # this forces is the compute the wire hides behind; unaged
        # reads serve mostly from cache and measure raw transfer.
        chip.advance_time(3600.0)
        total = 0
        for block in blocks:
            total += int(chip.read_pages(block, pages).sum())
        return total

    def probe_pages(chip):
        total = 0
        for block in blocks:
            total += int(chip.probe_voltages_batch(block, pages).sum())
        return total

    def read_locations(chip):
        total = 0
        for pairs in location_sets:
            total += int(chip.read_locations(pairs).sum())
        return total

    def single_reads(chip):
        total = 0
        for i in range(singles):
            block = i % params["blocks"]
            page = i % geometry.pages_per_block
            total += int(chip.read_page(block, page).sum())
        return total

    # Ordered so read_pages runs against freshly-programmed blocks
    # (cold voltage caches — the compute-carrying read path), while
    # probe/locations then hit warm caches and measure raw transfer.
    return [
        ("program_pages", program_pages),
        ("read_pages", read_pages),
        ("probe_pages", probe_pages),
        ("read_locations", read_locations),
        ("single_reads", single_reads),
    ]


def _time_chip(chip, geometry, params, drain):
    """Best-of-`repeats` per workload, plus per-repeat checksums.

    Checksums are kept per repeat (read disturb and ageing make later
    repeats see slightly different bits — deterministically so), and
    the caller asserts local and remote agree repeat by repeat.
    """
    best = {}
    checksums = {}
    for _ in range(params["repeats"]):
        for name, fn in _workloads(geometry, params):
            start = time.perf_counter()
            checksum = fn(chip)
            if drain:
                chip.drain()  # charge posted writes to their workload
            seconds = time.perf_counter() - start
            best[name] = min(best.get(name, seconds), seconds)
            checksums.setdefault(name, []).append(checksum)
    return best, checksums


def bench_transport(params) -> dict:
    """Each chip runs the whole repeat sequence in its own phase.

    Phase separation (all local repeats, then all remote) matters on a
    single-CPU runner: interleaving the two processes workload by
    workload evicts the server's working set from cache on every
    hand-off and taxes the remote side with reloads the in-process run
    never pays.  Best-of-`repeats` absorbs cross-phase system noise.
    """
    model = MODELS[params["model"]]
    geometry = model.geometry
    local = FlashChip(geometry, model.params, seed=params["seed"])
    local_times, local_sums = _time_chip(
        local, geometry, params, drain=False
    )
    sock, handle = spawn_chip_server(
        geometry, model.params, seed=params["seed"], backend="process"
    )
    remote = RemoteChip(sock, geometry, model.params)
    try:
        remote_times, remote_sums = _time_chip(
            remote, geometry, params, drain=True
        )
    finally:
        remote.close()
        handle.close()
    assert local_sums == remote_sums, "transport is not bit-identical"
    best = {
        name: {"local_s": local_times[name], "remote_s": remote_times[name]}
        for name in local_times
    }
    rows = {
        name: {
            "local_s": round(entry["local_s"], 5),
            "remote_s": round(entry["remote_s"], 5),
            "overhead_pct": round(
                (entry["remote_s"] - entry["local_s"])
                / entry["local_s"] * 100, 2
            ),
        }
        for name, entry in best.items()
    }
    local_total = sum(best[n]["local_s"] for n in BATCHED_WORKLOADS)
    remote_total = sum(best[n]["remote_s"] for n in BATCHED_WORKLOADS)
    rows["batched_aggregate"] = {
        "local_s": round(local_total, 5),
        "remote_s": round(remote_total, 5),
        "overhead_pct": round(
            (remote_total - local_total) / local_total * 100, 2
        ),
    }
    return rows


def _frames_sent(service) -> int:
    """Request frames the service's remote shards have sent so far."""
    return sum(
        sum(getattr(shard.chip, "sent_ops", {}).values())
        for shard in service.shards
    )


def _run_fleet(config, fleet_params):
    workload = WorkloadConfig(
        tenants=fleet_params["tenants"],
        ops_per_tenant=fleet_params["ops_per_tenant"],
        seed=fleet_params["seed"],
    )
    with FleetService(config) as service:
        for request in generate_requests(workload):
            assert service.submit(request), "bench workload must fully admit"
        frames = _frames_sent(service)
        start = time.perf_counter()
        responses = service.drain(
            CoalescingScheduler(),
            shard_workers=config.n_shards if config.remote else None,
        )
        seconds = time.perf_counter() - start
        frames = _frames_sent(service) - frames
    payload_bytes = sum(
        len(r.payload) for r in responses if r.status == "ok"
    )
    views = sorted(r.deterministic_view() for r in responses)
    return {
        "requests": len(responses),
        "seconds": round(seconds, 4),
        "mb_per_s": round(payload_bytes / seconds / 1e6, 5),
        # Deterministic for a seed: every frame follows from the requests.
        "frames_per_request": round(frames / len(responses), 4),
    }, views


def bench_fleet_remote(fleet_params) -> dict:
    base = dict(
        tenants=fleet_params["tenants"],
        n_shards=fleet_params["n_shards"],
        seed=fleet_params["seed"],
    )
    local, local_views = _run_fleet(FleetConfig(**base), fleet_params)
    remote, remote_views = _run_fleet(
        FleetConfig(**base, remote=True, remote_backend="process"),
        fleet_params,
    )
    assert local_views == remote_views, (
        "remote fleet diverged from in-process fleet"
    )
    return {
        "in_process": local,
        "remote": remote,
        "throughput_ratio": round(
            remote["mb_per_s"] / local["mb_per_s"], 3
        ),
        "bit_identical": True,
    }


def collect(params) -> dict:
    return {
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "params": {k: v for k, v in params.items() if k != "fleet"},
        "transport": bench_transport(params),
        "fleet": bench_fleet_remote(params["fleet"]),
    }


def check_floors(report: dict, tiny: bool) -> None:
    if tiny:
        ceilings = {n: TINY_BATCH_OVERHEAD_PCT for n in BATCHED_WORKLOADS}
    else:
        ceilings = FULL_CEILINGS_PCT
    for name, ceiling in ceilings.items():
        overhead = report["transport"][name]["overhead_pct"]
        assert overhead <= ceiling, (
            f"{name}: wire overhead {overhead}% above the "
            f"{ceiling}% ceiling"
        )
        print(f"  floor ok: {name} overhead {overhead}% <= {ceiling}%")
    ratio_floor = TINY_FLEET_RATIO if tiny else FULL_FLEET_RATIO
    ratio = report["fleet"]["throughput_ratio"]
    assert ratio >= ratio_floor, (
        f"remote fleet at {ratio}x in-process MB/s (floor {ratio_floor}x)"
    )
    print(f"  floor ok: remote fleet {ratio}x in-process "
          f">= {ratio_floor}x")
    frames = report["fleet"]["remote"]["frames_per_request"]
    assert frames <= FLEET_FRAMES_PER_REQUEST, (
        f"remote fleet sent {frames} frames per request "
        f"(ceiling {FLEET_FRAMES_PER_REQUEST})"
    )
    print(f"  ceiling ok: remote fleet {frames} frames per request "
          f"<= {FLEET_FRAMES_PER_REQUEST}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT

    report = collect(TINY if tiny else FULL)
    for name, entry in report["transport"].items():
        print(f"  {name}: local {entry['local_s']} s, "
              f"remote {entry['remote_s']} s "
              f"({entry['overhead_pct']:+.2f}%)")
    fleet = report["fleet"]
    print(f"  fleet: in-process {fleet['in_process']['mb_per_s']} MB/s, "
          f"remote {fleet['remote']['mb_per_s']} MB/s "
          f"({fleet['throughput_ratio']}x, "
          f"{fleet['remote']['frames_per_request']} frames/request), "
          f"bit-identical")
    check_floors(report, tiny)
    if tiny:
        print("tiny onfi smoke OK (transport bit-identical, floors hold)")
        return 0
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
