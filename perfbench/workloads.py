"""The benchmark's workloads and the measured passes that run them.

Three fleet workloads drive :class:`~repro.fleet.FleetService` with
seeded tenant traffic; ``fig6-sweep`` regenerates the paper's Fig. 6.
Every input (fleet seed, request streams, arrival order, Poisson
arrival times, experiment chip samples) derives from the run's seed.

A run repeats its workload's pass until the timed phases add up to the
requested seconds.  Timings report fastest passes (a fleet pools the
fastest pass of each derived seed): on a shared host the noise only
ever adds time, in bursts shorter than a pass, so the best pass is far
steadier from run to run than the median.  On the open loop the timed
figure is the fleet's busy time, not the arrival schedule.  With tracing
on, untraced and traced passes alternate in the traced configuration
(one thread), so the overhead of the wrappers is measured, not assumed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import fig6
from repro.experiments.common import default_model, make_samples
from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    WorkloadConfig,
    generate_requests,
)
from repro.parallel import ParallelRunner

from .checks import (
    ReplayStats,
    SilentCorruption,
    fig6_detect_auc,
    fleet_detect_auc,
    replay_check,
)
from .tracer import NAND_OPS, ONFI_OPS, Tracer

#: A worker stops starting new passes this long after it began, well
#: inside the 180 s a run may take.
PASS_BUDGET_S = 120.0

#: Set-up repetitions per run; ``setup_s`` is their median.
MIN_SETUPS = 11

#: Seed of the small warm-up pass, outside the range runs derive.
WARM_UP_SEED = 2**31 - 1

#: Chip samples the Fig. 6 deniability probe averages.
PROBE_SAMPLES = 2

SCHEDULER = CoalescingScheduler()


def derived_seed(seed: int, index: int, per_run: int) -> int:
    """The seed of pass `index` in a run of `seed` cycling `per_run` seeds."""
    return seed * per_run + index % per_run


@dataclass(frozen=True)
class FleetWorkload:
    """A seeded tenant traffic mix against one fleet configuration."""

    tenants: int
    n_shards: int
    ops_per_tenant: int
    #: (write, read, mount) weights.
    mix: Tuple[float, float, float]
    remote: bool = False
    shard_workers: Optional[int] = None
    #: Open-loop arrival rate; ``None`` submits everything, then drains.
    rate_per_s: Optional[float] = None
    #: Distinct derived seeds the passes of one run cycle through.
    seeds_per_run: ClassVar[int] = 3

    def build(self, seed: int) -> FleetService:
        return FleetService(FleetConfig(
            tenants=self.tenants, n_shards=self.n_shards, seed=seed,
            remote=self.remote,
        ))

    def requests(self, seed: int) -> list:
        return generate_requests(WorkloadConfig(
            tenants=self.tenants, ops_per_tenant=self.ops_per_tenant,
            seed=seed, mix=self.mix, arrival_seed=seed,
        ))


@dataclass(frozen=True)
class Fig6Workload:
    """The Fig. 6 sweep, cycling through seeded experiment chip samples."""

    max_steps: int = 15
    blocks_per_config: int = 5
    workers: int = 2
    #: Experiment seeds (chip samples) per run; ``hidden_ber`` pools all.
    seeds_per_run: ClassVar[int] = 8

    def sweep(self, experiment_seed: int, backend: str) -> "fig6.Fig6Result":
        return fig6.run(
            max_steps=self.max_steps,
            blocks_per_config=self.blocks_per_config,
            seed=experiment_seed,
            workers=self.workers if backend == "process" else 1,
            backend=backend,
        )

    def hidden_bits(self) -> Dict[Tuple[int, int], int]:
        """Hidden bits one sweep embeds, per (interval, bits) config."""
        pages_per_block = default_model(pages_per_block=8).geometry.pages_per_block
        return {
            (interval, bits): (
                len(range(0, pages_per_block, interval + 1))
                * self.blocks_per_config
                * max(bits // 4, 8)
            )
            for interval in fig6.DEFAULT_PAGE_INTERVALS
            for bits in fig6.DEFAULT_BIT_COUNTS
        }


WORKLOADS = {
    "drain-read": FleetWorkload(
        tenants=500, n_shards=4, ops_per_tenant=4, mix=(0.15, 0.65, 0.2),
    ),
    "drain-rebuild": FleetWorkload(
        tenants=80, n_shards=4, ops_per_tenant=6, mix=(0.8, 0.1, 0.1),
    ),
    "remote-open": FleetWorkload(
        tenants=100, n_shards=2, ops_per_tenant=3, mix=(0.15, 0.65, 0.2),
        remote=True, shard_workers=2, rate_per_s=100.0,
    ),
    "fig6-sweep": Fig6Workload(),
}


# ----------------------------------------------------------------------
# shared helpers


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> Dict[str, float]:
    """Per-pass per-layer numbers from a tracer that saw `passes` passes.

    `wall_s` is the mean traced time of one pass's timed phase (busy
    time on an open loop); unattributed is what the wrappers' self times
    leave of it.
    """
    self_s = {name: t / passes for name, t in tracer.self_s.items()}
    calls = {name: n / passes for name, n in tracer.calls.items()}
    counts = {name: n / passes for name, n in tracer.counts.items()}
    metrics: Dict[str, float] = {}
    for name in (
        "fleet.execute_round", "hiding.select_cells", "crypto.keystream",
        "hiding.embed_prepared", "ecc.bch.decode_many",
        *(f"nand.{op}" for op in NAND_OPS),
    ):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0.0)
    for name in (
        "ecc.decode_pages", "ecc.encode_pages", "ecc.bch.encode_many",
        "stego.pack_slot", "stego.unpack_slot", "experiments.config_unit",
        "experiments.measure_ber_curves", "parallel.map",
    ):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for op in (*ONFI_OPS, "drain"):
        metrics[f"onfi.{op}.s"] = self_s.get(f"onfi.{op}", 0.0)
    executes = calls.get("fleet.execute_round", 0.0)
    metrics["fleet.round_size_mean"] = (
        counts.get("fleet.execute_round.requests", 0.0) / executes
        if executes else 0.0
    )
    metrics["crypto.keystream.bytes"] = counts.get("crypto.keystream.bytes", 0.0)
    metrics["hiding.pp_steps"] = counts.get("hiding.embed_prepared.pp_steps", 0.0)
    decodes = calls.get("ecc.bch.decode_many", 0.0)
    metrics["ecc.bch.decode_many.words_per_call"] = (
        counts.get("ecc.bch.decode_many.words", 0.0) / decodes
        if decodes else 0.0
    )
    pages = counts.get("ecc.decode_pages.pages", 0.0)
    metrics["ecc.decode.failed_ratio"] = (
        counts.get("ecc.decode_pages.failed", 0.0) / pages if pages else 0.0
    )
    attributed = tracer.attributed_s() / passes
    metrics["trace.wall_s"] = wall_s
    metrics["unattributed_s"] = wall_s - attributed
    metrics["unattributed_pct"] = 100.0 * (wall_s - attributed) / wall_s
    return metrics


def finished(began: float, runs: int, measured: float, seconds: float,
             covered: bool = True) -> bool:
    """Whether a run has measured enough, or another pass would overrun.

    A run ends once its timed phases add up to `seconds` and it has
    `covered` every derived seed, or when one more pass of average
    length would take it past :data:`PASS_BUDGET_S`.
    """
    spent = time.perf_counter() - began
    return spent * (1 + 1 / runs) > PASS_BUDGET_S or (measured >= seconds and covered)


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


# ----------------------------------------------------------------------
# fleet workloads


class Phase(NamedTuple):
    """The timed phase of a fleet pass."""

    responses: list
    latencies_s: List[float]
    #: Time the service was draining: the whole phase for a closed
    #: drain, the sum of the drain calls for an open loop.
    run_s: float
    #: Wall time from the phase's start to its last completion.
    span_s: float
    drains: int = 1
    late_s: Sequence[float] = ()
    #: Time the open loop slept, waiting for the next request to fall due.
    idle_s: float = 0.0


@dataclass
class FleetPass:
    """What one fleet pass measured."""

    setup_s: float
    run_s: float
    span_s: float
    requests: int
    latencies_s: List[float]
    replay: ReplayStats
    counters: Dict[str, float]
    #: Hidden bits the ECC decoded in the timed phase, and how many of
    #: them it had to correct.
    coded_bits: float
    bit_errors: float
    #: Request frames sent over the wire during the timed phase.
    frames: int = 0
    drains: int = 1
    late_s: List[float] = field(default_factory=list)
    idle_s: float = 0.0
    detect_auc: Optional[float] = None


def closed_drain(service: FleetService, requests: list, shard_workers) -> Phase:
    """Submit every request, then drain: all are due when the drain starts."""
    for request in requests:
        if not service.submit(request):
            raise RuntimeError(f"admission refused {request}")
    start = time.perf_counter()
    responses = service.drain(SCHEDULER, shard_workers=shard_workers)
    run_s = time.perf_counter() - start
    return Phase(responses, [r.latency_s for r in responses], run_s, run_s)


def arrival_times(seed: int, n: int, rate_per_s: float) -> List[float]:
    """Seeded Poisson arrival offsets (seconds from the schedule start)."""
    rng = np.random.default_rng([seed, 0x6F70656E])
    return np.cumsum(rng.exponential(1.0 / rate_per_s, n)).tolist()


def open_loop(
    service: FleetService,
    requests: list,
    due: Sequence[float],
    shard_workers,
) -> Phase:
    """Serve `requests` as they fall due, whatever the service's backlog.

    One generator loop submits every request whose due time has passed,
    then drains the queue; a long drain therefore makes the next batch
    submit late, and each latency runs from the request's due time to
    its completion.  The phase's ``run_s`` is the service's busy time,
    the drain calls summed: the wall time would mostly be the arrival
    schedule, which no change to the service can shorten.
    """
    responses = []
    latencies: List[float] = []
    late: List[float] = []
    pending: Dict[int, deque] = defaultdict(deque)
    drains = 0
    busy = idle = 0.0
    i = 0
    start = time.perf_counter()
    while i < len(requests):
        now = time.perf_counter() - start
        if due[i] > now:
            time.sleep(due[i] - now)
            idle += time.perf_counter() - start - now
            continue
        while i < len(requests) and due[i] <= now:
            if not service.submit(requests[i]):
                raise RuntimeError(f"admission refused {requests[i]}")
            pending[requests[i].tenant].append(due[i])
            late.append(now - due[i])
            i += 1
        called = time.perf_counter() - start
        for response in service.drain(SCHEDULER, shard_workers=shard_workers):
            done = called + response.latency_s
            latencies.append(done - pending[response.tenant].popleft())
            responses.append(response)
        busy += time.perf_counter() - start - called
        drains += 1
    span = time.perf_counter() - start
    return Phase(responses, latencies, busy, span, drains, late, idle)


def _frames(service: FleetService) -> int:
    return sum(sum(getattr(s.chip, "sent_ops", {}).values()) for s in service.shards)


def fleet_pass(
    workload: FleetWorkload,
    seed: int,
    shard_workers=None,
    tracer: Optional[Tracer] = None,
    probe: bool = False,
) -> FleetPass:
    """Build a fleet, run the timed phase, check it, optionally probe it."""
    requests = workload.requests(seed)
    start = time.perf_counter()
    service = workload.build(seed)
    setup_s = time.perf_counter() - start
    if workload.rate_per_s is not None:
        due = arrival_times(seed, len(requests), workload.rate_per_s)
    try:
        frames = _frames(service)
        with tracer.installed() if tracer else contextlib.nullcontext():
            if workload.rate_per_s is None:
                phase = closed_drain(service, requests, shard_workers)
            else:
                phase = open_loop(service, requests, due, shard_workers)
        frames = _frames(service) - frames
        replay = replay_check(requests, phase.responses)
        counters = dict(service.fleet_snapshot().counters)
        codeword = service.shards[0].vthi.codec.coded_length(service.slot_bytes)
        decoded = counters["bch.decode.words"] - counters.get("bch.decode.failures", 0.0)
        auc = fleet_detect_auc(service) if probe else None
    finally:
        service.close()
    return FleetPass(
        setup_s=setup_s, run_s=phase.run_s, span_s=phase.span_s,
        requests=len(requests), latencies_s=phase.latencies_s, replay=replay,
        counters=counters, coded_bits=decoded * codeword,
        bit_errors=counters["bch.decode.errors_corrected"],
        frames=frames, drains=phase.drains, late_s=list(phase.late_s),
        idle_s=phase.idle_s, detect_auc=auc,
    )


def warm_up_fleet(workload: FleetWorkload) -> None:
    """Fill codec tables and chip-kernel caches with a small closed pass."""
    small = dataclasses.replace(
        workload, tenants=8 * workload.n_shards, rate_per_s=None
    )
    fleet_pass(small, seed=WARM_UP_SEED)


def _setup_only(workload: FleetWorkload, seed: int) -> float:
    start = time.perf_counter()
    service = workload.build(seed)
    setup_s = time.perf_counter() - start
    service.close()
    return setup_s


#: Fleet counters that depend on the seed alone, never on timing.
DETERMINISTIC_COUNTERS = (
    "bch.decode.words", "bch.decode.failures", "bch.decode.errors_corrected",
    "fleet.rebuilds",
)


def _deterministic(p: FleetPass) -> tuple:
    return p.replay, [p.counters.get(name) for name in DETERMINISTIC_COUNTERS]


def measure_fleet(workload: FleetWorkload, seed: int, seconds: float) -> dict:
    """Untraced passes until `seconds` of timed phase: end-to-end metrics.

    Pass ``i`` runs derived seed ``i mod seeds_per_run``; a repeated
    seed must reproduce its first pass exactly.  Timings pool each
    derived seed's fastest pass: noise only adds time, and pooling the
    seeds keeps one cheap request mix from setting the figure.
    """
    warm_up_fleet(workload)
    began = time.perf_counter()
    passes: List[FleetPass] = []
    first: Dict[int, FleetPass] = {}
    best: Dict[int, float] = {}
    while True:
        pass_seed = derived_seed(seed, len(passes), workload.seeds_per_run)
        p = fleet_pass(workload, pass_seed, workload.shard_workers, probe=not passes)
        if pass_seed in first and _deterministic(p) != _deterministic(first[pass_seed]):
            raise SilentCorruption(f"two passes of seed {pass_seed} disagree")
        first.setdefault(pass_seed, p)
        best[pass_seed] = min(best.get(pass_seed, math.inf), p.run_s)
        passes.append(p)
        if finished(began, len(passes), sum(q.span_s for q in passes), seconds,
                    len(first) == workload.seeds_per_run):
            break
    setups = [p.setup_s for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(_setup_only(workload, seed))
    latencies = [t for p in passes for t in p.latencies_s]
    distinct = list(first.values())
    reads = sum(p.replay.reads for p in distinct)
    writes = sum(p.replay.writes for p in distinct)
    best_s = sum(best.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": best_s / len(best),
        "requests_per_s": sum(p.requests for p in distinct) / best_s,
        "hidden_kib_per_s": sum(p.replay.payload_bytes for p in distinct)
        / 1024.0 / best_s,
        "detect_auc": passes[0].detect_auc,
        "hidden_ber": sum(p.bit_errors for p in distinct)
        / sum(p.coded_bits for p in distinct),
        "peak_rss_mib": peak_rss_mib(),
    }
    info = {
        "passes": len(passes),
        "pass_run_s": [round(p.run_s, 4) for p in passes],
        "seeds": len(distinct),
        "latency_samples": len(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "read_miss_share": sum(p.replay.read_misses for p in distinct) / max(reads, 1),
        "rebuilds_per_write": sum(
            p.counters.get("fleet.rebuilds", 0.0) for p in distinct
        ) / max(writes, 1),
        "mean_round_size": sum(p.counters["fleet.requests"] for p in distinct)
        / sum(p.counters["fleet.shard_rounds"] for p in distinct),
    }
    if workload.rate_per_s is not None:
        info["offered_req_per_s"] = workload.rate_per_s
        info["busy_share"] = sum(p.run_s for p in passes) / sum(
            p.span_s for p in passes
        )
    return {
        "attempted": sum(p.replay.attempted for p in passes),
        "failed": sum(p.replay.failed for p in passes),
        "metrics": metrics,
        "info": info,
    }


def trace_fleet(workload: FleetWorkload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes on one thread: per-layer metrics."""
    warm_up_fleet(workload)
    seed = derived_seed(seed, 0, workload.seeds_per_run)
    tracer = Tracer()
    untraced: List[FleetPass] = []
    traced: List[FleetPass] = []
    began = time.perf_counter()
    while True:
        untraced.append(fleet_pass(workload, seed))
        traced.append(fleet_pass(workload, seed, tracer=tracer))
        if _deterministic(untraced[-1]) != _deterministic(traced[-1]):
            raise SilentCorruption("tracing changed a fleet outcome")
        if finished(began, len(traced), sum(p.span_s for p in untraced + traced), seconds):
            break
    wall = statistics.mean(p.run_s for p in traced)
    metrics = layer_metrics(tracer, len(traced), wall)
    frames = statistics.mean(p.frames for p in traced)
    late = [t for p in traced for t in p.late_s]
    latencies = [t for p in untraced for t in p.latencies_s]
    metrics.update({
        "loadgen.latency_p50_ms": 1e3 * percentile(latencies, 50),
        "loadgen.latency_p99_ms": 1e3 * percentile(latencies, 99),
        "onfi.frames": frames,
        "onfi.frames_per_request": frames / traced[0].requests,
        "loadgen.late_p99_ms": 1e3 * percentile(late, 99) if late else 0.0,
        "loadgen.drains": statistics.mean(p.drains for p in traced),
        "loadgen.idle_s": statistics.mean(p.idle_s for p in traced),
        "trace.overhead_pct": overhead_pct(
            [p.run_s for p in traced], [p.run_s for p in untraced]
        ),
    })
    everything = untraced + traced
    return {
        "attempted": sum(p.replay.attempted for p in everything),
        "failed": sum(p.replay.failed for p in everything),
        "metrics": metrics,
        "info": {"traced_passes": len(traced), "untraced_passes": len(untraced)},
    }


# ----------------------------------------------------------------------
# fig6 sweep


def _chip_sample(experiment_seed: int) -> int:
    """Build one experiment chip sample, as each sweep unit does first."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=6000 + experiment_seed)[0]
    return chip.geometry.n_blocks


def fig6_setup(workload: Fig6Workload, experiment_seed: int) -> float:
    """Start the sweep's worker pool and build a chip sample in each worker."""
    start = time.perf_counter()
    ParallelRunner(workload.workers, "process").map(
        _chip_sample, [(experiment_seed,)] * workload.workers
    )
    return time.perf_counter() - start


def warm_up_fig6(workload: Fig6Workload) -> None:
    """Fill chip-kernel caches in this process; forked workers inherit them."""
    dataclasses.replace(workload, max_steps=5, blocks_per_config=1).sweep(
        WARM_UP_SEED, "serial"
    )


def _check_sweep(result) -> None:
    for key, curve in result.curves.items():
        if not all(0.0 <= ber <= 1.0 for ber in curve):
            raise SilentCorruption(f"fig6 {key}: BER outside [0, 1]")
        if not curve[-1] < curve[0]:
            raise SilentCorruption(f"fig6 {key}: PP steps did not lower the BER")


def pooled_ber(workload: Fig6Workload, results: Sequence) -> float:
    """Hidden bits in error at the last PP step over hidden bits embedded."""
    bits = workload.hidden_bits()
    errors = sum(r.curves[k][-1] * n for r in results for k, n in bits.items())
    return errors / (len(results) * sum(bits.values()))


def measure_fig6(workload: Fig6Workload, seed: int, seconds: float) -> dict:
    """Sweeps on the process backend until `seconds` and every chip sample."""
    warm_up_fig6(workload)
    began = time.perf_counter()
    times: List[float] = []
    results: Dict[int, object] = {}
    while True:
        experiment_seed = derived_seed(seed, len(times), workload.seeds_per_run)
        start = time.perf_counter()
        result = workload.sweep(experiment_seed, "process")
        times.append(time.perf_counter() - start)
        _check_sweep(result)
        if experiment_seed in results:
            if results[experiment_seed].curves != result.curves:
                raise SilentCorruption("two sweeps of one chip sample disagree")
        else:
            results[experiment_seed] = result
        if finished(began, len(times), sum(times), seconds,
                    len(results) == workload.seeds_per_run):
            break
    setups = [
        fig6_setup(workload, derived_seed(seed, i, workload.seeds_per_run))
        for i in range(MIN_SETUPS)
    ]
    bits = sum(workload.hidden_bits().values())
    auc = statistics.mean(
        fig6_detect_auc(
            derived_seed(seed, i, workload.seeds_per_run),
            max(max(fig6.DEFAULT_BIT_COUNTS) // 4, 8),
            workload.max_steps,
        )
        for i in range(PROBE_SAMPLES)
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": min(times),
        "requests_per_s": max(1.0 / t for t in times),
        "hidden_kib_per_s": max(bits / 8 / 1024.0 / t for t in times),
        "detect_auc": auc,
        "hidden_ber": pooled_ber(workload, list(results.values())),
        "peak_rss_mib": peak_rss_mib(),
    }
    return {
        "attempted": len(times),
        "failed": 0,
        "metrics": metrics,
        "info": {"passes": len(times), "seeds": len(results)},
    }


def trace_fig6(workload: Fig6Workload, seed: int, seconds: float) -> dict:
    """Serial sweeps, untraced and traced alternately: per-layer metrics.

    The traced rows must equal the untraced process-backend rows.
    """
    warm_up_fig6(workload)
    experiment_seed = derived_seed(seed, 0, workload.seeds_per_run)
    reference = workload.sweep(experiment_seed, "process").rows()
    tracer = Tracer()

    def timed_sweep(with_tracer: Optional[Tracer]) -> float:
        start = time.perf_counter()
        with with_tracer.installed() if with_tracer else contextlib.nullcontext():
            result = workload.sweep(experiment_seed, "serial")
        elapsed = time.perf_counter() - start
        if result.rows() != reference:
            raise SilentCorruption("serial sweep rows differ from process rows")
        return elapsed

    untraced: List[float] = []
    traced: List[float] = []
    began = time.perf_counter()
    while True:
        untraced.append(timed_sweep(None))
        traced.append(timed_sweep(tracer))
        if finished(began, len(traced), sum(untraced + traced), seconds):
            break
    metrics = layer_metrics(tracer, len(traced), statistics.mean(traced))
    metrics.update({
        "loadgen.latency_p50_ms": 0.0,
        "loadgen.latency_p99_ms": 0.0,
        "onfi.frames": 0.0,
        "onfi.frames_per_request": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "loadgen.drains": 0.0,
        "loadgen.idle_s": 0.0,
        "trace.overhead_pct": overhead_pct(traced, untraced),
    })
    return {
        "attempted": 1 + len(untraced) + len(traced),
        "failed": 0,
        "metrics": metrics,
        "info": {"traced_passes": len(traced), "untraced_passes": len(untraced)},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure `workload`; the result dict the worker reports."""
    if isinstance(workload, Fig6Workload):
        return (trace_fig6 if trace else measure_fig6)(workload, seed, seconds)
    return (trace_fleet if trace else measure_fleet)(workload, seed, seconds)


def planned_requests(name: str) -> int:
    """Requests one pass attempts (sweeps count one each)."""
    workload = WORKLOADS[name]
    if isinstance(workload, Fig6Workload):
        return 1
    return workload.tenants * workload.ops_per_tenant
