"""repro-stash: a command-line front end to the VT-HI stack.

Operates a *simulated* device persisted to a file.  The device file holds
only the public world (chip voltages, FTL state) — never the hiding key:
hidden data is located purely by re-deriving the selection map from the
passphrase and scanning, exactly the §9.2 mount model.  Confiscating the
device file therefore reveals nothing, and ``mount`` with the wrong
passphrase finds nothing.

    repro-stash init dev.stash
    repro-stash public-write dev.stash 0 "my day planner"
    repro-stash hide dev.stash -p "s3cret" 0 "meet at dawn"
    repro-stash mount dev.stash -p "s3cret"
    repro-stash reveal dev.stash -p "s3cret" 0
    repro-stash stats dev.stash
    repro-stash experiment fig3
    repro-stash obs fig6 --top 5 --trace fig6.trace.jsonl
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Optional

from . import obs
from .crypto import HidingKey
from .ecc.page import PagePipeline
from .ftl import Ftl
from .hiding import STANDARD_CONFIG, VtHi
from .nand import TEST_MODEL, BENCH_MODEL, FlashChip
from .stego import HiddenVolume

#: Hiding configuration used by the CLI (test-geometry scaled standard).
CLI_CONFIG = STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18)

MODELS = {"test": TEST_MODEL, "bench": BENCH_MODEL}


#: The chip-state layout a device file is written in.  A device file
#: pickles the whole chip, block states included, so code whose chip
#: state has another shape cannot drive it; bump this with every such
#: change.  2: per-cell settle state (``BlockState.settle_codes``,
#: ``page_labels``).
DEVICE_LAYOUT = 2


@dataclass
class Device:
    """The persisted public world: a chip and its FTL."""

    model_name: str
    chip: FlashChip
    ftl: Ftl
    layout: int = DEVICE_LAYOUT

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(self, handle)

    @classmethod
    def load(cls, path: str) -> "Device":
        try:
            with open(path, "rb") as handle:
                device = pickle.load(handle)
        except FileNotFoundError:
            raise SystemExit(
                f"no device file at {path} (create one with "
                f"`repro-stash init {path}`)"
            ) from None
        except (pickle.UnpicklingError, AttributeError, ImportError, EOFError):
            device = None
        if not isinstance(device, cls):
            raise SystemExit(f"{path} is not a repro-stash device file")
        # The instance's own stamp: a file from before stamping has none
        # (the class default is not what the file holds).
        layout = vars(device).get("layout")
        if layout != DEVICE_LAYOUT:
            found = (
                "no chip-state layout stamp" if layout is None
                else f"chip-state layout {layout}"
            )
            raise SystemExit(
                f"{path} holds {found}, and this version reads layout "
                f"{DEVICE_LAYOUT}; re-create the device with "
                f"`repro-stash init {path}`"
            )
        return device

    def volume(self, passphrase: str) -> HiddenVolume:
        key = HidingKey.from_passphrase(passphrase)
        vthi = VtHi(self.chip, CLI_CONFIG, public_codec=self.ftl.pipeline)
        volume = HiddenVolume(self.ftl, vthi, key)
        volume.mount()
        return volume


def _cmd_init(args) -> int:
    model = MODELS[args.model]
    chip = FlashChip(model.geometry, model.params, seed=args.seed)
    pipeline = PagePipeline(chip.geometry.cells_per_page, ecc_m=13, ecc_t=8)
    ftl = Ftl(chip, pipeline, overprovision_blocks=args.overprovision)
    Device(args.model, chip, ftl).save(args.device)
    print(
        f"initialised {args.device}: model {model.name}, "
        f"{ftl.logical_pages} logical pages of {ftl.page_data_bytes} bytes"
    )
    return 0


def _payload_from(args) -> bytes:
    if args.file:
        with open(args.data, "rb") as handle:
            return handle.read()
    return args.data.encode("utf-8")


def _cmd_public_write(args) -> int:
    device = Device.load(args.device)
    data = _payload_from(args)
    if len(data) > device.ftl.page_data_bytes:
        raise SystemExit(
            f"payload of {len(data)} bytes exceeds the logical page "
            f"({device.ftl.page_data_bytes} bytes)"
        )
    device.ftl.write(args.lpa, data)
    device.save(args.device)
    print(f"wrote {len(data)} bytes to public page {args.lpa}")
    return 0


def _cmd_public_read(args) -> int:
    device = Device.load(args.device)
    data = device.ftl.read(args.lpa)
    if data is None:
        print(f"public page {args.lpa}: (never written)")
        return 1
    sys.stdout.buffer.write(data.rstrip(b"\x00") + b"\n")
    return 0


def _cmd_hide(args) -> int:
    device = Device.load(args.device)
    volume = device.volume(args.passphrase)
    data = _payload_from(args)
    if len(data) > volume.slot_data_bytes:
        raise SystemExit(
            f"hidden payload of {len(data)} bytes exceeds the slot "
            f"({volume.slot_data_bytes} bytes)"
        )
    volume.write(args.lba, data)
    device.save(args.device)
    print(
        f"hidden block {args.lba} embedded "
        f"({len(data)} of {volume.slot_data_bytes} bytes)"
    )
    return 0


def _cmd_reveal(args) -> int:
    device = Device.load(args.device)
    volume = device.volume(args.passphrase)
    data = volume.read(args.lba)
    if data is None:
        print(f"hidden block {args.lba}: nothing found with this key")
        return 1
    sys.stdout.buffer.write(data + b"\n")
    return 0


def _cmd_mount(args) -> int:
    device = Device.load(args.device)
    volume = device.volume(args.passphrase)
    slots = sorted(volume._slots.items())
    print(
        f"hidden volume: {len(slots)} blocks "
        f"(capacity {volume.capacity_slots()} slots x "
        f"{volume.slot_data_bytes} bytes)"
    )
    for lba, (host, length, _seq) in slots:
        print(f"  lba {lba}: {length} bytes at block {host[0]} "
              f"page {host[1]}")
    return 0


def _cmd_delete(args) -> int:
    device = Device.load(args.device)
    volume = device.volume(args.passphrase)
    volume.delete(args.lba)
    device.save(args.device)
    print(f"hidden block {args.lba} deleted (tombstoned)")
    return 0


def _cmd_stats(args) -> int:
    device = Device.load(args.device)
    ftl, chip = device.ftl, device.chip
    stats = ftl.stats
    print(f"device model: {device.model_name} "
          f"({chip.geometry.n_blocks} blocks x "
          f"{chip.geometry.pages_per_block} pages x "
          f"{chip.geometry.page_bytes} B)")
    print(f"host writes {stats.host_writes}, flash writes "
          f"{stats.flash_writes} (WAF {stats.write_amplification:.2f}), "
          f"GC erases {stats.gc_erases}")
    ops = chip.counters
    print(f"chip ops: {ops.reads} reads, {ops.programs} programs, "
          f"{ops.erases} erases, {ops.partial_programs} partial programs")
    print(f"busy time {ops.busy_time_s*1e3:.1f} ms, "
          f"energy {ops.energy_j*1e3:.2f} mJ")
    return 0


def _cmd_probe(args) -> int:
    device = Device.load(args.device)
    chip = device.chip
    voltages = chip.probe_voltages(args.block, args.page)
    device.save(args.device)  # probing costs a read
    import numpy as np

    counts, edges = np.histogram(voltages, bins=16, range=(0, 256))
    peak = counts.max() or 1
    print(f"voltage histogram, block {args.block} page {args.page} "
          f"(PEC {chip.block_pec(args.block)}):")
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(40 * count / peak)
        print(f"  [{int(left):3d}-{int(right):3d})  {bar} {count}")
    return 0


def _run_kwargs(run, workers, backend=None):
    """``workers=`` / ``backend=`` for drivers whose ``run`` accepts them;
    unsupported (or unset) knobs are silently dropped."""
    import inspect

    requested = {"workers": workers, "backend": backend}
    if all(value is None for value in requested.values()):
        return {}
    try:
        parameters = inspect.signature(run).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return {}
    return {
        name: value
        for name, value in requested.items()
        if value is not None and name in parameters
    }


def _resolve_experiment(name: str):
    from . import experiments

    module = getattr(experiments, name, None)
    if module is None or not hasattr(module, "run"):
        names = [
            candidate for candidate in experiments.__all__
            if hasattr(getattr(experiments, candidate), "run")
        ]
        raise SystemExit(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(names))}"
        )
    return module


def _cmd_experiment(args) -> int:
    module = _resolve_experiment(args.name)
    with obs.collect(absorb=False) as col:
        result = module.run(
            **_run_kwargs(module.run, args.workers, args.backend)
        )
    print(result.summary.render())
    _render_curves(args.name, result)
    # The summary carries wall time, so it goes to stderr: stdout stays
    # byte-identical across worker counts and backends.
    print(file=sys.stderr)
    print(obs.one_line_summary(col.snapshot, enabled=obs.is_enabled()),
          file=sys.stderr)
    return 0


def _render_curves(name: str, result) -> None:
    """Distribution experiments also draw their curves in ASCII."""
    from .experiments.figures import render_overlay

    try:
        if name == "fig2":
            print()
            print(render_overlay(
                {f"s{i}": h for i, h in enumerate(result.block_erased)},
                height=8,
            ))
        elif name == "fig3":
            print()
            print(render_overlay(
                {f"PEC {p}": h for p, h in result.erased.items()}, height=8
            ))
        elif name == "fig8":
            print()
            print(render_overlay(
                {f"{d} bits": h for d, h in result.histograms.items()},
                height=8,
            ))
    except Exception:  # pragma: no cover - rendering is best-effort
        pass


def _cmd_report(args) -> int:
    """Run the whole light evaluation (everything but the SVM sweeps)."""
    from . import experiments

    light = [
        "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11",
        "table1", "throughput", "energy", "wear", "reliability",
        "capacity", "applicability", "public_interference",
        "mlc_extension", "interval_capacity", "ablations",
    ]
    with obs.collect(absorb=False) as col:
        for name in light:
            run = getattr(experiments, name).run
            result = run(**_run_kwargs(run, args.workers, args.backend))
            print(result.summary.render())
            for part in getattr(result, "parts", []):
                print()
                print(part.render())
            _render_curves(name, result)
            print("\n" + "=" * 72 + "\n")
    print("SVM sweeps (fig10/fig12) are heavier; run them via "
          "`repro-stash experiment fig10` or the benchmarks.")
    print(file=sys.stderr)
    print(obs.one_line_summary(col.snapshot, enabled=obs.is_enabled()),
          file=sys.stderr)
    return 0


def _cmd_obs(args) -> int:
    """Run one experiment fully instrumented and report what happened."""
    # Force-enable in this process *and* the environment, so spawned pool
    # workers (which re-read REPRO_OBS at import) record too.
    os.environ[obs.OBS_ENV] = "1"
    obs.set_enabled(True)
    module = _resolve_experiment(args.name)
    with obs.collect(absorb=False) as col:
        result = module.run(
            **_run_kwargs(module.run, args.workers, args.backend)
        )
    print(result.summary.render())
    print()
    print(obs.render_metrics(col.snapshot))
    print()
    print(obs.render_profile(col.snapshot.profile, top=args.top))
    trace = args.trace or obs.default_trace_path()
    if trace:
        obs.export_jsonl(col.snapshot.spans, trace)
        print()
        print(f"[obs] trace: {len(col.snapshot.spans)} spans -> {trace}")
        print()
        print(obs.render_trace_tree(col.snapshot.spans))
    print()
    print(obs.one_line_summary(col.snapshot))
    return 0


def _fleet_latency_table(responses) -> str:
    """Per-kind latencies: wall-clock ms plus deterministic rounds.

    The ``rnd`` columns are virtual-time round latencies
    (:attr:`~repro.fleet.requests.Response.latency_rounds`) — exactly
    reproducible for a fixed configuration, unlike the ms columns.
    """
    from .fleet import KINDS, percentile

    lines = [f"  {'kind':<8} {'count':>6} {'ok':>6} "
             f"{'p50 ms':>9} {'p99 ms':>9} {'p50 rnd':>8} {'p99 rnd':>8}"]
    for kind in KINDS:
        group = [r for r in responses if r.kind == kind]
        if not group:
            continue
        lat = [r.latency_s for r in group]
        rounds = [
            r.latency_rounds for r in group if r.latency_rounds >= 0
        ]
        ok = sum(1 for r in group if r.status == "ok")
        rnd50 = int(percentile(rounds, 50)) if rounds else -1
        rnd99 = int(percentile(rounds, 99)) if rounds else -1
        lines.append(
            f"  {kind:<8} {len(group):>6} {ok:>6} "
            f"{percentile(lat, 50) * 1e3:>9.2f} "
            f"{percentile(lat, 99) * 1e3:>9.2f} "
            f"{rnd50:>8} {rnd99:>8}"
        )
    return "\n".join(lines)


def _cmd_fleet(args) -> int:
    """Run a seeded synthetic workload through the drive-fleet service."""
    import time

    from .fleet import (
        FleetConfig,
        FleetService,
        WorkloadConfig,
        generate_requests,
        make_scheduler,
    )

    names = (
        ["naive", "coalesced"] if args.scheduler == "both"
        else [args.scheduler]
    )
    workload = WorkloadConfig(
        tenants=args.tenants, ops_per_tenant=args.ops,
        seed=args.seed, arrival_seed=args.arrival_seed,
    )
    requests = generate_requests(workload)

    def run_service(name: str, remote: bool):
        with FleetService(FleetConfig(
            tenants=args.tenants, n_shards=args.shards, seed=args.seed,
            remote=remote, remote_backend=args.remote_backend,
        )) as service:
            rejected = sum(0 if service.submit(r) else 1 for r in requests)
            start = time.perf_counter()
            responses = service.drain(
                make_scheduler(name),
                shard_workers=args.shard_workers if remote else None,
            )
            wall = time.perf_counter() - start
            snapshot = service.fleet_snapshot()
        return responses, wall, rejected, snapshot

    runs = {}
    slo_runs = {}
    for name in names:
        responses, wall, rejected, snapshot = run_service(
            name, remote=args.remote
        )
        runs[name] = (responses, wall)
        slo_runs[f"{name}:remote" if args.remote else name] = responses
        payload_bytes = sum(
            len(r.payload) for r in responses if r.status == "ok"
        )
        mode = "remote shards" if args.remote else "shards"
        print(f"{name}: {len(responses)} requests "
              f"({rejected} rejected) over {args.shards} {mode} "
              f"in {wall:.3f} s — "
              f"{payload_bytes / wall / 1e6:.4f} MB/s hidden payload")
        print(_fleet_latency_table(responses))
        print(file=sys.stderr)
        print(obs.one_line_summary(snapshot, enabled=obs.is_enabled()),
              file=sys.stderr)
        if args.remote:
            # Divergence check: the same workload on in-process shards
            # must produce byte-identical per-tenant results.
            local_responses, local_wall, _, _ = run_service(
                name, remote=False
            )
            slo_runs[name] = local_responses
            remote_view = sorted(
                r.deterministic_view() for r in responses
            )
            local_view = sorted(
                r.deterministic_view() for r in local_responses
            )
            identical = remote_view == local_view
            print(f"{name}: remote vs in-process "
                  f"({local_wall:.3f} s): per-tenant results "
                  f"{'bit-identical' if identical else 'DIVERGED'}")
            if not identical:
                return 1
    if len(runs) == 2:
        naive_view = sorted(
            r.deterministic_view() for r in runs["naive"][0]
        )
        coalesced_view = sorted(
            r.deterministic_view() for r in runs["coalesced"][0]
        )
        identical = naive_view == coalesced_view
        speedup = runs["naive"][1] / runs["coalesced"][1]
        print(f"coalesced vs naive: {speedup:.2f}x wall-clock; "
              f"per-tenant results "
              f"{'bit-identical' if identical else 'DIVERGED'}")
        if not identical:
            return 1
    if args.report:
        from .fleet import render_slo_table

        print()
        print(render_slo_table(slo_runs))
    return 0


def _cmd_onfi_serve(args) -> int:
    """Serve one simulated chip as an ONFI wire device server."""
    import socket

    from .onfi import serve_listener

    model = MODELS[args.model]
    chip = FlashChip(model.geometry, model.params, seed=args.seed)
    listener = socket.create_server((args.host, args.port))
    host, port = listener.getsockname()[:2]
    geometry = model.geometry
    print(f"serving {args.model} chip (seed {args.seed}, "
          f"{geometry.n_blocks}x{geometry.pages_per_block}x"
          f"{geometry.page_bytes}B) on {host}:{port}",
          flush=True)
    try:
        serve_listener(chip, listener, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        listener.close()
    return 0


def _cmd_bench_report(args) -> int:
    """Diff current BENCH snapshots against the bench history."""
    from pathlib import Path

    from . import benchtrack

    root = Path(args.bench_root)
    history = Path(args.history) if args.history else None
    return benchtrack.report(
        root, history, record=args.record, check=args.check
    )


def _cmd_lint(args) -> int:
    """Run the determinism & invariant static-analysis pass."""
    from .lint.cli import main as lint_main

    return lint_main(list(args.lint_args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stash",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a simulated device file")
    p.add_argument("device")
    p.add_argument("--model", choices=sorted(MODELS), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overprovision", type=int, default=4)
    p.set_defaults(func=_cmd_init)

    def add_data_arguments(p):
        p.add_argument("data", help="payload text (or a path with --file)")
        p.add_argument("--file", action="store_true",
                       help="treat DATA as a file path")

    p = sub.add_parser("public-write", help="write a public logical page")
    p.add_argument("device")
    p.add_argument("lpa", type=int)
    add_data_arguments(p)
    p.set_defaults(func=_cmd_public_write)

    p = sub.add_parser("public-read", help="read a public logical page")
    p.add_argument("device")
    p.add_argument("lpa", type=int)
    p.set_defaults(func=_cmd_public_read)

    for name, func, needs_data in (
        ("hide", _cmd_hide, True),
        ("reveal", _cmd_reveal, False),
        ("delete", _cmd_delete, False),
    ):
        p = sub.add_parser(name, help=f"{name} a hidden block")
        p.add_argument("device")
        p.add_argument("-p", "--passphrase", required=True)
        p.add_argument("lba", type=int)
        if needs_data:
            add_data_arguments(p)
        p.set_defaults(func=func)

    p = sub.add_parser("mount", help="scan for hidden blocks with a key")
    p.add_argument("device")
    p.add_argument("-p", "--passphrase", required=True)
    p.set_defaults(func=_cmd_mount)

    p = sub.add_parser("stats", help="device statistics")
    p.add_argument("device")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("probe", help="voltage histogram of a page")
    p.add_argument("device")
    p.add_argument("block", type=int)
    p.add_argument("page", type=int)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("experiment",
                       help="run a paper experiment (e.g. fig3, table1)")
    p.add_argument("name")
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for parallelised experiments "
             "(default: REPRO_WORKERS, then all cores); results are "
             "identical at any worker count",
    )
    p.add_argument(
        "--backend", choices=("auto", "process", "thread", "serial"),
        default=None,
        help="execution backend for parallelised experiments "
             "(default: REPRO_BACKEND, then auto); results are identical "
             "on every backend",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "obs",
        help="run an experiment with full observability: metric tables, "
             "self-time profile, optional JSONL trace",
    )
    p.add_argument("name", help="experiment to run (e.g. fig6)")
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS, then all cores)",
    )
    p.add_argument(
        "--backend", choices=("auto", "process", "thread", "serial"),
        default=None,
        help="execution backend (fleet totals are identical on all)",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="rows in the self-time profile (default 10)",
    )
    p.add_argument(
        "--trace", default=None, metavar="OUT.jsonl",
        help="export the span trace as JSONL "
             "(default: REPRO_OBS_TRACE if set)",
    )
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "lint",
        help="static determinism & invariant analysis "
             "(DET001/DET002/DET003/OBS001/NUM001; see DESIGN.md §10)",
    )
    p.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="...",
        help="arguments forwarded to the lint engine "
             "(try `repro-stash lint -- --list-rules`)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "fleet",
        help="drive a sharded fleet of simulated stash drives through a "
             "seeded synthetic workload (DESIGN.md §12)",
    )
    p.add_argument("--tenants", type=int, default=24)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--ops", type=int, default=6,
                   help="operations per tenant (default 6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrival-seed", type=int, default=0,
                   help="arrival-interleaving seed (per-tenant results "
                        "are identical for any value)")
    p.add_argument("--scheduler", choices=("naive", "coalesced", "both"),
                   default="both",
                   help="request scheduler; `both` also checks "
                        "bit-identity and reports the speedup")
    p.add_argument("--remote", action="store_true",
                   help="place each shard chip in its own ONFI device "
                        "server and verify bit-identity against "
                        "in-process shards (exit 1 on divergence)")
    p.add_argument("--remote-backend", choices=("process", "thread"),
                   default="process",
                   help="device-server backend for --remote "
                        "(default process)")
    p.add_argument("--shard-workers", type=int, default=None,
                   help="threads fanning a round over remote shards "
                        "(results are identical at any count)")
    p.add_argument("--report", action="store_true",
                   help="print the SLO table: p50/p99/p99.9 round "
                        "latency per op kind per scheduler (virtual "
                        "time — deterministic)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "bench-report",
        help="diff the BENCH_*.json snapshots against BENCH_history.jsonl "
             "with per-metric regression thresholds (exit 1 on "
             "regression, 2 on missing inputs)",
    )
    p.add_argument("--bench-root", default=".",
                   help="directory holding the BENCH_*.json snapshots "
                        "and the history file (default .)")
    p.add_argument("--history", default=None,
                   help="history JSONL path (default "
                        "<bench-root>/BENCH_history.jsonl)")
    p.add_argument("--record", action="store_true",
                   help="append the current metrics as a new history row "
                        "(seeds the file when empty)")
    p.add_argument("--check", action="store_true",
                   help="CI smoke: also print an explicit ok line")
    p.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser(
        "onfi-serve",
        help="serve a simulated chip over the ONFI wire protocol "
             "(DESIGN.md §13); prints the bound host:port",
    )
    p.add_argument("--model", choices=sorted(MODELS), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral)")
    p.add_argument("--once", action="store_true",
                   help="serve a single connection, then exit")
    p.set_defaults(func=_cmd_onfi_serve)

    p = sub.add_parser(
        "report", help="run the full light evaluation and print every table"
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the parallelised experiments",
    )
    p.add_argument(
        "--backend", choices=("auto", "process", "thread", "serial"),
        default=None,
        help="execution backend for the parallelised experiments",
    )
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``lint`` forwards its whole tail verbatim (argparse.REMAINDER does
    # not accept a leading option like ``lint --list-rules``).
    if argv and argv[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
