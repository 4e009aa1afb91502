#!/usr/bin/env python3
"""Benchmark entry point: run one workload (or all) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload drain-read --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a worker process (``perfbench/worker.py``) in its
own process group, with BLAS/OpenMP pools pinned to one thread.  The
worker gets a wall-clock deadline; past it the whole group, device
servers included, is killed and the run reports every request failed.
This process is made a child subreaper, so every process the worker
started is reaped here before the run ends.

The metric catalogue (names, units) is ``BENCHMARK.json``: ``--trace 0``
reports its ``end_to_end`` metrics, ``--trace 1`` its ``per_layer``
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("drain-read", "drain-rebuild", "remote-open", "fig6-sweep")

#: Wall-clock deadline of one workload's worker.
DEADLINE_S = 165.0

_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped here (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap(pgid: int) -> None:
    """Kill what is left of the worker's group and wait for its members.

    Orphans adopted by this subreaper keep their group, so waiting on the
    group reaps them too, and never waits on an unrelated child.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run `workload` in a worker; return its parsed JSON-line records."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_OBS="1",
    )
    command = [
        sys.executable, "-m", "perfbench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out, _ = proc.communicate()
    finally:
        _reap(proc.pid)
    records = {}
    for line in out.splitlines():
        if line.startswith("{"):
            records.update(json.loads(line))
    records["timed_out"] = timed_out
    records["returncode"] = proc.returncode
    return records


def _render(workload: str, records: dict, catalogue: dict) -> None:
    print(f"== {workload}")
    env = records.get("env")
    if env:
        print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    result = records.get("result", {})
    if result.get("info"):
        print("   info: " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in result["info"].items()
        ))
    for name, value in result.get("metrics", {}).items():
        unit = catalogue.get(name, "")
        print(f"   {name:<44} {value:>14.6g} {unit}")


def measure(workload: str, args, catalogue: dict):
    """One workload's outcome, or ``None`` when the worker crashed."""
    records = run_worker(workload, args.seed, args.seconds, args.trace)
    if records["timed_out"]:
        attempted = max(records.get("planned", 1), 1)
        print(f"perfbench: {workload} passed its {DEADLINE_S:.0f} s deadline; "
              f"counting all {attempted} requests failed", file=sys.stderr)
        return {"correct": False, "attempted": attempted,
                "failed": attempted, "metrics": {}}
    if records["returncode"] != 0 or "result" not in records:
        print(f"perfbench: {workload} worker failed "
              f"(exit {records['returncode']})", file=sys.stderr)
        return None
    _render(workload, records, catalogue)
    result = records["result"]
    if not result.get("correct", True):
        print(f"perfbench: {workload}: {result.get('error')}", file=sys.stderr)
        return {"correct": False, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": {}}
    metrics = {}
    for name, unit in catalogue.items():
        if name not in result["metrics"]:
            raise KeyError(f"{workload} did not report {name}")
        metrics[name] = {"value": result["metrics"][name], "unit": unit}
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    catalogue = {m["name"]: m["unit"] for m in section}
    _become_subreaper()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        started = time.perf_counter()
        outcome = measure(name, args, catalogue)
        if outcome is None:
            return 1
        outcomes[name] = outcome
        print(f"   ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, outcome in outcomes.items()
                for metric, value in outcome["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
