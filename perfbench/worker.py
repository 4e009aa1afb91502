"""Run one workload in this process and report it as JSON lines.

Started by ``perfbench/run.py`` in its own process group, with the BLAS
and OpenMP pools pinned to one thread.  It prints ``{"planned": n}``
first (the requests one pass attempts, so a run killed at its deadline
can still count its failures), then ``{"env": ...}`` and finally
``{"result": ...}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys


def environment() -> dict:
    """CPU count, Python, numpy and BLAS versions, thread settings."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    from perfbench import workloads
    from perfbench.checks import SilentCorruption

    emit(planned=workloads.planned_requests(args.workload))
    env = environment()
    emit(env=env)
    workload = workloads.WORKLOADS[args.workload]
    # Never more worker threads or processes than CPUs.
    if isinstance(workload, workloads.Fig6Workload):
        workload = dataclasses.replace(
            workload, workers=min(workload.workers, env["cpus"])
        )
    elif workload.shard_workers is not None:
        workload = dataclasses.replace(
            workload, shard_workers=min(workload.shard_workers, env["cpus"])
        )
    try:
        result = workloads.run_workload(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    except SilentCorruption as error:
        planned = workloads.planned_requests(args.workload)
        emit(result={"correct": False, "error": str(error),
                     "attempted": planned, "failed": 0, "metrics": {}})
        return 0
    emit(result={"correct": True, **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
