"""Fleet SLO attribution: deterministic round-latency percentiles.

The fleet's latency story has two clocks.  Wall-clock ``latency_s``
measures this machine on this run and legitimately varies; the round
stamps (:attr:`~repro.fleet.requests.Response.latency_rounds`) are a
*virtual* clock — rounds from admission to completion — that is a pure
function of the workload and the queue configuration.  SLO reporting is
built on the virtual clock so the table `repro-stash fleet --report`
prints is reproducible bit-for-bit, comparable across schedulers
(naive vs coalesced form identical rounds, so equal latencies there is
itself an invariant) and across in-process vs remote execution.

Percentiles use the nearest-rank definition: the smallest sample whose
cumulative share is >= the requested percentile.  Exact on integer
round counts — no interpolation, nothing float-sensitive: the rank is
computed in rational arithmetic, since ``99.9 / 100.0`` rounds up in
binary floating point and would push p99.9 one rank too far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

from ..obs.report import table
from .requests import Response

#: The percentiles the SLO table reports.
SLO_PERCENTILES = (50.0, 99.0, 99.9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of `samples` (pct in (0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = math.ceil(Fraction(str(pct)) * len(ordered) / 100)
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class SloRow:
    """One (scheduler, op kind) row of the SLO table."""

    scheduler: str
    kind: str
    count: int
    p50: int
    p99: int
    p999: int


def latency_samples(
    responses: Sequence[Response],
) -> Dict[str, List[int]]:
    """Round latencies grouped by op kind (unstamped responses skipped)."""
    by_kind: Dict[str, List[int]] = {}
    for response in responses:
        latency = response.latency_rounds
        if latency < 0:
            continue
        by_kind.setdefault(response.kind, []).append(latency)
    return by_kind


def slo_rows(
    by_scheduler: Mapping[str, Sequence[Response]],
) -> List[SloRow]:
    """SLO rows for each scheduler's drained responses, kinds sorted."""
    rows: List[SloRow] = []
    for scheduler in by_scheduler:
        by_kind = latency_samples(by_scheduler[scheduler])
        for kind in sorted(by_kind):
            samples = by_kind[kind]
            p50, p99, p999 = (
                int(percentile(samples, pct)) for pct in SLO_PERCENTILES
            )
            rows.append(
                SloRow(scheduler, kind, len(samples), p50, p99, p999)
            )
    return rows


def render_slo_table(
    by_scheduler: Mapping[str, Sequence[Response]],
) -> str:
    """The ``fleet --report`` table: p50/p99/p999 rounds per kind."""
    rows = slo_rows(by_scheduler)
    if not rows:
        return "(no stamped responses)"
    return (
        "SLO: round latency percentiles (virtual time, deterministic)\n\n"
        + table(
            ("scheduler", "kind", "count", "p50", "p99", "p99.9"),
            [
                (r.scheduler, r.kind, r.count, r.p50, r.p99, r.p999)
                for r in rows
            ],
        )
    )
