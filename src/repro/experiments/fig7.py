"""Figure 7: hidden BER at ten PP steps vs page interval and bit count.

The Fig. 6 sweep evaluated at m=10: "the variation in bit error rate is
small and generally insensitive to the number of hidden cells", with
irregularity "within the bounds of naturally occurring variance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .common import Result, Table
from . import fig6


@dataclass
class Fig7Result(Result):
    summary: Table
    #: (interval, bits) -> BER at 10 steps.
    points: dict


def run(
    page_intervals: Sequence[int] = fig6.DEFAULT_PAGE_INTERVALS,
    bit_counts: Sequence[int] = fig6.DEFAULT_BIT_COUNTS,
    blocks_per_config: int = 2,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig7Result:
    sweep = fig6.run(
        page_intervals=page_intervals,
        bit_counts=bit_counts,
        max_steps=10,
        blocks_per_config=blocks_per_config,
        seed=seed,
        workers=workers,
        backend=backend,
    )
    points = {
        key: curve[-1] for key, curve in sweep.curves.items()
    }
    summary = Table(
        "Fig. 7 — hidden BER with ten PP steps",
        ("page interval",) + tuple(f"{b} hidden cells" for b in bit_counts),
    )
    for interval in page_intervals:
        summary.add(
            interval,
            *[points[(interval, bits)] for bits in bit_counts],
        )
    return Fig7Result(summary, points)
