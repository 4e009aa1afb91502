"""Figure 10: SVM detection accuracy vs wear, standard configuration.

Blocks with hidden data at PEC 0/1000/2000 are classified against normal
blocks across a sweep of normal-data PEC.  "For each line, there is a range
of a few hundred P/E cycles where the accuracy of the SVM is at 50%"; the
accuracy climbs as the wear gap grows — wear, not hiding, is what the
classifier can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.datasets import DatasetScale
from ..analysis.detect import sweep_normal_pec
from ..hiding.config import STANDARD_CONFIG, HidingConfig
from .common import Result, Table

DEFAULT_HIDDEN_PECS = (0, 1000, 2000)
DEFAULT_NORMAL_PECS = (0, 1000, 2000, 3000)


@dataclass
class Fig10Result(Result):
    outcomes: list
    summary: Table

    def accuracy(self, hidden_pec: int, normal_pec: int) -> float:
        for outcome in self.outcomes:
            if (
                outcome.hidden_pec == hidden_pec
                and outcome.normal_pec == normal_pec
            ):
                return outcome.accuracy
        raise KeyError((hidden_pec, normal_pec))


def run(
    hidden_pecs: Sequence[int] = DEFAULT_HIDDEN_PECS,
    normal_pecs: Sequence[int] = DEFAULT_NORMAL_PECS,
    scale: DatasetScale = None,
    config: HidingConfig = STANDARD_CONFIG,
    seed: int = 0,
    title: str = "Fig. 10 — SVM accuracy (%) vs normal PEC, standard config",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig10Result:
    if scale is None:
        scale = DatasetScale(
            page_divisor=8, pages_per_block=6, blocks_per_class=10
        )
    outcomes = sweep_normal_pec(
        config, hidden_pecs, normal_pecs, scale=scale, seed=seed,
        workers=workers, backend=backend,
    )
    summary = Table(
        title,
        ("hidden PEC",) + tuple(f"normal {p}" for p in normal_pecs),
    )
    for hidden_pec in hidden_pecs:
        row = [hidden_pec]
        for normal_pec in normal_pecs:
            match = next(
                o
                for o in outcomes
                if o.hidden_pec == hidden_pec and o.normal_pec == normal_pec
            )
            row.append(round(100.0 * match.accuracy, 1))
        summary.add(*row)
    return Fig10Result(outcomes, summary)
