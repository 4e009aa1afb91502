"""Figure 3: voltage distributions shift right as PEC accumulates.

The paper cycles blocks to 0/1000/2000/3000 PEC and shows the erased and
programmed distributions drifting toward higher voltages with wear (worn
cells overprogram more easily).  The reproduction measures mean voltage of
both populations per wear level and checks the monotone rightward drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..analysis.distributions import Histogram, voltage_histogram
from ..nand.tester import NandTester
from .common import Result, Table, default_model, make_samples

DEFAULT_PEC_LEVELS = (0, 1000, 2000, 3000)


@dataclass
class Fig3Result(Result):
    erased: Dict[int, Histogram]
    programmed: Dict[int, Histogram]
    summary: Table

    def erased_means(self) -> List[float]:
        return [row[1] for row in self.summary.rows]

    def programmed_means(self) -> List[float]:
        return [row[3] for row in self.summary.rows]


def run(
    pec_levels: Sequence[int] = DEFAULT_PEC_LEVELS,
    pages_per_block: int = 8,
    seed: int = 0,
) -> Fig3Result:
    """Regenerate Fig. 3 on one simulated sample."""
    model = default_model(pages_per_block=pages_per_block)
    chip = make_samples(model, 1, base_seed=3000 + seed)[0]
    tester = NandTester([chip])
    erased_hists: Dict[int, Histogram] = {}
    programmed_hists: Dict[int, Histogram] = {}
    summary = Table(
        "Fig. 3 — distribution drift with wear",
        ("PEC", "erased-mean", "erased>34 frac", "prog-mean"),
    )
    for pec in pec_levels:
        tester.cycle_to_pec(0, 0, pec)
        data = tester.program_random_block(0, 0, seed=seed)
        voltages = tester.probe_block(0, 0)
        erased = voltages[data == 1].astype(np.float64)
        programmed = voltages[data == 0].astype(np.float64)
        erased_hists[pec] = voltage_histogram(
            erased, bins=70, value_range=(0, 70)
        )
        programmed_hists[pec] = voltage_histogram(
            programmed, bins=90, value_range=(120, 210)
        )
        summary.add(
            pec,
            float(erased.mean()),
            float((erased > 34).mean()),
            float(programmed.mean()),
        )
    return Fig3Result(erased_hists, programmed_hists, summary)
