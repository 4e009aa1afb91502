"""Figure 2: voltage distributions of four chip samples, block & page level.

The paper programs pseudorandom data into blocks of four samples of the
same chip model and probes the cell voltage distributions, showing (a/b)
block-level and (c/d) page-level curves for non-programmed and programmed
cells.  The reproduction target is the *statistics*: erased cells
concentrated in [0, 70] with long noisy tails, programmed in [120, 210],
visible sample-to-sample variation, and page-level curves noisier than
block-level ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analysis.distributions import Histogram, voltage_histogram
from ..nand.tester import NandTester
from .common import Result, Table, default_model, make_samples


@dataclass
class Fig2Result(Result):
    """Distribution curves plus the summary statistics the text quotes."""

    block_erased: List[Histogram]
    block_programmed: List[Histogram]
    page_erased: List[Histogram]
    page_programmed: List[Histogram]
    summary: Table


def run(n_samples: int = 4, pages_per_block: int = 8, seed: int = 0) -> Fig2Result:
    """Regenerate Fig. 2's curves on `n_samples` simulated samples."""
    model = default_model(pages_per_block=pages_per_block)
    chips = make_samples(model, n_samples, base_seed=2000 + seed)
    tester = NandTester(chips)
    block_erased, block_programmed = [], []
    page_erased, page_programmed = [], []
    summary = Table(
        "Fig. 2 — voltage distributions across chip samples",
        (
            "sample", "level", "erased-mean", "erased-p99.99<=70",
            "prog-mean", "prog-in-[120,210]",
        ),
    )
    for index in range(n_samples):
        data = tester.program_random_block(index, 0, seed=seed)
        voltages = tester.probe_block(index, 0)
        erased = voltages[data == 1].astype(np.float64)
        programmed = voltages[data == 0].astype(np.float64)
        block_erased.append(voltage_histogram(erased, bins=70, value_range=(0, 70)))
        block_programmed.append(
            voltage_histogram(programmed, bins=90, value_range=(120, 210))
        )
        page_voltages = voltages[0]
        page_bits = data[0]
        page_erased.append(
            voltage_histogram(
                page_voltages[page_bits == 1], bins=70, value_range=(0, 70)
            )
        )
        page_programmed.append(
            voltage_histogram(
                page_voltages[page_bits == 0], bins=90, value_range=(120, 210)
            )
        )
        summary.add(
            index,
            "block",
            float(erased.mean()),
            float((erased <= 70).mean()),
            float(programmed.mean()),
            float(((programmed >= 120) & (programmed <= 210)).mean()),
        )
    return Fig2Result(
        block_erased, block_programmed, page_erased, page_programmed, summary
    )


def sample_variation(histograms: List[Histogram]) -> float:
    """Mean absolute curve-to-curve deviation — the "noticeable variation"
    between samples the paper points at."""
    stacked = np.stack([h.percent for h in histograms])
    return float(np.abs(stacked - stacked.mean(axis=0)).mean())


def curve_roughness(histograms: List[Histogram]) -> float:
    """Mean second-difference magnitude — the jaggedness of the curves.

    Smaller cell populations (pages vs whole blocks) produce visibly
    rougher curves; this is the "even greater noisiness" of Fig. 2c/d.
    """
    total = 0.0
    for hist in histograms:
        percent = hist.percent
        total += float(
            np.abs(percent[2:] - 2 * percent[1:-1] + percent[:-2]).mean()
        )
    return total / len(histograms)


def page_vs_block_noisiness(result: Fig2Result) -> Dict[str, float]:
    """Page-level curves should be noisier than block-level (Fig. 2c/d)."""
    return {
        "block": curve_roughness(result.block_erased),
        "page": curve_roughness(result.page_erased),
    }
