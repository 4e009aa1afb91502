"""Figure 5: where VT-HI's encoding regions live in the erased distribution.

Fig. 5 shows the non-programmed cell hump with the hidden '1' region below
the V_th=34 cut-off and the hidden '0' region above it (still far below the
public threshold at 127).  The reproduction embeds a page and reports the
voltage populations of normal '1' cells, hidden '1' cells and hidden '0'
cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import Histogram, voltage_histogram
from ..hiding.config import STANDARD_CONFIG, HidingConfig
from ..hiding.selection import select_cells
from ..hiding.vthi import VtHi
from .common import (
    Result,
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)


@dataclass
class Fig5Result(Result):
    normal_ones: Histogram
    hidden_ones: Histogram
    hidden_zeros: Histogram
    summary: Table


def run(
    config: HidingConfig = None, bits: int = 128, seed: int = 0
) -> Fig5Result:
    model = default_model()
    chip = make_samples(model, 1, base_seed=5000 + seed)[0]
    config = (config or STANDARD_CONFIG).replace(
        ecc_t=0, bits_per_page=bits
    )
    vthi = VtHi(chip, config)
    key = experiment_key(f"fig5-{seed}")
    public = random_page_bits(chip, "fig5-public", seed)
    hidden = random_bits(bits, "fig5-hidden", seed)
    chip.erase_block(0)
    chip.program_page(0, 0, public)
    vthi.embed_bits(0, 0, hidden, key, public_bits=public)

    cells = select_cells(key, 0, public, bits)
    voltages = chip.probe_voltages(0, 0).astype(np.float64)
    hidden_cells = set(cells.tolist())
    normal_mask = (public == 1) & ~np.isin(
        np.arange(public.size), cells
    )
    normal = voltages[normal_mask]
    ones_v = voltages[cells[hidden == 1]]
    zeros_v = voltages[cells[hidden == 0]]

    summary = Table(
        "Fig. 5 — hidden encoding regions inside the erased distribution",
        ("population", "n", "mean-V", "min-V", "max-V", "frac>V_th", "frac>127"),
    )
    for name, values in (
        ("normal '1'", normal),
        ("hidden '1'", ones_v),
        ("hidden '0'", zeros_v),
    ):
        summary.add(
            name,
            int(values.size),
            float(values.mean()),
            float(values.min()),
            float(values.max()),
            float((values > config.threshold).mean()),
            float((values > 127).mean()),
        )
    hist = lambda v: voltage_histogram(v, bins=70, value_range=(0, 70))
    return Fig5Result(hist(normal), hist(ones_v), hist(zeros_v), summary)
