"""Figure 8: block voltage distributions after hiding 0-256 bits per page.

"Hiding data using VT-HI creates only a tiny shift to the right for
non-programmed cells" — the averaged block-level curves for 32/64/128/256
hidden bits per page are nearly indistinguishable from the normal curve.
The reproduction averages erased-region histograms per density and reports
the mean-voltage shift and curve distance relative to density zero.

Each density is an independent work unit — it owns its own block range on
a chip sample rebuilt from the seed, and every block's randomness is a
per-block substream — so the sweep fans out over workers
(``workers=`` / ``backend=``) with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.distributions import Histogram, voltage_histogram
from ..hiding.config import STANDARD_CONFIG
from ..hiding.vthi import VtHi
from ..parallel import ParallelRunner
from .common import (
    Result,
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)

DEFAULT_DENSITIES = (0, 32, 64, 128, 256)


@dataclass
class Fig8Result(Result):
    histograms: Dict[int, Histogram]
    summary: Table


def _density_unit(
    density: int,
    block_start: int,
    blocks_per_density: int,
    bits_scale_divisor: int,
    seed: int,
) -> Tuple[Histogram, float]:
    """One work unit: every block of one hidden-bit density.

    Rebuilds the chip sample and key from seeds, so the unit computes the
    same bits in any process.  Returns (histogram, mean erased voltage).
    """
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=8000 + seed)[0]
    key = experiment_key(f"fig8-{seed}")
    scaled = max(density // bits_scale_divisor, 0)
    erased_all: List[np.ndarray] = []
    for rep in range(blocks_per_density):
        blk = (block_start + rep) % chip.geometry.n_blocks
        chip.erase_block(blk)
        config = STANDARD_CONFIG.replace(
            ecc_t=0,
            bits_per_page=max(scaled, 1),
        )
        vthi = VtHi(chip, config)
        for page in range(chip.geometry.pages_per_block):
            public = random_page_bits(
                chip, "fig8-public", blk * 100 + page
            )
            chip.program_page(blk, page, public)
            if scaled and page % config.page_stride == 0:
                hidden = random_bits(
                    scaled, "fig8-hidden", blk * 100 + page
                )
                vthi.embed_bits(
                    blk, page, hidden, key, public_bits=public
                )
            voltages = chip.probe_voltages(blk, page)
            erased_all.append(voltages[public == 1])
        chip.release_block(blk)
    values = np.concatenate(erased_all).astype(np.float64)
    histogram = voltage_histogram(values, bins=70, value_range=(0, 70))
    return histogram, float(values.mean())


def run(
    densities: Sequence[int] = DEFAULT_DENSITIES,
    blocks_per_density: int = 3,
    bits_scale_divisor: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig8Result:
    """Average erased-cell histograms per hidden-bit density."""
    units = [
        (
            density,
            index * blocks_per_density,
            blocks_per_density,
            bits_scale_divisor,
            seed,
        )
        for index, density in enumerate(densities)
    ]
    partials = ParallelRunner(workers, backend).map(_density_unit, units)
    histograms: Dict[int, Histogram] = {}
    means: Dict[int, float] = {}
    for density, (histogram, mean) in zip(densities, partials):
        histograms[density] = histogram
        means[density] = mean
    baseline = means[densities[0]]
    base_hist = histograms[densities[0]].percent
    summary = Table(
        "Fig. 8 — erased distribution shift vs hidden-bit density",
        ("hidden bits/page", "mean-V", "shift vs normal", "max curve diff (%)"),
    )
    for density in densities:
        summary.add(
            density,
            means[density],
            means[density] - baseline,
            float(np.abs(histograms[density].percent - base_hist).max()),
        )
    return Fig8Result(histograms, summary)
