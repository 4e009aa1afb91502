"""Figure 9: visual indistinguishability of hidden vs normal distributions.

Three blocks from different chips, shown normally programmed and after
applying VT-HI: "the human eye has difficulty distinguishing which
distributions come from blocks with hidden data".  The reproduction
quantifies the eye: the KS distance between a chip's normal and hidden
voltage samples should be of the same order as the KS distance between two
normal samples from *different* chips (natural variation).

Each chip is an independent work unit (rebuilt from its seed), so the
measurement fans out over workers with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.distributions import ks_distance
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


@dataclass
class Fig9Result(Result):
    #: per-chip (normal erased sample, hidden erased sample).
    samples: List
    summary: Table

    @property
    def hidden_vs_normal_ks(self) -> List[float]:
        return [row[1] for row in self.summary.rows if row[0] != "cross-chip"]

    @property
    def cross_chip_ks(self) -> float:
        for row in self.summary.rows:
            if row[0] == "cross-chip":
                return row[1]
        raise KeyError("cross-chip row missing")


def _chip_unit(
    index: int,
    bits_scale_divisor: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One work unit: one chip sample's normal and hidden erased samples.

    Rebuilds the chip from its seed (``make_samples`` seed arithmetic), so
    the unit computes the same bits in any process.
    """
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=9000 + seed + index)[0]
    key = experiment_key(f"fig9-{seed}")
    config = STANDARD_CONFIG.replace(
        ecc_t=0,
        bits_per_page=max(256 // bits_scale_divisor, 8),
    )
    normal_parts, hidden_parts = [], []
    vthi = VtHi(chip, config)
    for blk, hide in ((0, False), (1, True)):
        chip.erase_block(blk)
        for page in range(chip.geometry.pages_per_block):
            public = random_page_bits(
                chip, f"fig9-pub-{index}", blk * 100 + page
            )
            chip.program_page(blk, page, public)
            if hide and page % config.page_stride == 0:
                hidden = random_bits(
                    config.bits_per_page,
                    f"fig9-hid-{index}",
                    blk * 100 + page,
                )
                vthi.embed_bits(
                    blk, page, hidden, key, public_bits=public
                )
            voltages = chip.probe_voltages(blk, page)
            target = hidden_parts if hide else normal_parts
            target.append(voltages[public == 1])
    normal = np.concatenate(normal_parts).astype(np.float64)
    hidden = np.concatenate(hidden_parts).astype(np.float64)
    return normal, hidden


def run(
    n_chips: int = 3,
    bits_scale_divisor: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig9Result:
    units = [
        (index, bits_scale_divisor, seed) for index in range(n_chips)
    ]
    samples = ParallelRunner(workers, backend).map(_chip_unit, units)
    summary = Table(
        "Fig. 9 — KS distance: hidden-vs-normal compared to natural "
        "chip-to-chip variation",
        ("comparison", "KS distance"),
    )
    for index, (normal, hidden) in enumerate(samples):
        summary.add(
            f"chip{index} hidden-vs-normal", ks_distance(normal, hidden)
        )
    cross = ks_distance(samples[0][0], samples[1][0])
    summary.add("cross-chip", cross)
    return Fig9Result(samples, summary)
