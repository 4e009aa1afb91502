"""§8 Reliability: hidden BER across wear levels at write time.

"We cycled blocks in three different chips to four distinct PEC levels ...
BER is not affected by the age of the cells storing hidden data.  For
example, for PEC 0 the BER was 0.013.  For other PEC the BER was roughly
0.011."

Each (PEC level, chip) pair is an independent work unit: the chip is a
manufacturing sample rebuilt from its seed, so units fan out over worker
processes and merge in (pec, chip) order with bit-identical results at
any worker count.  Within a unit the pages of the block are programmed,
embedded and read with the batched chip operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hiding.config import STANDARD_CONFIG
from ..hiding.vthi import VtHi
from ..nand.chip import FlashChip
from ..parallel import ParallelRunner
from .common import (
    Table,
    default_model,
    experiment_key,
    random_bits,
    random_page_bits,
)

DEFAULT_PECS = (0, 1000, 2000, 3000)


@dataclass
class ReliabilityResult:
    ber_by_pec: Dict[int, float]
    summary: Table

    def rows(self):
        return self.summary.rows

    @property
    def headers(self):
        return self.summary.headers


def _chip_unit(
    pec_index: int,
    pec: int,
    chip_seed: int,
    pages: int,
    bits_per_page: int,
    seed: int,
) -> List[float]:
    """One work unit: one chip sample aged to one PEC level.

    Rebuilds the chip from its seed, so the unit computes the same bits
    in any process.  Returns the per-page hidden BERs.
    """
    model = default_model(pages_per_block=8)
    chip = FlashChip(model.geometry, model.params, seed=chip_seed)
    key = experiment_key(f"reliability-{seed}")
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=bits_per_page)
    vthi = VtHi(chip, config)
    block = pec_index
    chip.age_block(block, pec)
    page_list = list(range(pages))
    publics = [
        random_page_bits(chip, f"rel-pub-{pec}", chip.seed * 100 + page)
        for page in page_list
    ]
    hiddens = [
        random_bits(bits_per_page, f"rel-hid-{pec}", chip.seed * 100 + page)
        for page in page_list
    ]
    chip.program_pages(block, page_list, publics)
    locations = [(block, page) for page in page_list]
    vthi.embed_locations(locations, hiddens, key, public_bits=publics)
    errors = [
        float(
            (
                vthi.read_bits(
                    block, page, bits_per_page, key,
                    public_bits=publics[page],
                )
                != hiddens[page]
            ).mean()
        )
        for page in page_list
    ]
    chip.release_block(block)
    return errors


def run(
    pec_levels: Sequence[int] = DEFAULT_PECS,
    n_chips: int = 3,
    pages: int = 4,
    bits_per_page: int = 512,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> ReliabilityResult:
    units = [
        (index, pec, 21_000 + seed + chip_index, pages, bits_per_page, seed)
        for index, pec in enumerate(pec_levels)
        for chip_index in range(n_chips)
    ]
    partials = ParallelRunner(workers, backend).map(_chip_unit, units)
    ber_by_pec: Dict[int, float] = {}
    summary = Table(
        "§8 Reliability — hidden BER vs wear at write time",
        ("PEC", "hidden BER (mean over chips)",),
    )
    for index, pec in enumerate(pec_levels):
        errors: List[float] = []
        for chip_index in range(n_chips):
            errors.extend(partials[index * n_chips + chip_index])
        ber_by_pec[pec] = float(np.mean(errors))
        summary.add(pec, ber_by_pec[pec])
    return ReliabilityResult(ber_by_pec, summary)
