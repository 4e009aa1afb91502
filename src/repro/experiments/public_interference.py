"""§6.3's public-data cost of hiding: page-interval interference.

"Using no physical space between pages storing hidden data increased the
public BER by 20%.  At one physical page interval, the interference is
reduced to a more acceptable 10%."

Public BER is ~3e-5, so a 10-20% penalty is a handful of extra bit flips
per block — far below block-to-block BER variation.  The driver therefore
uses a *paired* design: each block's public BER is measured immediately
after programming and again after embedding, and the penalty is the paired
relative increase.  (The paper compares across large block populations;
pairing buys the same statistical power at simulation scale.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..hiding.config import STANDARD_CONFIG
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

DEFAULT_INTERVALS = (0, 1)


@dataclass
class InterferenceResult(Result):
    baseline_ber: float
    ber_by_interval: Dict[int, float]
    paired_baselines: Dict[int, float]
    summary: Table

    def penalty(self, interval: int) -> float:
        """Relative public-BER increase caused by hiding at this interval,
        against the same blocks' pre-embedding BER."""
        return (
            self.ber_by_interval[interval]
            / self.paired_baselines[interval]
            - 1.0
        )


def run(
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    blocks: int = 10,
    pages_per_block: int = 8,
    page_divisor: int = 2,
    bits_per_page: int = 128,
    seed: int = 0,
) -> InterferenceResult:
    model = default_model(
        pages_per_block=pages_per_block,
        n_blocks=max(blocks, 8),
        page_divisor=page_divisor,
    )
    chip = make_samples(model, 1, base_seed=25_000 + seed)[0]
    key = experiment_key(f"interference-{seed}")

    before_errors = {interval: 0 for interval in intervals}
    after_errors = {interval: 0 for interval in intervals}
    total_bits = {interval: 0 for interval in intervals}
    block = 0
    for interval in intervals:
        config = STANDARD_CONFIG.replace(
            ecc_t=0, bits_per_page=bits_per_page, page_interval=interval
        )
        vthi = VtHi(chip, config)
        for _ in range(blocks):
            blk = block % chip.geometry.n_blocks
            block += 1
            chip.erase_block(blk)
            publics = []
            for page in range(pages_per_block):
                public = random_page_bits(
                    chip, f"int-pub-{interval}-{blk}", page
                )
                chip.program_page(blk, page, public)
                publics.append(public)
            for page in range(pages_per_block):
                before_errors[interval] += int(
                    (chip.read_page(blk, page) != publics[page]).sum()
                )
            for page in range(0, pages_per_block, config.page_stride):
                hidden = random_bits(
                    bits_per_page, f"int-hid-{interval}-{blk}", page
                )
                vthi.embed_bits(
                    blk, page, hidden, key, public_bits=publics[page]
                )
            for page in range(pages_per_block):
                after_errors[interval] += int(
                    (chip.read_page(blk, page) != publics[page]).sum()
                )
            total_bits[interval] += (
                pages_per_block * chip.geometry.cells_per_page
            )
            chip.release_block(blk)

    baseline = float(
        sum(before_errors.values()) / sum(total_bits.values())
    )
    ber_by_interval = {
        interval: after_errors[interval] / total_bits[interval]
        for interval in intervals
    }
    summary = Table(
        "§6.3 — public BER penalty vs page interval "
        "(paper: +20% at 0, +10% at 1)",
        ("setup", "public BER", "penalty vs paired baseline"),
    )
    summary.add("no hidden data (paired baseline)", baseline, "-")
    for interval in intervals:
        own_baseline = before_errors[interval] / total_bits[interval]
        penalty = ber_by_interval[interval] / own_baseline - 1.0
        summary.add(
            f"interval {interval}",
            ber_by_interval[interval],
            f"{100*penalty:+.0f}%",
        )
    paired = {
        interval: before_errors[interval] / total_bits[interval]
        for interval in intervals
    }
    return InterferenceResult(baseline, ber_by_interval, paired, summary)
