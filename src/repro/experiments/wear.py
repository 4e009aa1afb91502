"""§8/§1 Wear: write amplification of hidden data.

"Writing hidden data amplifies writes to hidden cells by a factor of ten;
this is an order-of-magnitude reduction compared to the state of the art
(PT-HI requires 625)."  The driver reports the model numbers and verifies
them against the simulator's op counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hiding.config import STANDARD_CONFIG
from ..hiding.pthi import PtHi, PtHiConfig
from ..hiding.vthi import VtHi
from ..perf.model import paper_comparison
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
class WearResult(Result):
    summary: Table
    vthi_program_ops_per_page: int
    pthi_block_pec_after_encode: int


def run(seed: int = 0) -> WearResult:
    comparison = paper_comparison()
    model = default_model()
    chip = make_samples(model, 1, base_seed=19_000 + seed)[0]
    key = experiment_key(f"wear-{seed}")

    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=64)
    vthi = VtHi(chip, config)
    public = random_page_bits(chip, "wear-pub", 0)
    chip.erase_block(0)
    chip.program_page(0, 0, public)
    before = chip.counters.copy()
    vthi.embed_bits(
        0, 0, random_bits(64, "wear-hid", 0), key, public_bits=public
    )
    vthi_ops = chip.counters.diff(before).partial_programs

    pthi = PtHi(chip, PtHiConfig(bits_per_page=32, group_size=16))
    pthi.encode_block(1, {0: random_bits(32, "wear-pthi", 0)}, key)
    pthi_pec = chip.block_pec(1)

    summary = Table(
        "§8 Wear amplification",
        ("scheme", "model (extra ops/page)", "measured"),
    )
    summary.add(
        "VT-HI",
        comparison.vthi.wear_amplification,
        f"{vthi_ops} PP pulses on the page",
    )
    summary.add(
        "PT-HI",
        comparison.pthi.wear_amplification,
        f"block PEC {pthi_pec} after encoding",
    )
    summary.add(
        "reduction (paper: ~62x fewer ops)",
        f"{comparison.wear_reduction:.0f}x",
        "",
    )
    return WearResult(summary, int(vthi_ops), int(pthi_pec))
