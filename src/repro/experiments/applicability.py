"""§8 Applicability: the second vendor's chip.

"To verify that our method also applies to other flash chip models, we
tested it on a 1x-nm 16GB MLC chip model from a different major vendor ...
We tested our method on a fresh chip (PEC 0) and hid a 256 bit payload in
relevant pages ... The resulting BER was 1%, similar to the one in the
first model."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hiding.config import STANDARD_CONFIG
from ..hiding.vthi import VtHi
from ..nand.chip import FlashChip
from ..nand.vendor import VENDOR_A, VENDOR_B, scaled_model
from .common import Result, Table, experiment_key, random_bits, random_page_bits


@dataclass
class ApplicabilityResult(Result):
    vendor_a_ber: float
    vendor_b_ber: float
    summary: Table


def run(pages: int = 6, payload_bits: int = 256, seed: int = 0) -> ApplicabilityResult:
    key = experiment_key(f"applicability-{seed}")
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=payload_bits)
    bers = {}
    for vendor in (VENDOR_A, VENDOR_B):
        model = scaled_model(
            vendor,
            n_blocks=8,
            pages_per_block=pages * config.page_stride,
            suffix="applicability",
        )
        chip = FlashChip(model.geometry, model.params, seed=23_000 + seed)
        vthi = VtHi(chip, config)
        chip.erase_block(0)
        errors = []
        for page in range(0, pages * config.page_stride, config.page_stride):
            public = random_page_bits(chip, f"app-{vendor.name}", page)
            hidden = random_bits(payload_bits, f"app-hid-{vendor.name}", page)
            chip.program_page(0, page, public)
            vthi.embed_bits(0, page, hidden, key, public_bits=public)
            back = vthi.read_bits(
                0, page, payload_bits, key, public_bits=public
            )
            errors.append((back != hidden).mean())
        bers[vendor.name] = float(np.mean(errors))
    summary = Table(
        "§8 Applicability — same method, second vendor (paper: BER ~1%)",
        ("chip model", "hidden BER (256-bit payloads, PEC 0)"),
    )
    for name, ber in bers.items():
        summary.add(name, ber)
    values = list(bers.values())
    return ApplicabilityResult(values[0], values[1], summary)
