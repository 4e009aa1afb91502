"""§6.2's MLC extension claim, tested.

"A limitation resulting from the lack of a more precise programming
mechanism ... is that we found it difficult to reliably hide data in MLC
or TLC modes using partial programming ... the PP command on our test
device was too coarse for this experiment to correctly store hidden data,
and tended to disrupt public bits.  ... with more precise programming
steps and/or the ability to adjust voltage thresholds slightly, our
approach should extend to MLC or TLC."

The experiment hides inside the MLC *erased interval* (the only interval
wide enough to carry a sub-threshold, at V_th = 20) twice: once with the
coarse external PP pulse and once with firmware-precision pulses.  The
coarse attempt must disrupt public (lower-page) bits and/or blow the
hidden BER; the precise attempt must work — both halves of §6.2's claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hiding.config import HidingConfig
from ..hiding.selection import select_cells
from ..hiding.vthi import VtHi
from ..nand.mlc import MlcView
from .common import (
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
)

#: VT-HI-in-MLC operating point: threshold inside the MLC erased interval.
COARSE_MLC_CONFIG = HidingConfig(
    threshold=20.0, pp_steps=6, bits_per_page=512, guard=2.0,
    pp_fraction=1.0, pp_precision=1.0, ecc_t=0,
)
PRECISE_MLC_CONFIG = COARSE_MLC_CONFIG.replace(
    pp_fraction=0.35, pp_precision=0.2,
)


@dataclass
class MlcExtensionResult:
    summary: Table
    coarse_hidden_ber: float
    coarse_public_flips: int
    precise_hidden_ber: float
    precise_public_flips: int

    def rows(self):
        return self.summary.rows

    @property
    def headers(self):
        return self.summary.headers


def _attempt(chip, mlc, block, config, key, bits, label):
    lower = random_bits(chip.geometry.cells_per_page, f"mlc-l-{label}")
    upper = random_bits(chip.geometry.cells_per_page, f"mlc-u-{label}")
    chip.erase_block(block)
    mlc.program_page(block, 0, lower, upper)
    # Baseline: MLC has intrinsic raw errors (narrow intervals); the cost
    # of hiding is the *added* flips, measured paired on the same page.
    lower_base, upper_base = mlc.read_page(block, 0)
    baseline_flips = int(
        (lower_base != lower).sum() + (upper_base != upper).sum()
    )
    # Hiding candidates are cells in the erased interval: both bits 1.
    erased_cells = ((lower == 1) & (upper == 1)).astype(np.uint8)
    address = chip.geometry.page_address(block, 0)
    cells = select_cells(key, address, erased_cells, bits.size)
    zero_cells = cells[bits == 0]
    VtHi(chip, config).embed_prepared([(block, 0, zero_cells)])
    shifted = chip.read_page(block, 0, threshold=config.threshold)
    hidden_ber = float((shifted[cells] != bits).mean())
    lower_back, upper_back = mlc.read_page(block, 0)
    public_flips = int(
        (lower_back != lower).sum() + (upper_back != upper).sum()
    ) - baseline_flips
    disruption_rate = max(public_flips, 0) / max(int(zero_cells.size), 1)
    return hidden_ber, max(public_flips, 0), disruption_rate


def run(bits: int = 512, seed: int = 0) -> MlcExtensionResult:
    model = default_model(pages_per_block=4)
    chip = make_samples(model, 1, base_seed=35_000 + seed)[0]
    mlc = MlcView(chip)
    key = experiment_key(f"mlc-ext-{seed}")
    payload = random_bits(bits, "mlc-hidden", seed)

    coarse_ber, coarse_flips, coarse_rate = _attempt(
        chip, mlc, 0, COARSE_MLC_CONFIG, key, payload, "coarse"
    )
    precise_ber, precise_flips, precise_rate = _attempt(
        chip, mlc, 1, PRECISE_MLC_CONFIG, key, payload, "precise"
    )
    summary = Table(
        "§6.2 — hiding inside MLC (coarse external PP vs in-controller "
        "precision)",
        ("programming", "hidden BER", "added public flips",
         "disruption per hidden '0'", "verdict"),
    )
    summary.add(
        "coarse PP (external, the paper's device)",
        coarse_ber,
        coarse_flips,
        f"{coarse_rate:.1%}",
        "disrupts public bits" if coarse_rate > 0.02 else "unexpected",
    )
    summary.add(
        "precise PP (in-controller, §6.2 projection)",
        precise_ber,
        precise_flips,
        f"{precise_rate:.1%}",
        "works" if precise_ber < 0.05 and precise_rate < 0.01
        else "unexpected",
    )
    return MlcExtensionResult(
        summary, coarse_ber, coarse_flips, precise_ber, precise_flips
    )
