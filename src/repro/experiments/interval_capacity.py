"""The §9.2 capacity endgame: interval (TLC-in-MLC) hiding, measured.

Quantifies what the paper projects qualitatively: with full in-controller
precision, hiding one sub-level bit in *every kind* of cell multiplies
capacity far beyond the 256-bits-per-page of the external-command
prototype — at the price of raw BER and retention margin (the narrow
sub-levels erode first as cells leak).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hiding.interval import IntervalHider, IntervalHidingConfig
from ..nand.mlc import MlcView
from ..units import MONTH
from .common import (
    Result,
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
)


@dataclass
class IntervalCapacityResult(Result):
    summary: Table
    fresh_ber: float
    aged_ber: float
    capacity_ratio: float


def run(
    bits_per_page: int = 2048,
    vthi_reference_bits: int = 256,
    pec: int = 1000,
    seed: int = 0,
) -> IntervalCapacityResult:
    model = default_model(pages_per_block=4)
    chip = make_samples(model, 1, base_seed=37_000 + seed)[0]
    # Scale the hidden load to the reduced page like other experiments.
    scaled_bits = max(bits_per_page // 4, 64)
    scaled_reference = max(vthi_reference_bits // 4, 8)
    hider = IntervalHider(
        MlcView(chip), IntervalHidingConfig(bits_per_page=scaled_bits)
    )
    key = experiment_key(f"interval-cap-{seed}")
    chip.age_block(0, pec)

    n = chip.geometry.cells_per_page
    lower = random_bits(n, "interval-lower", seed)
    upper = random_bits(n, "interval-upper", seed)
    hidden = random_bits(scaled_bits, "interval-hidden", seed)
    hider.program_with_hidden(0, 0, lower, upper, hidden, key)

    fresh = float(
        (hider.read_hidden(0, 0, key, scaled_bits) != hidden).mean()
    )
    chip.advance_time(4 * MONTH)
    aged = float(
        (hider.read_hidden(0, 0, key, scaled_bits) != hidden).mean()
    )
    lower_back, upper_back = hider.mlc.read_page(0, 0)
    public_ber = float(
        ((lower_back != lower).mean() + (upper_back != upper).mean()) / 2
    )
    ratio = scaled_bits / float(scaled_reference)

    summary = Table(
        "§9.2 — interval (TLC-in-MLC) hiding: capacity vs margins",
        ("quantity", "value"),
    )
    summary.add("hidden bits/page (vs classic VT-HI)",
                f"{scaled_bits} ({ratio:.0f}x)")
    summary.add("raw hidden BER (fresh)", fresh)
    summary.add("raw hidden BER (4 months, worn cells)", aged)
    summary.add("public MLC BER after hiding", public_ber)
    summary.add(
        "verdict",
        "capacity multiplies; retention margin is the binding constraint",
    )
    return IntervalCapacityResult(summary, fresh, aged, ratio)
