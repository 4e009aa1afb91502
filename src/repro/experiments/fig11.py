"""Figure 11: normalized retention BER over 1 day / 1 month / 4 months.

Retention periods beyond a day are emulated by bake (Arrhenius), exactly
as the paper does.  Hidden and normal BER are measured right after
embedding ("zero time") and after each retention period, then normalised
to zero time.  The paper's headline: fresh cells barely degrade; at PEC
2000 hidden BER rises ~6.3x over four months while normal data rises only
~2.3x, because PP cannot leave a voltage buffer above the hiding threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hiding.config import STANDARD_CONFIG
from ..hiding.vthi import VtHi
from ..nand.bake import bake_duration_for
from ..nand.chip import FlashChip
from ..parallel import ParallelRunner
from ..units import DAY, MONTH
from .common import (
    Result,
    Table,
    default_model,
    experiment_key,
    random_bits,
    random_page_bits,
)

DEFAULT_PECS = (0, 1000, 2000)
DEFAULT_PERIODS = (("1 day", DAY), ("1 month", MONTH), ("4 month", 4 * MONTH))


@dataclass
class Fig11Result(Result):
    #: (pec, period label) -> (hidden normalized BER, normal normalized BER)
    normalized: Dict[Tuple[int, str], Tuple[float, float]]
    #: (pec,) -> zero-time (hidden BER, normal BER)
    zero_time: Dict[int, Tuple[float, float]]
    summary: Table


def _pec_unit(
    pec: int,
    periods,
    bits_per_page: int,
    pages: int,
    seed: int,
) -> Tuple[Tuple[float, float], List[Tuple[str, float, float]]]:
    """One work unit: one wear level's full retention timeline.

    A fresh chip per wear level keeps the retention clock per-cohort (and
    makes the unit self-contained: it rebuilds the chip from its seed, so
    it computes the same bits in any process).  Returns the zero-time
    (hidden, normal) BER pair and ``(label, hidden BER, normal BER)`` per
    retention period.
    """
    model = default_model(pages_per_block=8)
    key = experiment_key(f"fig11-{seed}")
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=bits_per_page)
    chip = FlashChip(
        model.geometry, model.params, seed=11_000 + seed * 17 + pec
    )
    vthi = VtHi(chip, config)
    chip.age_block(0, pec)
    publics, hiddens = [], []
    for page in range(pages):
        public = random_page_bits(chip, f"fig11-pub-{pec}", page)
        hidden = random_bits(bits_per_page, f"fig11-hid-{pec}", page)
        chip.program_page(0, page, public)
        vthi.embed_bits(0, page, hidden, key, public_bits=public)
        publics.append(public)
        hiddens.append(hidden)

    def measure() -> Tuple[float, float]:
        h_errs, n_errs = [], []
        for page in range(pages):
            back = vthi.read_bits(
                0, page, bits_per_page, key, public_bits=publics[page]
            )
            h_errs.append((back != hiddens[page]).mean())
            n_errs.append(
                (chip.read_page(0, page) != publics[page]).mean()
            )
        return float(np.mean(h_errs)), float(np.mean(n_errs))

    zero = measure()
    timeline: List[Tuple[str, float, float]] = []
    elapsed = 0.0
    for label, target in periods:
        # Bake emulation: room-equivalent time advances to `target`.
        chip.advance_time(target - elapsed)
        elapsed = target
        hidden_ber, normal_ber = measure()
        timeline.append((label, hidden_ber, normal_ber))
    return zero, timeline


def run(
    pec_levels: Sequence[int] = DEFAULT_PECS,
    periods=DEFAULT_PERIODS,
    bits_per_page: int = 512,
    pages: int = 6,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig11Result:
    """Regenerate Fig. 11 (plus the underlying zero-time BER table).

    Each wear level is an independent work unit (its chip is rebuilt from
    the seed), so the sweep fans out over workers with bit-identical
    results at any worker count or backend.
    """
    units = [
        (pec, tuple(periods), bits_per_page, pages, seed)
        for pec in pec_levels
    ]
    partials = ParallelRunner(workers, backend).map(_pec_unit, units)
    normalized: Dict[Tuple[int, str], Tuple[float, float]] = {}
    zero_time: Dict[int, Tuple[float, float]] = {}
    summary = Table(
        "Fig. 11 — BER after retention, normalised to zero time",
        ("PEC", "period", "hidden BER", "hidden x", "normal BER", "normal x"),
    )
    for pec, (zero, timeline) in zip(pec_levels, partials):
        hidden_zero, normal_zero = zero
        zero_time[pec] = zero
        for label, hidden_ber, normal_ber in timeline:
            h_norm = hidden_ber / max(hidden_zero, 1e-12)
            n_norm = normal_ber / max(normal_zero, 1e-12)
            normalized[(pec, label)] = (h_norm, n_norm)
            summary.add(pec, label, hidden_ber, h_norm, normal_ber, n_norm)
    return Fig11Result(normalized, zero_time, summary)


def oven_schedule(periods=DEFAULT_PERIODS, bake_temp_c: float = 125.0):
    """The bake durations a physical lab would use for these periods —
    provided for completeness of the §8 methodology."""
    return [
        (label, bake_duration_for(target, bake_temp_c))
        for label, target in periods
    ]
