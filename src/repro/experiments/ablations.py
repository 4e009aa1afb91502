"""Ablations of VT-HI's design choices.

The paper fixes its operating point empirically (§6.3) and argues for two
design decisions qualitatively: encrypting the hidden payload (§5.3) and
placing the threshold where charged cells naturally occur.  These
ablations make the trade-offs quantitative on the simulator:

* ``pulse_size`` — the stealth/speed trade-off of the PP pulse: long
  pulses converge in fewer steps but overshoot *outside the natural
  erased envelope* (cells above ~70), which is an unconditional tell no
  SVM is needed to spot;
* ``threshold_placement`` — V_th sweeps the trade between the natural
  cell budget (detectability headroom + hidden-'1' errors) and the
  retention margin;
* ``whitening`` — embedding a biased (unencrypted) payload halves or
  doubles the added tail mass, breaking the uniform-bit assumption the
  capacity analysis and wear levelling rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hiding.config import STANDARD_CONFIG
from ..hiding.selection import select_cells
from ..hiding.vthi import VtHi
from .common import (
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)


@dataclass
class AblationResult:
    summary: Table

    def rows(self):
        return self.summary.rows

    @property
    def headers(self):
        return self.summary.headers


def pulse_size(
    fractions: Sequence[float] = (0.3, 0.6, 1.0, 1.5),
    bits: int = 512,
    seed: int = 0,
) -> AblationResult:
    """Sweep PP pulse length: convergence speed vs envelope violations."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=31_000 + seed)[0]
    key = experiment_key(f"abl-pulse-{seed}")
    summary = Table(
        "Ablation — PP pulse length (stealth vs speed)",
        ("pulse fraction", "BER@1", "BER@10", "steps used",
         "hidden cells > 70 (tell)"),
    )
    for index, fraction in enumerate(fractions):
        config = STANDARD_CONFIG.replace(
            ecc_t=0, bits_per_page=bits, pp_fraction=fraction
        )
        block = index
        chip.erase_block(block)
        public = random_page_bits(chip, "abl-pulse-pub", index)
        hidden = random_bits(bits, "abl-pulse-hid", index)
        chip.program_page(block, 0, public)
        cells = select_cells(key, chip.geometry.page_address(block, 0),
                             public, bits)
        zero_cells = cells[hidden == 0]
        target = config.threshold + config.guard
        ber_curve = []
        steps = 0
        for _ in range(config.pp_steps):
            voltages = chip.probe_voltages(block, 0)
            below = zero_cells[voltages[zero_cells] < target]
            if below.size:
                chip.partial_program(block, 0, below, fraction=fraction)
                steps += 1
            back = chip.read_page(block, 0,
                                  threshold=config.threshold)[cells]
            ber_curve.append(float((back != hidden).mean()))
        voltages = chip.probe_voltages(block, 0).astype(float)
        over_envelope = int((voltages[zero_cells] > 70).sum())
        summary.add(fraction, ber_curve[0], ber_curve[-1], steps,
                    over_envelope)
        chip.release_block(block)
    return AblationResult(summary)


def threshold_placement(
    thresholds: Sequence[float] = (20.0, 27.0, 34.0, 41.0, 48.0),
    bits: int = 256,
    seed: int = 0,
) -> AblationResult:
    """Sweep V_th: natural budget vs hidden BER."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=32_000 + seed)[0]
    key = experiment_key(f"abl-vth-{seed}")
    summary = Table(
        "Ablation — threshold placement",
        ("V_th", "natural cells/page above", "hidden BER@10",
         "budget headroom (natural / hidden)"),
    )
    # Natural budgets come from one shared reference block so the sweep
    # is not confounded by block-to-block tail variation.
    reference_block = len(thresholds)
    reference = []
    for page in range(chip.geometry.pages_per_block):
        public = random_page_bits(chip, "abl-vth-ref", page)
        chip.program_page(reference_block, page, public)
        voltages = chip.probe_voltages(reference_block, page)
        reference.append((public, voltages))
    for index, threshold in enumerate(thresholds):
        config = STANDARD_CONFIG.replace(
            ecc_t=0, bits_per_page=bits, threshold=threshold
        )
        vthi = VtHi(chip, config)
        block = index
        chip.erase_block(block)
        errors = []
        for page in range(0, chip.geometry.pages_per_block, 2):
            public = random_page_bits(
                chip, f"abl-vth-pub-{index}", page
            )
            hidden = random_bits(bits, f"abl-vth-hid-{index}", page)
            chip.program_page(block, page, public)
            vthi.embed_bits(block, page, hidden, key, public_bits=public)
            back = vthi.read_bits(block, page, bits, key,
                                  public_bits=public)
            errors.append(float((back != hidden).mean()))
        natural = float(np.mean([
            ((public == 1) & (voltages > threshold)).sum()
            for public, voltages in reference
        ]))
        summary.add(
            threshold,
            natural,
            float(np.mean(errors)),
            round(natural / bits, 2),
        )
        chip.release_block(block)
    chip.release_block(reference_block)
    return AblationResult(summary)


def whitening(bias: float = 0.9, bits: int = 512, seed: int = 0) -> AblationResult:
    """Biased vs whitened hidden payloads: the §5.3 encryption rationale.

    A biased payload (e.g. mostly zeros) charges proportionally more (or
    fewer) cells than the capacity analysis assumes, shifting the added
    tail mass away from its design point — and concentrating wear.
    """
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=33_000 + seed)[0]
    key = experiment_key(f"abl-white-{seed}")
    summary = Table(
        "Ablation — payload whitening (why Algorithm 1 encrypts)",
        ("payload", "zero-bit fraction", "cells charged",
         "added tail mass vs design"),
    )
    design_zeros = bits / 2.0
    for index, (label, zero_fraction) in enumerate(
        (("whitened (encrypted)", 0.5), (f"biased ({bias:.0%} zeros)", bias))
    ):
        config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=bits)
        vthi = VtHi(chip, config)
        block = index
        chip.erase_block(block)
        public = random_page_bits(chip, "abl-white-pub", index)
        rng = np.random.default_rng(seed + index)
        hidden = (rng.random(bits) >= zero_fraction).astype(np.uint8)
        chip.program_page(block, 0, public)
        stats = vthi.embed_bits(block, 0, hidden, key, public_bits=public)
        summary.add(
            label,
            float((hidden == 0).mean()),
            stats.n_zero_bits,
            f"{stats.n_zero_bits / design_zeros:.2f}x",
        )
        chip.release_block(block)
    return AblationResult(summary)


def run(seed: int = 0) -> AblationResult:
    """All three ablations, concatenated into one report."""
    tables = [
        pulse_size(seed=seed).summary,
        threshold_placement(seed=seed).summary,
        whitening(seed=seed).summary,
    ]
    combined = Table(
        "Design-choice ablations (pulse, threshold, whitening)",
        ("section", "details"),
    )
    for table in tables:
        combined.add(table.title, f"{len(table.rows)} rows")
    result = AblationResult(combined)
    result.parts = tables
    return result
