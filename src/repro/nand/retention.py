"""Retention (charge leakage) and disturb-overlay models.

Retention: charges trapped in floating gates leak over time, shifting cell
voltages *down* (§8 Reliability).  The simulator models a PEC-dependent
fraction of "leaky" cells (damaged tunnel oxide) whose loss is exponentially
distributed, on top of a small baseline drift affecting every cell.  Both
grow logarithmically with time since programming, matching the saturating
behaviour behind the paper's bake-accelerated measurements (Fig. 11).

Disturb overlay: raw public bit errors that do not come from the SLC voltage
overlap (pass-disturb, inter-cell coupling, MLC mechanics the SLC view hides)
are modelled as a per-cell flip probability that grows with PEC, with the
block-to-block BER variation §4 reports, and with accumulated disturb
exposure from neighbouring program/PP activity (§6.3).

Both models are *lazy and deterministic*: each page owns latent per-cell
uniform fields derived from (chip seed, block, page, program epoch), so
repeated reads observe consistent, monotonically-degrading physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import uniform_field
from .params import RetentionModel


def leaky_fraction(model: RetentionModel, pec: int) -> float:
    """Fraction of leaky cells for a block programmed at the given PEC."""
    grown = model.leaky_frac_at_2kpec * (max(pec, 0) / 2000.0) ** (
        model.leaky_frac_exponent
    )
    return min(model.leaky_frac_base + grown, 0.9)


def time_factor(model: RetentionModel, elapsed_s: float) -> float:
    """Log-time growth factor, 1.0 at the model's reference time."""
    if elapsed_s <= 0:
        return 0.0
    return float(
        np.log1p(elapsed_s / model.time_knee_s)
        / np.log1p(model.reference_time_s / model.time_knee_s)
    )


@dataclass(frozen=True)
class LeakField:
    """Cached leak latents for one (page, program epoch).

    Collapses the two full-page latent uniform fields ("leak-select" and
    "leak-magnitude") into the only data any elapsed time needs: which
    cells are leaky and the negated log of their magnitude uniforms.
    Every evaluation (:func:`leakage_from_field`) is then a scatter-add
    over just the leaky cells.
    """

    n_cells: int
    leaky_idx: np.ndarray
    neg_log_magnitude: np.ndarray


def leak_field(
    model: RetentionModel,
    *,
    chip_seed: int,
    block: int,
    page: int,
    epoch: int,
    pec_at_program: int,
    n_cells: int,
) -> LeakField:
    """Materialise the latent leak structure for a (page, epoch)."""
    frac = leaky_fraction(model, pec_at_program)
    select = uniform_field(chip_seed, "leak-select", block, page, epoch, size=n_cells)
    magnitude = uniform_field(
        chip_seed, "leak-magnitude", block, page, epoch, size=n_cells
    )
    leaky_idx = np.flatnonzero(select < frac)
    neg_log_magnitude = -np.log(np.clip(magnitude[leaky_idx], 1e-300, None))
    return LeakField(
        n_cells=n_cells,
        leaky_idx=leaky_idx,
        neg_log_magnitude=neg_log_magnitude,
    )


def leakage_from_field(
    model: RetentionModel, field: LeakField, *, elapsed_s: float
) -> np.ndarray:
    """Per-cell voltage loss for a page, `elapsed_s` after programming.

    Deterministic in the field and `elapsed_s`, and monotonically
    non-decreasing in `elapsed_s`, so reads are repeatable and cells
    never "heal".
    """
    factor = time_factor(model, elapsed_s)
    if factor == 0.0:
        return np.zeros(field.n_cells, dtype=np.float32)
    scale = model.leak_scale_4mo * factor
    leak = np.full(
        field.n_cells, model.baseline_drift_4mo * factor, dtype=np.float64
    )
    if field.leaky_idx.size:
        # Exponential magnitudes via inverse CDF on the latent uniforms.
        leak[field.leaky_idx] += scale * field.neg_log_magnitude
    return leak.astype(np.float32)


def disturb_field(
    *, chip_seed: int, block: int, page: int, epoch: int, n_cells: int
) -> np.ndarray:
    """The latent disturb-susceptibility uniforms for one (page, epoch).

    Materialised once per program epoch, then thresholded per read with
    :func:`disturb_flips_from_field` (a single vector compare).
    """
    return uniform_field(chip_seed, "disturb", block, page, epoch, size=n_cells)


def disturb_flips_from_field(
    field: np.ndarray, flip_probability: float
) -> np.ndarray:
    """Boolean mask of cells whose read value is flipped by disturb errors.

    The mask is monotone in `flip_probability`: raising exposure can only
    add flips, never remove them, because the same latent field is
    thresholded.  Its uniforms lie in [0, 1), so a probability of 0 or
    less flips no cell.
    """
    return field < min(flip_probability, 1.0)
