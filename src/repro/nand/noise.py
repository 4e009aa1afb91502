"""Voltage-distribution sampling for the NAND simulator.

This module turns the static :class:`~repro.nand.params.ChipParams` plus the
dynamic state of a page (its manufacturing offsets and wear) into concrete
per-cell voltages.  It is the statistical heart of the substitution for the
paper's real chips: everything VT-HI and the §7 attacker observe flows
through these samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..rng import SeedPart, derive_seeds
from .params import ChipParams


@dataclass(frozen=True)
class PageLevels:
    """Effective distribution parameters for one page at one wear level.

    Combines the chip model with the hierarchy of manufacturing offsets
    (chip + block + page) and the PEC-driven drift of Fig. 3.
    """

    erased_core_mean: float
    erased_core_std: float
    erased_tail_frac: float
    erased_tail_start: float
    erased_tail_scale: float
    erased_tail_span: float
    programmed_mean: float
    programmed_std: float


def page_levels(
    params: ChipParams,
    *,
    pec: int,
    mean_offset: float,
    std_mult: float,
    tail_mult: float,
    tail_scale_mult: float = 1.0,
) -> PageLevels:
    """Effective voltage levels for a page.

    Memoized: the derivation is pure in its arguments, and experiments
    hammer the same handful of ``(params, pec, offsets)`` combinations —
    every trial on a same-wear block re-derives identical levels.  The
    returned :class:`PageLevels` is frozen, so sharing is safe.

    Args:
        params: the chip model.
        pec: program/erase cycles endured by the containing block.
        mean_offset: summed chip+block+page manufacturing mean offset.
        std_mult: per-block distribution-width multiplier.
        tail_mult: per-block x per-page charged-tail-mass multiplier.
        tail_scale_mult: per-block x per-page charged-tail-depth multiplier.
    """
    return _page_levels_cached(
        params, pec, mean_offset, std_mult, tail_mult, tail_scale_mult
    )


@lru_cache(maxsize=8192)
def _page_levels_cached(
    params: ChipParams,
    pec: int,
    mean_offset: float,
    std_mult: float,
    tail_mult: float,
    tail_scale_mult: float,
) -> PageLevels:
    voltage = params.voltage
    wear = params.wear
    kpec = pec / 1000.0
    widen = std_mult * (1.0 + wear.std_growth_per_kpec * kpec)
    erased_shift = wear.erased_shift_per_kpec * kpec
    programmed_shift = wear.programmed_shift_per_kpec * kpec
    tail_frac = (
        voltage.erased_tail_frac
        * tail_mult
        * (1.0 + wear.tail_growth_per_kpec * kpec)
    )
    return PageLevels(
        erased_core_mean=voltage.erased_core_mean + mean_offset + erased_shift,
        erased_core_std=voltage.erased_core_std * widen,
        erased_tail_frac=min(tail_frac, 0.5),
        erased_tail_start=voltage.erased_tail_start + mean_offset + erased_shift,
        erased_tail_scale=voltage.erased_tail_scale * tail_scale_mult,
        erased_tail_span=voltage.erased_tail_span,
        programmed_mean=voltage.programmed_mean + mean_offset + programmed_shift,
        programmed_std=voltage.programmed_std * widen,
    )


def kernel_rngs(
    seed: int,
    prefix: Sequence[SeedPart],
    pages: Sequence[int],
    suffix: Sequence[SeedPart] = (),
) -> list:
    """Independent per-page generators for a block-level kernel.

    Seeds come from one batched SHA-256 pass (:func:`derive_seeds`,
    same label scheme as :func:`repro.rng.substream`); the streams use
    SFC64, whose float32 normal fill is the fastest this workload has
    measured.  The generator family is part of the documented stream
    layout (DESIGN §11): changing it changes drawn voltages.
    """
    return [
        np.random.Generator(np.random.SFC64(int(s)))
        for s in derive_seeds(seed, prefix, pages, suffix)
    ]


def sample_erased_batch(
    rngs: Sequence[np.random.Generator],
    levels: Sequence[PageLevels],
    rows: Sequence[np.ndarray],
) -> None:
    """Fill float32 voltage rows with the erased-state mixture, in place.

    Row ``i`` is drawn entirely from ``rngs[i]`` with a fixed recipe
    (the batched-RNG stream layout, DESIGN §11):

    1. ``standard_normal(cells, float32)`` — the near-zero bulk, drawn
       straight into the row and scaled in place;
    2. ``random(cells, float32)`` — one uniform per cell driving the
       charged-tail mixture: ``u < tail_frac`` selects tail membership,
       and ``u / tail_frac`` (uniform conditional on selection) drives
       the truncated-exponential magnitude through its inverse CDF.

    The mixture matches :func:`sample_erased` exactly in distribution;
    reusing the selection uniform for the magnitude saves a second
    full-page draw without correlating surviving bulk cells.
    """
    for rng, lv, row in zip(rngs, levels, rows):
        rng.standard_normal(dtype=np.float32, out=row)
        row *= np.float32(lv.erased_core_std)
        row += np.float32(lv.erased_core_mean)
        frac = lv.erased_tail_frac
        u = rng.random(row.size, dtype=np.float32)
        if frac <= 0.0:
            continue
        tail = np.flatnonzero(u < np.float32(frac))
        if not tail.size:
            continue
        scale = lv.erased_tail_scale
        norm = np.float32(1.0 - np.exp(-lv.erased_tail_span / scale))
        conditional = u[tail] * np.float32(1.0 / frac)
        row[tail] = np.float32(lv.erased_tail_start) + np.float32(
            -scale
        ) * np.log1p(-conditional * norm)


def sample_programmed_batch(
    rngs: Sequence[np.random.Generator],
    levels: Sequence[PageLevels],
    cell_indices: Sequence[np.ndarray],
    rows: Sequence[np.ndarray],
) -> None:
    """Charge the selected cells of each row to the programmed level.

    Row ``i`` draws ``standard_normal(len(cell_indices[i]), float32)``
    from ``rngs[i]`` — nothing else — and scatters the affine-transformed
    result into ``rows[i][cell_indices[i]]``.  Unselected cells are left
    untouched: they keep the erased-state voltages established by the
    erase that opened the epoch, which is how physical NAND programming
    works (only '0' cells receive charge).
    """
    for rng, lv, idx, row in zip(rngs, levels, cell_indices, rows):
        z = rng.standard_normal(idx.size, dtype=np.float32)
        z *= np.float32(lv.programmed_std)
        z += np.float32(lv.programmed_mean)
        row[idx] = z


def sample_truncated_exponential(
    rng: np.random.Generator, size: int, scale: float, span: float
) -> np.ndarray:
    """Exponential(scale) draws truncated to [0, span], via inverse CDF."""
    if scale <= 0 or span <= 0:
        raise ValueError("scale and span must be positive")
    u = rng.random(size)
    # CDF of the truncated exponential: (1 - exp(-x/scale)) / norm.
    norm = 1.0 - np.exp(-span / scale)
    return -scale * np.log1p(-u * norm)


def sample_erased(
    rng: np.random.Generator, size: int, levels: PageLevels
) -> np.ndarray:
    """Voltages for `size` erased ('1') cells after a full block program.

    Mixture of the near-zero bulk and the interference-charged truncated-
    exponential tail (the positive hump of Fig. 2a).  Values may be
    negative; the probe command clips them at zero (§4 footnote 1).
    """
    voltages = rng.normal(levels.erased_core_mean, levels.erased_core_std, size)
    tail_mask = rng.random(size) < levels.erased_tail_frac
    n_tail = int(tail_mask.sum())
    if n_tail:
        voltages[tail_mask] = levels.erased_tail_start + (
            sample_truncated_exponential(
                rng, n_tail, levels.erased_tail_scale, levels.erased_tail_span
            )
        )
    return voltages.astype(np.float32)


def erased_tail_exceedance(levels: PageLevels, threshold: float) -> float:
    """Expected fraction of erased cells with voltage above `threshold`.

    Analytic counterpart of :func:`sample_erased`; used by the capacity
    planner (§6.3) to predict how many naturally charged cells exist per
    page without Monte Carlo.
    """
    core_z = (threshold - levels.erased_core_mean) / levels.erased_core_std
    core_part = (1.0 - levels.erased_tail_frac) * _normal_sf(core_z)
    over = threshold - levels.erased_tail_start
    if over <= 0:
        tail_part = levels.erased_tail_frac
    elif over >= levels.erased_tail_span:
        tail_part = 0.0
    else:
        scale = levels.erased_tail_scale
        norm = 1.0 - np.exp(-levels.erased_tail_span / scale)
        tail_part = levels.erased_tail_frac * (
            (np.exp(-over / scale) - np.exp(-levels.erased_tail_span / scale))
            / norm
        )
    return float(core_part + tail_part)


def programmed_underflow(levels: PageLevels, threshold: float) -> float:
    """Expected fraction of programmed cells below `threshold` (raw '0'->'1'
    errors from distribution overlap)."""
    z = (threshold - levels.programmed_mean) / levels.programmed_std
    return float(1.0 - _normal_sf(z))


def _normal_sf(z: float) -> float:
    """Standard-normal survival function via erfc (no scipy dependency)."""
    from math import erfc, sqrt

    return 0.5 * erfc(z / sqrt(2.0))
