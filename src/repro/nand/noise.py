"""Voltage-distribution sampling for the NAND simulator.

This module turns the static :class:`~repro.nand.params.ChipParams` plus the
dynamic state of a page (its manufacturing offsets and wear) into concrete
per-cell voltages: counter-based fields, one 64-bit counter word per cell
split into narrow uniforms (DESIGN §11).  It is the statistical heart of
the substitution for the paper's real chips: everything VT-HI and the §7
attacker observe flows through these fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    Pure in its arguments; a block keeps each page's levels per wear
    (:meth:`~repro.nand.block.BlockState.levels`), so nothing here is
    memoised.

    Args:
        params: the chip model.
        pec: program/erase cycles endured by the containing block.
        mean_offset: summed chip+block+page manufacturing mean offset.
        std_mult: per-block distribution-width multiplier.
        tail_mult: per-block x per-page charged-tail-mass multiplier.
        tail_scale_mult: per-block x per-page charged-tail-depth multiplier.
    """
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



#: Bit fields of an erased cell's counter word (DESIGN §11): the core
#: normal's radial and angular uniforms and the tail uniform.
ERASED_RADIAL_BITS = 24
ERASED_TAIL_BITS = 24
ERASED_ANGULAR_BITS = 16
#: A :func:`word_normals` word's radial and angular bit fields.
WORD_RADIAL_BITS = 32
WORD_ANGULAR_BITS = 32


def _normals(
    radial: np.ndarray,
    radial_bits: int,
    angular: np.ndarray,
    angular_bits: int,
    std: float = 1.0,
) -> np.ndarray:
    """Float32 normals of standard deviation `std` from integer uniforms
    (Box–Muller, cosine branch, as :func:`repro.rng.box_muller`).

    ``radial`` and ``angular`` hold ``k`` in ``[0, 2**bits)`` for the
    uniforms ``k / 2**bits`` (``radial`` is overwritten: callers pass a
    fresh shift of their words).  The radius is taken from ``1 - u =
    (2**bits - k) / 2**bits``, in (0, 1], so it is finite and reaches
    ``sqrt(2 * bits * ln 2)`` (5.77 at 24 bits, 6.66 at 32).
    """
    radius = np.subtract(1 << radial_bits, radial, out=radial)
    radius = radius.astype(np.float32)
    radius *= np.float32(2.0**-radial_bits)
    np.log(radius, out=radius)
    radius *= np.float32(-2.0 * std * std)
    np.sqrt(radius, out=radius)
    angle = angular.astype(np.float32)
    angle *= np.float32(2.0 * np.pi * 2.0**-angular_bits)
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def erased_voltages(levels: PageLevels, words: np.ndarray) -> np.ndarray:
    """Erased-state voltages (float32), one per counter word.

    The erased mixture: a core normal, plus one uniform ``u`` that both
    picks the charged tail (``u < tail_frac``) and sizes it — ``u /
    tail_frac`` is uniform given the pick and drives the truncated
    exponential through its inverse CDF.  A word's bits 63–40 and 15–0
    are the normal's radial and angular uniforms, bits 39–16 are ``u``.
    """
    voltages = _normals(
        words >> (64 - ERASED_RADIAL_BITS), ERASED_RADIAL_BITS,
        words.astype(np.uint16), ERASED_ANGULAR_BITS,
        levels.erased_core_std,
    )
    voltages += np.float32(levels.erased_core_mean)
    frac = levels.erased_tail_frac
    if frac <= 0.0:
        return voltages
    # u < frac exactly: compare the integer k of u = k / 2**24, at the
    # top of the word once the radial bits are shifted out (the angular
    # bits below it cannot carry k past a bound on it).
    shifted = words << ERASED_RADIAL_BITS
    bound = math.ceil(frac * 2.0**ERASED_TAIL_BITS) << (64 - ERASED_TAIL_BITS)
    tail = np.flatnonzero(shifted < np.uint64(bound))
    if tail.size:
        scale = levels.erased_tail_scale
        norm = 1.0 - math.exp(-levels.erased_tail_span / scale)
        # -(u / frac) * norm, then the inverse CDF.
        x = (shifted[tail] >> (64 - ERASED_TAIL_BITS)).astype(np.float32)
        x *= np.float32(-norm * 2.0**-ERASED_TAIL_BITS / frac)
        np.log1p(x, out=x)
        x *= np.float32(-scale)
        x += np.float32(levels.erased_tail_start)
        voltages[tail] = x
    return voltages


def word_normals(words: np.ndarray, std: float = 1.0) -> np.ndarray:
    """Float32 normals of standard deviation `std`, one per counter
    word: the radial uniform is a word's top 32 bits and the angular
    uniform its low 32 (the programmed field's layout, and a PP
    pulse's)."""
    return _normals(
        words >> WORD_ANGULAR_BITS, WORD_RADIAL_BITS,
        words.astype(np.uint32), WORD_ANGULAR_BITS, std,
    )


def programmed_voltages(levels: PageLevels, words: np.ndarray) -> np.ndarray:
    """Programmed-state voltages (float32), one per counter word: a
    :func:`word_normals` normal at the page's programmed level."""
    voltages = word_normals(words, levels.programmed_std)
    voltages += np.float32(levels.programmed_mean)
    return voltages


def erased_tail_exceedance(levels: PageLevels, threshold: float) -> float:
    """Expected fraction of erased cells with voltage above `threshold`.

    Analytic counterpart of :func:`erased_voltages`; used by the capacity
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
