"""Physical and electrical parameters of a simulated NAND chip.

These parameters encode everything the paper measured on real hardware:

* voltage-level distributions of erased ("non-programmed") and programmed
  cells, in the normalised 0-255 units the vendor probe command reports.
  Per §4 (Fig. 2 and footnote 1), erased cells are *negatively* charged and
  only their positive part is measurable; what Fig. 2a shows is the
  interference-charged positive tail.  99.99% of cells fall in [0, 70]
  (erased) and [120, 210] (programmed), and §6.3 found that at least ~700
  cells per page are naturally charged above the hiding threshold (34);
* hierarchical manufacturing variation — chip-to-chip, block-to-block and
  page-to-page offsets (§4: "noticeable variations in the distributions of
  different samples", page-level noisier than block-level);
* wear drift — distributions shift right as PEC accumulates (§4, Fig. 3);
* partial-programming behaviour — an imprecise positive charge pulse whose
  magnitude correlates with how late the program was aborted (§1, §6.2);
* retention leakage — charge loss over time, dramatically worse for worn
  cells (§8 Reliability, Fig. 11);
* program-disturb exposure on neighbouring pages (§6.3: page interval 0
  costs +20% public BER, interval 1 costs +10%);
* timing and energy of each operation (§6.1: read 90 us / 50 uJ, program
  1200 us / 68 uJ, erase 5 ms / 190 uJ; PP appears in §8's arithmetic as
  600 us).

The default values calibrate the simulator to the paper's figures; the
calibration tests in ``tests/nand/test_calibration.py`` pin the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import UJ, US, MS, DAY


@dataclass(frozen=True)
class VoltageModel:
    """Voltage distribution parameters (normalised 0-255 units).

    The erased ("non-programmed") population is a mixture: a bulk of cells
    near (or below) zero volts, plus an interference-charged fraction whose
    voltage follows a truncated-exponential tail reaching up to ~70 — the
    long-tailed, non-smooth positive hump of Fig. 2a.  The tail truncation
    enforces the paper's "99.99% of erased cells in [0, 70]" observation.
    """

    #: Mean of the erased-cell bulk (may be negative; the probe clips at 0).
    erased_core_mean: float = 5.0
    #: Std of the erased-cell bulk.
    erased_core_std: float = 4.0
    #: Fraction of erased cells in the interference-charged tail.
    erased_tail_frac: float = 0.065
    #: Voltage where the charged tail starts.
    erased_tail_start: float = 10.0
    #: Exponential scale of the charged tail.
    erased_tail_scale: float = 20.0
    #: Truncation span of the tail (tail reaches start + span = ~68 < 70).
    erased_tail_span: float = 58.0
    #: Mean of the programmed-cell distribution.
    programmed_mean: float = 170.0
    #: Standard deviation of the programmed-cell distribution.
    programmed_std: float = 9.0
    #: SLC read reference threshold: voltages below read as '1' (§5.3:
    #: "any voltage level less than about 127 is considered a public 1").
    slc_threshold: float = 127.0
    #: Probe quantisation ceiling (§4 footnote: discrete units 0-255).
    probe_max: int = 255


@dataclass(frozen=True)
class MlcVoltageModel:
    """Four-level MLC mode parameters (§3, Fig. 1b).

    "When the flash memory is in MLC/TLC mode, the same cell stores several
    logical bits by comparing to multiple, smaller voltage intervals" —
    and "MLC distributions are typically narrower" than SLC ones.  Gray
    coding maps (lower, upper) bits to levels: 11 -> L0 (erased),
    10 -> L1, 00 -> L2, 01 -> L3.
    """

    #: Level means for L1..L3 (L0 reuses the erased model's bulk+tail).
    level_means: tuple = (95.0, 140.0, 185.0)
    #: Narrow per-level stds for the programmed levels L1..L3.
    level_stds: tuple = (5.0, 5.0, 5.5)
    #: Read reference thresholds between L0|L1, L1|L2, L2|L3.
    read_thresholds: tuple = (55.0, 117.5, 162.5)


@dataclass(frozen=True)
class VariationModel:
    """Hierarchical manufacturing variation (chip / block / page)."""

    #: Std of the per-chip offset added to both distribution means.
    chip_mean_std: float = 1.6
    #: Std of the per-block offset.
    block_mean_std: float = 1.1
    #: Std of the per-page offset (page-level curves in Fig. 2c/d are
    #: noisier than block-level ones).
    page_mean_std: float = 0.9
    #: Lognormal sigma of the per-block distribution-width multiplier.
    block_std_jitter: float = 0.06
    #: Lognormal sigma of the per-block charged-tail-mass multiplier
    #: (how many erased cells interference charges varies block to block).
    block_tail_jitter: float = 0.18
    #: Lognormal sigma of the per-page charged-tail-mass multiplier.
    page_tail_jitter: float = 0.10
    #: Lognormal sigma of the per-block charged-tail *scale* (depth)
    #: multiplier: how far interference pushes charged cells varies even
    #: more than how many it touches.  Scale variation moves the deep end
    #: of the tail (the VT-HI hiding band above level 34) by tens of
    #: percent while barely moving the shallow end — this is the natural
    #: noise that hides VT-HI's extra tail mass (§4/§7).
    block_tail_scale_jitter: float = 0.30
    #: Lognormal sigma of the per-page charged-tail scale multiplier.
    page_tail_scale_jitter: float = 0.15
    #: Lognormal sigma of the per-block raw-BER multiplier (§4: "significant
    #: variations in the BER of different hardware units ... regardless of
    #: PEC").
    block_ber_jitter: float = 0.30


@dataclass(frozen=True)
class WearModel:
    """Program/erase-cycle (PEC) wear effects (§4, Fig. 3)."""

    #: Rightward shift of the erased distribution per 1000 PEC.
    erased_shift_per_kpec: float = 3.0
    #: Rightward shift of the programmed distribution per 1000 PEC.
    programmed_shift_per_kpec: float = 2.0
    #: Relative widening of both distributions per 1000 PEC.
    std_growth_per_kpec: float = 0.03
    #: Relative growth of the charged-tail mass per 1000 PEC (worn cells
    #: overprogram more easily).
    tail_growth_per_kpec: float = 0.05
    #: Specified endurance (§6.1: "specified lifetime of 3000 PEC").
    endurance_pec: int = 3000
    #: Baseline public raw bit error probability of a fresh block — an
    #: overlay modelling the disturb/interference error mechanics the SLC
    #: voltage overlap alone does not capture.  Calibrated together with
    #: the programmed-tail overlap to a total public BER of ~3e-5.
    base_disturb_ber: float = 2.0e-5
    #: Quadratic PEC growth scale for the disturb overlay: overlay
    #: probability is ``base * (1 + (pec / ber_growth_kpec)**2)``.
    ber_growth_kpec: float = 1500.0


@dataclass(frozen=True)
class PartialProgramModel:
    """Behaviour of one partial-programming (PP) pulse (§6.2).

    PP aborts a normal program midway; the injected charge is positive,
    imprecise, and roughly proportional to how late the abort happened
    (exposed as the ``fraction`` argument of
    :meth:`~repro.nand.chip.FlashChip.partial_program`).  Cells also differ
    in how strongly they respond (process variation), including a small
    population of hard-to-program cells, which keeps the hidden BER from
    reaching exactly zero at high step counts (Fig. 6 flattens below 1%
    rather than at zero).
    """

    #: Mean voltage increment of one full-length pulse on a typical cell.
    pulse_mean: float = 22.0
    #: Std of the pulse increment (the "imprecision" of PP).
    pulse_std: float = 8.0
    #: Lognormal sigma of the per-cell response factor.
    response_sigma: float = 0.35
    #: Upper clip on the per-cell response factor: charge injection per
    #: pulse saturates, which keeps hidden '0' cells inside the natural
    #: erased envelope (no telltale mass above ~70).
    response_cap: float = 1.5
    #: Fraction of cells that barely respond to PP.
    hard_cell_frac: float = 0.002
    #: Response factor of hard cells.
    hard_cell_response: float = 0.05
    #: Trapped charge added per deliberate stress cycle (PT-HI encoding).
    trap_per_cycle: float = 1.0
    #: Programming-speed gain per unit of trapped charge on a fresh block.
    trap_gain: float = 2.0e-3
    #: Post-encode PEC scale over which subsequent cycling masks the
    #: stress-trap signal (the reason PT-HI degrades "after only a few
    #: hundred PEC" of public data churn, §2).
    trap_decay_pec: float = 200.0
    #: Lognormal sigma of the per-epoch wear jitter on programming speed,
    #: per 1000 PEC.
    wear_response_sigma_per_kpec: float = 0.25


@dataclass(frozen=True)
class RetentionModel:
    """Charge leakage over time (§8 Reliability, Fig. 11).

    Most cells leak a negligible amount; a PEC-dependent fraction have
    damaged tunnel oxide and leak significantly ("cells with higher PEC
    accumulate trapped charge and become more sensitive to leakage").
    Leak magnitude grows logarithmically with time since programming.
    """

    #: Leaky-cell fraction at PEC 0.
    leaky_frac_base: float = 0.01
    #: Additional leaky fraction at the 2000-PEC reference point.
    leaky_frac_at_2kpec: float = 0.19
    #: Exponent of the PEC dependence of the leaky fraction.
    leaky_frac_exponent: float = 1.5
    #: Exponential scale (voltage units) of a leaky cell's loss at the
    #: reference (4-month) time.
    leak_scale_4mo: float = 5.2
    #: Baseline drift (voltage units) of *all* cells at the reference time.
    baseline_drift_4mo: float = 0.6
    #: Log-time knee (seconds): leak grows as log1p(t / knee).
    time_knee_s: float = 1.0 * DAY
    #: Reference time (seconds) at which the scales above apply.
    reference_time_s: float = 120.0 * DAY


@dataclass(frozen=True)
class DisturbModel:
    """Program-disturb exposure accounting (§6.3).

    Every program or PP pulse applied to a page exposes its physical
    neighbours; exposure converts into extra public bit errors through a
    per-pulse flip probability.  This reproduces the paper's +20% public
    BER at page interval 0 and +10% at interval 1.
    """

    #: Physical page distance over which disturb acts.
    neighbour_distance: int = 1
    #: Flip probability per neighbouring-page cell per PP pulse.
    pp_flip_prob: float = 6.0e-7
    #: Flip probability per neighbouring-page cell per full program (full
    #: programs are mostly covered by base_disturb_ber, so this is small).
    program_flip_prob: float = 1.0e-8
    #: Flip probability per cell per read (§6.3's "small read disturbs").
    read_flip_prob: float = 1.0e-10


@dataclass(frozen=True)
class OpCosts:
    """Latency and energy of chip operations (§6.1 and §8)."""

    t_read: float = 90 * US
    t_program: float = 1200 * US
    t_erase: float = 5 * MS
    #: §8 uses 600 us per PP step in the throughput arithmetic.
    t_partial_program: float = 600 * US
    e_read: float = 50 * UJ
    e_program: float = 68 * UJ
    e_erase: float = 190 * UJ
    #: Derived so §8's "1.1 mJ per page" for 10 (PP + read) steps holds:
    #: 10 * (60 + 50) uJ = 1.1 mJ.
    e_partial_program: float = 60 * UJ


@dataclass(frozen=True)
class ChipParams:
    """Complete parameter set of one simulated chip model."""

    voltage: VoltageModel = field(default_factory=VoltageModel)
    mlc: MlcVoltageModel = field(default_factory=MlcVoltageModel)
    variation: VariationModel = field(default_factory=VariationModel)
    wear: WearModel = field(default_factory=WearModel)
    partial_program: PartialProgramModel = field(
        default_factory=PartialProgramModel
    )
    retention: RetentionModel = field(default_factory=RetentionModel)
    disturb: DisturbModel = field(default_factory=DisturbModel)
    costs: OpCosts = field(default_factory=OpCosts)
