"""Calibration gate for random-stream migrations → BENCH_calibration.json.

A change that replaces a random stream (how the simulator draws some
latent per-cell quantity) cannot keep its outputs bit-identical; it must
keep them *statistically* the same.  This script measures the statistics
the migrated quantity feeds, one row per statistic, over a fixed set of
chip samples (seeds), and compares the stream before the migration with
the stream after it:

- fig6: hidden BER after PP steps 1, 3, 5, 10 and 15 (paper: under 1%
  after about ten steps), pooled over the sweep's configurations, and
  the PP pulses each embedded page took;
- fig7: hidden BER after ten steps, per page interval;
- fig8: the erased-cell mean shift at the highest density (256 bits);
- fig9: the KS distance between a chip's hidden and normal blocks
  (the mean over the experiment's two chips), and the same distance
  over the hidden cells only, on blocks worn to PEC 2000: the cells
  VT-HI embedded into on the hidden block against the cells the same
  key selects on the normal block;
- fig11: hidden BER one month after embedding, at PEC 0 and PEC 2000;
- §6.2: public bits the coarse MLC attempt flips, and the mean and
  standard deviation of each programmed MLC level (L1-L3) over the
  probed cells of randomly programmed MLC pages;
- PT-HI: the raw decode BER after 400 PEC of churn (its stress-trap gain
  rides on the PP response);
- fig2: the mean and standard deviation of a randomly programmed
  block's probed erased ('1') and programmed ('0') cells, and the
  natural-charge count: erased cells per page probed above the hiding
  threshold (§6.3 counts them to size the hidden budget);
- fig3: the erased and programmed mean drift per 1,000 PEC (the
  least-squares slope over the experiment's four wear levels);
- §6.3: the public BER of programmed blocks before any hiding.

Each row holds every sample's value for both streams.  A row passes
when the paired bootstrap interval of the mean of (after − before)
contains 0 at a family-wise 95% level (Bonferroni over the rows).

The record is the erased and programmed voltages' migration
(``MIGRATION``) from SFC64 row draws to counter-based per-cell fields,
with the PP pulse noise's from a PCG64 generator per pulse to counter
words, and "before" measured on the commit that still drew rows.  The first
rows were set for the PP response's migration to counter-based per-cell
draws (``repro.rng.counter_words``), sized so that each of
``response_sigma`` 0.35 → 0.45, ``hard_cell_frac`` × 2 and
``wear_response_sigma_per_kpec`` × 2 fails at least one row; the fig2,
fig3 and §6.3 rows came with the voltage fields, sized so that each of
``erased_core_std`` × 1.1, ``erased_tail_frac`` × 1.25 and
``programmed_std`` × 1.1 fails at least one of them.  The MLC level
rows came after the migration, sized so that ``mlc.level_stds`` × 1.1
fails at least one of them; their "before" was measured on the same
commit as the others'.

Usage::

    # this tree's per-sample values only (run it against the tree
    # before a migration with PYTHONPATH pointing at that tree's src):
    PYTHONPATH=src python benchmarks/bench_calibration.py --measure before.json
    # full gate: measure this tree, compare with the record's "before"
    # values (or those of --before FILE) and rewrite the record:
    PYTHONPATH=src python benchmarks/bench_calibration.py [--before FILE] [OUT]
    # CI smoke: re-measure the first samples, check them against the
    # record's "after" values, and check that every row passes:
    PYTHONPATH=src python benchmarks/bench_calibration.py --tiny

Full mode measures one side in about a minute on two CPUs; ``--tiny``
in seconds.
Exit status 1 if a row fails or the record does not match this tree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.distributions import ks_distance
from repro.experiments import (
    fig3,
    fig6,
    fig8,
    fig9,
    fig11,
    mlc_extension,
    public_interference,
)
from repro.experiments.common import (
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)
from repro.hiding import PtHi, PtHiConfig, VtHi, select_cells
from repro.hiding.config import STANDARD_CONFIG
from repro.nand import NandTester
from repro.nand.mlc import MlcView, bits_to_levels
from repro.parallel import ParallelRunner
from repro.units import MONTH

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_calibration.json"
)

#: The fixed budget: chip samples (seeds) per row.
SAMPLES = 128
#: Samples re-measured by ``--tiny``.
TINY_SAMPLES = 2
FAMILY_ALPHA = 0.05
RESAMPLES = 20_000
#: Seed of the bootstrap resampling, so the record is reproducible.
BOOTSTRAP_SEED = 2024

FIG6_STEPS = (1, 3, 5, 10, 15)

#: The stream migration the record gates.
MIGRATION = (
    "erased and programmed voltages: one SFC64 stream per row, drawn at "
    "program or first touch -> counter-based per-cell fields of the "
    "('erase', block, epoch, page) and ('program', block, page, epoch) "
    "label seeds, evaluated when a command first names a cell "
    "(repro.nand.noise); the MLC level draws move to one counter word "
    "per cell of the ('program-mlc', block, page, epoch) seed, and the "
    "PP pulse noise (a PCG64 generator per pulse) to one counter word "
    "per cell and pulse, with them"
)

#: Row name -> the paper's number, where it states one.
ROWS: Dict[str, Optional[str]] = {
    **{
        f"fig6.hidden_ber_step_{step}": (
            "< 1% after about 10 PP steps" if step >= 10 else None
        )
        for step in FIG6_STEPS
    },
    "fig6.pulses_per_page": "about 10 PP steps",
    **{
        f"fig7.hidden_ber_interval_{interval}": (
            "small, insensitive to interval"
        )
        for interval in fig6.DEFAULT_PAGE_INTERVALS
    },
    "fig8.mean_shift_256_bits": "a tiny shift to the right",
    "fig9.hidden_vs_normal_ks": "within chip-to-chip variation",
    "fig9.hidden_cells_ks_pec_2000": None,
    "fig11.hidden_ber_1_month_pec_0": None,
    "fig11.hidden_ber_1_month_pec_2000": None,
    "sec62.coarse_public_flips": "coarse PP disrupts public bits",
    **{
        f"sec62.mlc_level_{level}_{stat}": None
        for level in (1, 2, 3)
        for stat in ("mean", "std")
    },
    "pthi.raw_ber_after_churn": None,
    "fig2.erased_mean": "erased cells in [0, 70]",
    "fig2.erased_std": None,
    "fig2.programmed_mean": "programmed cells in [120, 210]",
    "fig2.programmed_std": None,
    "fig2.natural_charge_per_page": (
        "at least ~700 per page above the hiding threshold (34), on "
        "paper-size pages"
    ),
    "fig3.erased_drift_per_kpec": "distributions shift right with wear",
    "fig3.programmed_drift_per_kpec": "distributions shift right with wear",
    "sec63.public_ber": "about 3e-5",
}


def _fig6_sample(seed: int) -> Dict[str, float]:
    """The Fig. 6 sweep on one chip sample, one block per configuration:
    pooled BER per step, pulses per embedded page, BER at step 10 per
    interval (Fig. 7 is the same sweep read at ten steps)."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=6000 + seed)[0]
    key = experiment_key(f"fig6-{seed}")
    max_steps = max(FIG6_STEPS)
    errors = np.zeros(max_steps)
    n_bits = 0
    interval_errors = {i: 0.0 for i in fig6.DEFAULT_PAGE_INTERVALS}
    interval_bits = {i: 0 for i in fig6.DEFAULT_PAGE_INTERVALS}
    pulses_before = chip.counters.partial_programs
    n_pages = 0
    block = 0
    for interval in fig6.DEFAULT_PAGE_INTERVALS:
        for bits_count in fig6.DEFAULT_BIT_COUNTS:
            chip.erase_block(block)
            pages = list(range(0, chip.geometry.pages_per_block, interval + 1))
            scaled = max(bits_count // 4, 8)
            bits_list = [
                random_bits(scaled, "fig6-hidden", block * 100 + page)
                for page in pages
            ]
            curves = fig6.measure_ber_curves(
                chip, block, pages, bits_list, key,
                STANDARD_CONFIG.threshold, STANDARD_CONFIG.guard, max_steps,
            )
            page_errors = (curves * scaled).sum(axis=0)
            errors += page_errors
            n_bits += scaled * len(pages)
            interval_errors[interval] += page_errors[9]
            interval_bits[interval] += scaled * len(pages)
            n_pages += len(pages)
            chip.release_block(block)
            block += 1
    values = {
        f"fig6.hidden_ber_step_{step}": float(errors[step - 1] / n_bits)
        for step in FIG6_STEPS
    }
    values["fig6.pulses_per_page"] = (
        chip.counters.partial_programs - pulses_before
    ) / n_pages
    for interval, count in interval_errors.items():
        values[f"fig7.hidden_ber_interval_{interval}"] = float(
            count / interval_bits[interval]
        )
    return values


def _fig9_hidden_cells_sample(seed: int) -> float:
    """Fig. 9 over the hidden cells only, on the experiment's two chips
    with both blocks worn to PEC 2000: the KS distance between the
    voltages of the cells VT-HI embedded into on the hidden block and
    of the cells the same key selects on the normal block (the mean
    over the chips).

    The fig9 row pools every erased cell, so the few charged cells
    vanish in it.  Restricted to the hidden cells, the distance is set
    by the share of charged cells that end above the target.  On fresh
    blocks the probe-compare-pulse loop brings all of them there
    whatever the PP response: none of the three mutations the budget
    is sized for moved it.  On worn blocks the response's wear spread
    leaves slow cells short of the target within the step budget.
    """
    model = default_model(pages_per_block=8)
    key = experiment_key(f"fig9-{seed}")
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=64)
    distances = []
    for index in range(2):
        chip = make_samples(model, 1, base_seed=9000 + seed + index)[0]
        vthi = VtHi(chip, config)
        voltages: Dict[bool, list] = {False: [], True: []}
        for block, hide in ((0, False), (1, True)):
            chip.age_block(block, 2000)
            for page in range(chip.geometry.pages_per_block):
                public = random_page_bits(
                    chip, f"fig9-pub-{index}", block * 100 + page
                )
                chip.program_page(block, page, public)
                if page % config.page_stride:
                    continue
                cells = select_cells(
                    key, chip.geometry.page_address(block, page), public,
                    config.bits_per_page,
                )
                if hide:
                    hidden = random_bits(
                        config.bits_per_page, f"fig9-hid-{index}",
                        block * 100 + page,
                    )
                    vthi.embed_bits(block, page, hidden, key,
                                    public_bits=public)
                voltages[hide].append(chip.probe_voltages(block, page)[cells])
        distances.append(ks_distance(
            np.concatenate(voltages[False]), np.concatenate(voltages[True])
        ))
    return float(np.mean(distances))


def _pthi_sample(seed: int) -> float:
    """PT-HI's raw BER: stress-encode two pages, churn the block 400 PEC
    (the trap gain fades and the wear jitter grows), decode."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=31_000 + seed)[0]
    key = experiment_key(f"pthi-calibration-{seed}")
    pthi = PtHi(chip, PtHiConfig(bits_per_page=64, group_size=16))
    bits = {
        page: random_bits(64, "pthi-calibration", seed * 100 + page)
        for page in pthi.hidden_pages(0)
    }
    pthi.encode_block(0, bits, key)
    chip.age_block(0, chip.block_pec(0) + 400)
    wrong = sum(
        int(np.count_nonzero(pthi.decode_page(0, page, 64, key) != hidden))
        for page, hidden in bits.items()
    )
    return wrong / (64 * len(bits))


def _fig2_sample(seed: int) -> Dict[str, float]:
    """Fig. 2's block statistics on one chip sample: a block programmed
    with random data and probed, split into erased and programmed
    cells, and the erased cells above the hiding threshold per page."""
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=2000 + seed)[0]
    tester = NandTester([chip])
    data = tester.program_random_block(0, 0, seed=seed)
    voltages = tester.probe_block(0, 0).astype(np.float64)
    erased, programmed = voltages[data == 1], voltages[data == 0]
    return {
        "fig2.erased_mean": float(erased.mean()),
        "fig2.erased_std": float(erased.std()),
        "fig2.programmed_mean": float(programmed.mean()),
        "fig2.programmed_std": float(programmed.std()),
        "fig2.natural_charge_per_page": float(
            np.count_nonzero(erased > STANDARD_CONFIG.threshold)
            / chip.geometry.pages_per_block
        ),
    }


def _mlc_sample(seed: int) -> Dict[str, float]:
    """§6.2's MLC levels on `mlc_extension`'s chip sample: every page of
    a block programmed in MLC mode with random lower and upper pages and
    probed; the mean and standard deviation of each programmed level's
    cells (level 0 is the erased field the fig2 rows read)."""
    model = default_model(pages_per_block=4)
    chip = make_samples(model, 1, base_seed=35_000 + seed)[0]
    mlc = MlcView(chip)
    n_cells = chip.geometry.cells_per_page
    levels, voltages = [], []
    for page in range(chip.geometry.pages_per_block):
        index = seed * 100 + page
        lower = random_bits(n_cells, "mlc-calibration-lower", index)
        upper = random_bits(n_cells, "mlc-calibration-upper", index)
        mlc.program_page(0, page, lower, upper)
        levels.append(bits_to_levels(lower, upper))
        voltages.append(chip.probe_voltages(0, page).astype(np.float64))
    level, voltage = np.concatenate(levels), np.concatenate(voltages)
    values: Dict[str, float] = {}
    for index in (1, 2, 3):
        cells = voltage[level == index]
        values[f"sec62.mlc_level_{index}_mean"] = float(cells.mean())
        values[f"sec62.mlc_level_{index}_std"] = float(cells.std())
    return values


def _fig3_sample(seed: int) -> Dict[str, float]:
    """Fig. 3's drift on one chip sample: the least-squares slope of the
    erased and programmed means over the wear levels, per 1,000 PEC."""
    rows = fig3.run(seed=seed).summary.rows
    kpec = np.array([row[0] for row in rows], dtype=np.float64) / 1000.0
    return {
        "fig3.erased_drift_per_kpec": float(
            np.polyfit(kpec, [row[1] for row in rows], 1)[0]
        ),
        "fig3.programmed_drift_per_kpec": float(
            np.polyfit(kpec, [row[3] for row in rows], 1)[0]
        ),
    }


def measure_sample(seed: int) -> Dict[str, float]:
    """Every row's value on chip sample `seed`."""
    values = _fig6_sample(seed)
    serial = dict(workers=1, backend="serial")
    shifts = fig8.run(
        densities=(0, 256), blocks_per_density=2, seed=seed, **serial
    )
    values["fig8.mean_shift_256_bits"] = float(shifts.summary.rows[-1][2])
    values["fig9.hidden_vs_normal_ks"] = float(
        np.mean(fig9.run(n_chips=2, seed=seed, **serial).hidden_vs_normal_ks)
    )
    values["fig9.hidden_cells_ks_pec_2000"] = _fig9_hidden_cells_sample(seed)
    retention = fig11.run(
        pec_levels=(0, 2000), periods=(("1 month", MONTH),), seed=seed,
        **serial,
    )
    for pec, _, hidden_ber, *_ in retention.summary.rows:
        values[f"fig11.hidden_ber_1_month_pec_{pec}"] = float(hidden_ber)
    values["sec62.coarse_public_flips"] = float(
        mlc_extension.run(bits=256, seed=seed).coarse_public_flips
    )
    values.update(_mlc_sample(seed))
    values["pthi.raw_ber_after_churn"] = _pthi_sample(seed)
    values.update(_fig2_sample(seed))
    values.update(_fig3_sample(seed))
    values["sec63.public_ber"] = float(
        public_interference.run(intervals=(1,), seed=seed).baseline_ber
    )
    assert list(values) == list(ROWS), sorted(set(values) ^ set(ROWS))
    return values


def measure(n_samples: int, workers: int = 2) -> Dict[str, List[float]]:
    """Per-row lists of the first `n_samples` samples' values."""
    per_sample = ParallelRunner(workers).map(
        measure_sample, [(seed,) for seed in range(n_samples)]
    )
    return {row: [sample[row] for sample in per_sample] for row in ROWS}


def compare(
    before: Dict[str, List[float]], after: Dict[str, List[float]]
) -> list:
    """One record row per statistic: both streams' samples, the mean
    difference and its paired bootstrap interval, and the verdict."""
    alpha = FAMILY_ALPHA / len(ROWS)
    rows = []
    for name, paper in ROWS.items():
        old = np.asarray(before[name], dtype=np.float64)
        new = np.asarray(after[name], dtype=np.float64)
        assert old.shape == new.shape, f"{name}: sample counts differ"
        diffs = new - old
        picks = np.random.default_rng(BOOTSTRAP_SEED).integers(
            0, diffs.size, (RESAMPLES, diffs.size)
        )
        low, high = np.quantile(
            diffs[picks].mean(axis=1), [alpha / 2, 1 - alpha / 2]
        )
        rows.append({
            "name": name,
            "paper": paper,
            "before_mean": float(old.mean()),
            "after_mean": float(new.mean()),
            "difference": float(diffs.mean()),
            "interval": [float(low), float(high)],
            "pass": bool(low <= 0.0 <= high),
            "before": old.tolist(),
            "after": new.tolist(),
        })
    return rows


def render(rows: list) -> str:
    lines = [
        f"{'row':36s} {'before':>10s} {'after':>10s} "
        f"{'interval of after - before':>28s}  verdict"
    ]
    for row in rows:
        low, high = row["interval"]
        lines.append(
            f"{row['name']:36s} {row['before_mean']:10.5f} "
            f"{row['after_mean']:10.5f} [{low:+12.5f}, {high:+12.5f}]  "
            f"{'pass' if row['pass'] else 'FAIL'}"
        )
    return "\n".join(lines)


def tiny() -> int:
    """Re-measure the first samples of every row against the record."""
    record = json.loads(DEFAULT_OUTPUT.read_text())
    recorded = {row["name"]: row for row in record["rows"]}
    assert list(recorded) == list(ROWS), "record rows differ from ROWS"
    fresh = measure(TINY_SAMPLES)
    for name, values in fresh.items():
        np.testing.assert_allclose(
            values, recorded[name]["after"][:TINY_SAMPLES], rtol=1e-9,
            err_msg=f"{name}: this tree no longer draws the recorded stream",
        )
    failing = [row["name"] for row in record["rows"] if not row["pass"]]
    assert not failing, f"recorded rows fail: {failing}"
    print(
        f"tiny calibration smoke OK ({TINY_SAMPLES} samples of "
        f"{len(ROWS)} rows match the record; every recorded row passes)"
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--tiny" in argv:
        return tiny()
    if "--measure" in argv:
        index = argv.index("--measure")
        path = Path(argv[index + 1])
        path.write_text(json.dumps(measure(SAMPLES)) + "\n")
        print(f"wrote {path}")
        return 0
    before_path = None
    if "--before" in argv:
        index = argv.index("--before")
        before_path = Path(argv[index + 1])
        del argv[index:index + 2]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT
    if before_path is not None:
        before = json.loads(before_path.read_text())
    else:
        record = json.loads(DEFAULT_OUTPUT.read_text())
        before = {row["name"]: row["before"] for row in record["rows"]}
    start = time.perf_counter()
    after = measure(SAMPLES)
    elapsed = time.perf_counter() - start
    rows = compare(before, after)
    print(render(rows))
    output.write_text(json.dumps({
        "description": (
            "Stream-migration gate: per-sample statistics of the stream "
            "before and after, paired by chip sample; a row passes when "
            "the bootstrap interval of mean(after - before) contains 0."
        ),
        "migration": MIGRATION,
        "samples": SAMPLES,
        "family_alpha": FAMILY_ALPHA,
        "per_row_alpha": FAMILY_ALPHA / len(ROWS),
        "bootstrap_resamples": RESAMPLES,
        "measure_seconds": round(elapsed, 1),
        "rows": rows,
    }, indent=1) + "\n")
    failing = [row["name"] for row in rows if not row["pass"]]
    print(
        f"wrote {output} ({elapsed:.0f} s); "
        f"failing rows: {failing or 'none'}"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
