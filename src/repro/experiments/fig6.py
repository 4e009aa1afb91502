"""Figure 6: hidden BER versus PP steps, across configurations.

§6.3 sweeps the three configuration parameters — PP steps (1-15), hidden
bits per page (32/128/512) and page interval (0/1/2/4) — embedding in five
blocks per combination and measuring "the average hidden data BER after
each PP step".  BER converges below ~1% after roughly ten steps for every
combination.

The driver instruments Algorithm 1's loop: after each PP step it performs
the hidden read and records the BER, so one embedding yields the whole
m-curve (exactly the paper's measurement).  All hidden pages of a block
advance through the loop together, so each step costs one probe and one
read call over every page — and both are cell-addressed: the probe
covers each page's hidden '0' cells and the read its hidden cells, so a
step costs in proportion to the cells the hider touches, not the page.

The (interval, bits) configurations are independent work units — each owns
its own block range on a freshly-derived chip sample — so the sweep fans
out over worker processes (``workers=`` / ``REPRO_WORKERS``) with
bit-identical results at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hiding.config import STANDARD_CONFIG
from ..hiding.selection import select_cells
from ..nand.chip import FlashChip
from ..parallel import ParallelRunner
from .common import (
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)

DEFAULT_PAGE_INTERVALS = (0, 1, 2, 4)
DEFAULT_BIT_COUNTS = (32, 128, 512)
DEFAULT_MAX_STEPS = 15

ConfigKey = Tuple[int, int]  # (page_interval, bits_per_page)


@dataclass
class Fig6Result:
    #: (interval, bits) -> BER per step (list of length max_steps).
    curves: Dict[ConfigKey, List[float]]
    max_steps: int
    summary: Table

    def rows(self):
        return self.summary.rows

    @property
    def headers(self):
        return self.summary.headers


def measure_ber_curves(
    chip: FlashChip,
    block: int,
    pages: Sequence[int],
    bits_list: Sequence[np.ndarray],
    key,
    threshold: float,
    guard: float,
    max_steps: int,
    pp_fraction: float = STANDARD_CONFIG.pp_fraction,
) -> np.ndarray:
    """Embed hidden bits into several pages of one erased block, recording
    each page's hidden BER after every PP step.

    Returns a ``(len(pages), max_steps)`` array.  The pages advance
    step-synchronised: each step makes one
    :meth:`~repro.nand.chip.FlashChip.probe_voltages_locations` call over
    every page's hidden '0' cells and one threshold-shifted
    :meth:`~repro.nand.chip.FlashChip.read_locations` call over every
    page's hidden cells.  Every page is probed every step, even one
    without '0' cells, so the chip's counters match a full-page probe.
    """
    publics = [
        random_page_bits(chip, "fig6-public", block * 1000 + page)
        for page in pages
    ]
    chip.program_pages(block, pages, publics)
    cells_list: List[np.ndarray] = []
    zero_list: List[np.ndarray] = []
    for public, page, bits in zip(publics, pages, bits_list):
        address = chip.geometry.page_address(block, page)
        cells = select_cells(key, address, public, bits.size)
        cells_list.append(cells)
        zero_list.append(cells[bits == 0])
    target = threshold + guard
    locations = [(block, page) for page in pages]
    curves = np.zeros((len(pages), max_steps))
    for step in range(max_steps):
        probed = chip.probe_voltages_locations(locations, cells=zero_list)
        for i, page in enumerate(pages):
            below = zero_list[i][probed[i] < target]
            if below.size:
                chip.partial_program(
                    block, page, below, fraction=pp_fraction
                )
        readback = chip.read_locations(
            locations, threshold=threshold, cells=cells_list
        )
        for i, bits in enumerate(bits_list):
            curves[i, step] = np.count_nonzero(readback[i] != bits) / bits.size
    return curves


def _config_unit(
    interval: int,
    bits_count: int,
    block_start: int,
    blocks_per_config: int,
    max_steps: int,
    bits_scale_divisor: int,
    seed: int,
) -> Tuple[np.ndarray, int]:
    """One work unit: the full per-config block/trial range.

    Rebuilds the chip sample and key from seeds, so the unit computes the
    same bits in any process.  Returns (summed curves, sample count).
    """
    model = default_model(pages_per_block=8)
    chip = make_samples(model, 1, base_seed=6000 + seed)[0]
    key = experiment_key(f"fig6-{seed}")
    threshold = STANDARD_CONFIG.threshold
    guard = STANDARD_CONFIG.guard
    stride = interval + 1
    scaled_bits = max(bits_count // bits_scale_divisor, 8)
    accumulated = np.zeros(max_steps)
    samples = 0
    for rep in range(blocks_per_config):
        blk = (block_start + rep) % chip.geometry.n_blocks
        chip.erase_block(blk)
        pages = list(range(0, chip.geometry.pages_per_block, stride))
        bits_list = [
            random_bits(scaled_bits, "fig6-hidden", blk * 100 + page)
            for page in pages
        ]
        curves = measure_ber_curves(
            chip, blk, pages, bits_list, key, threshold, guard, max_steps
        )
        accumulated += curves.sum(axis=0)
        samples += len(pages)
        chip.release_block(blk)
    return accumulated, samples


def run(
    page_intervals: Sequence[int] = DEFAULT_PAGE_INTERVALS,
    bit_counts: Sequence[int] = DEFAULT_BIT_COUNTS,
    max_steps: int = DEFAULT_MAX_STEPS,
    blocks_per_config: int = 2,
    bits_scale_divisor: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Fig6Result:
    """Regenerate the Fig. 6 sweep.

    `bits_scale_divisor` shrinks hidden-bit counts in proportion to the
    scaled page size (the default experiment model divides pages by 4);
    pass 1 with a full-page model for paper-fidelity counts.  `workers`
    fans the configuration grid out over workers (default: the
    ``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``) on
    the chosen execution `backend` (process/thread/serial; default
    ``REPRO_BACKEND``, then auto); results are identical for every
    worker count and backend.
    """
    config_keys: List[ConfigKey] = [
        (interval, bits_count)
        for interval in page_intervals
        for bits_count in bit_counts
    ]
    units = [
        (
            interval,
            bits_count,
            index * blocks_per_config,
            blocks_per_config,
            max_steps,
            bits_scale_divisor,
            seed,
        )
        for index, (interval, bits_count) in enumerate(config_keys)
    ]
    partials = ParallelRunner(workers, backend).map(_config_unit, units)
    curves: Dict[ConfigKey, List[float]] = {}
    for (interval, bits_count), (accumulated, samples) in zip(
        config_keys, partials
    ):
        curves[(interval, bits_count)] = list(accumulated / samples)
    summary = Table(
        "Fig. 6 — hidden BER vs PP steps (per interval+bits config)",
        ("interval", "bits/page", "BER@1", "BER@3", "BER@5", "BER@10",
         f"BER@{max_steps}"),
    )
    for (interval, bits_count), curve in sorted(curves.items()):
        summary.add(
            interval, bits_count, curve[0], curve[2], curve[4],
            curve[min(9, max_steps - 1)], curve[-1],
        )
    return Fig6Result(curves, max_steps, summary)
