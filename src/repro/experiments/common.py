"""Shared scaffolding for the per-figure experiment drivers.

Every experiment module exposes ``run(...)`` returning a result object with
a ``rows()`` method (list of printable rows) and a ``headers`` attribute,
so the benchmark harness can regenerate and print the paper's tables and
series uniformly.  Default parameters are scaled for seconds-level runtime;
pass larger values (or ``PAPER_*`` constants) for fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..crypto.keys import HidingKey
from ..nand.chip import FlashChip
from ..nand.vendor import VENDOR_A, ChipModel, scaled_model
from ..obs.report import table
from ..rng import substream


def default_model(
    pages_per_block: int = 8,
    n_blocks: int = 32,
    page_divisor: int = 4,
) -> ChipModel:
    """The default scaled chip model for experiments.

    Keeps full distribution physics; divides the page size (experiments
    that scale pages also scale hidden-bit counts to preserve fractions).
    """
    return scaled_model(
        VENDOR_A,
        n_blocks=n_blocks,
        pages_per_block=pages_per_block,
        page_divisor=page_divisor,
        suffix="exp",
    )


def make_samples(model: ChipModel, n: int, base_seed: int = 1000) -> List[FlashChip]:
    """`n` manufacturing samples of a chip model (the paper's chips)."""
    return [
        FlashChip(model.geometry, model.params, seed=base_seed + i)
        for i in range(n)
    ]


def experiment_key(label: str) -> HidingKey:
    """A deterministic hiding key for an experiment."""
    return HidingKey.generate(label.encode("utf-8"))


def random_page_bits(chip: FlashChip, seed_label: str, index: int = 0) -> np.ndarray:
    """Pseudorandom public page bits (the paper programs random patterns)."""
    rng = substream(derive_label_seed(seed_label), "page-bits", index)
    return (rng.random(chip.geometry.cells_per_page) < 0.5).astype(np.uint8)


def random_bits(n: int, seed_label: str, index: int = 0) -> np.ndarray:
    rng = substream(derive_label_seed(seed_label), "bits", index)
    return (rng.random(n) < 0.5).astype(np.uint8)


def derive_label_seed(label: str) -> int:
    from ..rng import derive_seed

    return derive_seed(0, "experiment", label)


@dataclass
class Table:
    """A printable result table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence] = field(default_factory=list)

    def add(self, *row) -> None:
        self.rows.append(row)

    def render(self) -> str:
        return self.title + "\n\n" + table(
            [str(h) for h in self.headers],
            [[_fmt(cell) for cell in row] for row in self.rows],
        )


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) < 0.001 or abs(cell) >= 100000:
            return f"{cell:.3g}"
        return f"{cell:.4g}"
    return str(cell)
