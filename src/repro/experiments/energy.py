"""§8 Energy: 1.1 mJ vs 43 mJ per hidden page, and the snapshot argument.

Beyond the headline numbers, §8 argues that "if an adversary read two
snapshots of the device energy usage statistics, effectively there would
not be a telltale difference for VT-HI" — the hiding energy is smaller than
ordinary read traffic.  The driver computes both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nand.params import OpCosts
from ..perf.model import paper_comparison
from .common import Result, Table


@dataclass
class EnergyResult(Result):
    summary: Table
    vthi_mj_per_page: float
    pthi_mj_per_page: float
    efficiency_ratio: float


def run(costs: OpCosts = OpCosts()) -> EnergyResult:
    comparison = paper_comparison(costs)
    vthi, pthi = comparison.vthi, comparison.pthi
    summary = Table(
        "§8 Energy",
        ("quantity", "VT-HI", "PT-HI"),
    )
    summary.add(
        "energy per hidden page",
        f"{vthi.energy_per_page_j*1e3:.2f} mJ",
        f"{pthi.energy_per_page_j*1e3:.1f} mJ",
    )
    summary.add(
        "energy per hidden bit",
        f"{vthi.energy_per_bit_j*1e6:.2f} uJ",
        f"{pthi.energy_per_bit_j*1e6:.2f} uJ",
    )
    summary.add(
        "efficiency ratio (paper: 37x)",
        f"{comparison.energy_efficiency:.1f}x",
        "1x",
    )
    # Snapshot-adversary framing: hiding one page costs about as much as
    # this many ordinary reads.
    reads_equivalent = vthi.energy_per_page_j / costs.e_read
    summary.add(
        "VT-HI page cost in ordinary reads",
        f"{reads_equivalent:.0f} reads",
        "-",
    )
    return EnergyResult(
        summary,
        vthi.energy_per_page_j * 1e3,
        pthi.energy_per_page_j * 1e3,
        comparison.energy_efficiency,
    )
