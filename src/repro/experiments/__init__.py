"""Per-figure/table experiment drivers.

Each module regenerates one result of the paper's evaluation.  Module
``run()`` functions take scaled default parameters (seconds-level runtime)
and return result objects whose ``summary`` table prints the rows/series
the paper reports.

Index (see DESIGN.md §3 for the full mapping):

====================  =====================================================
module                paper result
====================  =====================================================
fig2                  voltage distributions across chip samples
fig3                  distribution drift with PEC
fig5                  hidden-data encoding regions
fig6                  hidden BER vs PP steps
fig7                  hidden BER at 10 steps vs interval/bits
fig8                  distribution shift vs hidden density
fig9                  hidden-vs-normal indistinguishability
fig10                 SVM accuracy vs wear (standard config)
fig11                 retention (1 day / 1 month / 4 months)
fig12                 SVM accuracy (enhanced config)
table1                qualitative VT-HI vs PT-HI comparison
throughput            §8 encode/decode throughput
energy                §8 energy
wear                  §8 wear amplification
reliability           §8 hidden BER vs wear
capacity              §8 improved capacity
applicability         §8 second-vendor check
public_interference   §6.3 public BER penalty vs page interval
====================  =====================================================
"""

from . import (  # noqa: F401
    ablations,
    applicability,
    capacity,
    energy,
    fig2,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    figures,
    interval_capacity,
    mlc_extension,
    public_interference,
    reliability,
    table1,
    throughput,
    wear,
)
from .common import Table, default_model, experiment_key, make_samples

__all__ = [
    "Table",
    "ablations",
    "applicability",
    "capacity",
    "default_model",
    "energy",
    "experiment_key",
    "fig10",
    "fig11",
    "fig12",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "figures",
    "interval_capacity",
    "make_samples",
    "mlc_extension",
    "public_interference",
    "reliability",
    "table1",
    "throughput",
    "wear",
]
