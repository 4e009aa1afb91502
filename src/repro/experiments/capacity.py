"""§8 Improved Capacity + the §1 capacity fractions.

Compares the standard and enhanced configurations: raw hidden bits,
parity overhead (both the paper's Shannon-limit estimate and this
repository's concrete BCH plan), usable data bits, and the fraction of
device bits used (§1: "about 0.02% of the bits ... with firmware support
0.2%").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..hiding.capacity import plan_capacity, shannon_parity_fraction
from ..hiding.config import ENHANCED_CONFIG, STANDARD_CONFIG, HidingConfig
from ..hiding.payload import PayloadCodec
from ..nand.vendor import VENDOR_A
from ..parallel import ParallelRunner
from ..perf.model import PAPER_PTHI_HIDDEN_BITS_PER_BLOCK
from .common import Result, Table

#: Raw hidden BERs measured for each configuration (see reliability /
#: fig6 experiments; the paper quotes 0.5% and 2%).
STANDARD_RAW_BER = 0.009
ENHANCED_RAW_BER = 0.045


@dataclass
class CapacityResult(Result):
    summary: Table
    standard_data_bits_per_page: int
    enhanced_data_bits_per_page: int

    @property
    def capacity_gain(self) -> float:
        return (
            self.enhanced_data_bits_per_page
            / self.standard_data_bits_per_page
        )


def _config_unit(
    name: str, config: HidingConfig, raw_ber: float
) -> Tuple[str, int, float, int]:
    """One work unit: the capacity arithmetic for one configuration.

    The BCH plan is the only non-trivial cost (the concrete codec's
    generator polynomial); both the Shannon estimate and the plan are pure
    functions of the arguments, so units are trivially deterministic.
    Returns (name, data bits/page, device fraction, concrete parity bits).
    """
    geometry = VENDOR_A.geometry
    plan = plan_capacity(
        VENDOR_A.params,
        geometry.pages_per_block,
        geometry.cells_per_page,
        config,
        raw_ber,
    )
    codec = PayloadCodec(config)
    concrete_parity = config.bits_per_page - codec.max_data_bits
    return (
        name,
        codec.max_data_bits,
        plan.fraction_of_device_bits,
        concrete_parity,
    )


def run(
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> CapacityResult:
    summary = Table(
        "§8 Capacity — standard vs enhanced configuration (full geometry)",
        (
            "config", "raw bits/page", "raw BER", "Shannon parity",
            "BCH parity (concrete)", "data bits/page", "device fraction",
        ),
    )
    configs = (
        ("standard", STANDARD_CONFIG, STANDARD_RAW_BER),
        ("enhanced", ENHANCED_CONFIG, ENHANCED_RAW_BER),
    )
    partials = ParallelRunner(workers, backend).map(
        _config_unit, list(configs)
    )
    results = {}
    for (name, config, raw_ber), (
        _, data_bits, device_fraction, concrete_parity
    ) in zip(configs, partials):
        results[name] = data_bits
        summary.add(
            name,
            config.bits_per_page,
            raw_ber,
            f"{100*shannon_parity_fraction(raw_ber):.1f}%",
            f"{100*concrete_parity/config.bits_per_page:.1f}%",
            data_bits,
            f"{100*device_fraction:.3f}%",
        )
    pthi_per_page = PAPER_PTHI_HIDDEN_BITS_PER_BLOCK / 64
    summary.add(
        "PT-HI (paper optimum)", int(pthi_per_page), "~0 (fresh only)",
        "-", "-", int(pthi_per_page), "-",
    )
    return CapacityResult(
        summary, results["standard"], results["enhanced"]
    )
