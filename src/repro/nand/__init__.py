"""Voltage-level NAND flash simulator — the substrate for VT-HI.

Replaces the paper's NDA'd hardware platform (real 1x-nm MLC chips driven
by a SigNAS-II tester) with a calibrated statistical model of the same
observable behaviour.  See DESIGN.md §1 for the substitution rationale.
"""

from .bake import acceleration_factor, bake, bake_duration_for
from .block import BlockState
from .chip import FlashChip, OpCounters
from .errors import (
    AddressError,
    CommandError,
    EraseError,
    NandError,
    ProgramError,
    WearOutError,
)
from .geometry import ChipGeometry
from .mlc import MlcView, bits_to_levels, levels_to_bits
from .noise import (
    PageLevels,
    erased_tail_exceedance,
    page_levels,
    programmed_underflow,
    sample_erased,
    sample_erased_batch,
    sample_programmed_batch,
)
from .params import (
    ChipParams,
    DisturbModel,
    OpCosts,
    PartialProgramModel,
    RetentionModel,
    VariationModel,
    VoltageModel,
    WearModel,
)
from .tester import NandTester, histogram_block
from .vendor import (
    BENCH_MODEL,
    TEST_MODEL,
    VENDOR_A,
    VENDOR_B,
    ChipModel,
    scaled_geometry,
    scaled_model,
)

__all__ = [
    "AddressError",
    "BENCH_MODEL",
    "BlockState",
    "ChipGeometry",
    "ChipModel",
    "ChipParams",
    "MlcView",
    "CommandError",
    "DisturbModel",
    "EraseError",
    "FlashChip",
    "NandError",
    "NandTester",
    "OpCosts",
    "OpCounters",
    "PageLevels",
    "PartialProgramModel",
    "ProgramError",
    "RetentionModel",
    "TEST_MODEL",
    "VENDOR_A",
    "VENDOR_B",
    "VariationModel",
    "VoltageModel",
    "WearModel",
    "WearOutError",
    "acceleration_factor",
    "bake",
    "bake_duration_for",
    "bits_to_levels",
    "levels_to_bits",
    "erased_tail_exceedance",
    "histogram_block",
    "page_levels",
    "programmed_underflow",
    "sample_erased",
    "sample_erased_batch",
    "sample_programmed_batch",
    "scaled_geometry",
    "scaled_model",
]
