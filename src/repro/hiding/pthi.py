"""PT-HI: program-time data hiding — the paper's baseline (Wang et al. '13).

PT-HI "creates a covert channel from the programming time of flash cells"
(§2): hundreds of deliberate program cycles applied to groups of cells make
the stressed cells program measurably faster, and a hidden bit is encoded
in *which half of a cell group* was stressed.  Decoding re-measures
programming speed by partially programming the page step by step and
watching which cells cross the read threshold first — a process that is
slow (dozens of PP+read steps), destroys co-located public data, and
degrades quickly as ordinary wear masks the deliberate stress signal.

The paper's Table 1 and §8 compare VT-HI against PT-HI's optimal
configuration: 625 stress cycles, a 4-page interval (72 Kb of hidden bits
per block), 30 PP+read decode steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..crypto.keys import HidingKey
from ..nand.chip import FlashChip
from .config import HidingConfig
from .payload import PayloadCodec


@dataclass(frozen=True)
class PtHiConfig:
    """Operating parameters of PT-HI (the §8 "optimal setup" by default)."""

    #: Cells per hidden bit; the first half is stressed for '0', the second
    #: for '1'.
    group_size: int = 64
    #: Deliberate program cycles applied to the stressed half (§8: "the
    #: optimal configuration in [38] of 625 per-page PP steps").
    stress_cycles: int = 625
    #: Hidden bits per encoded page (72 Kb/block over 64 pages, §8).
    bits_per_page: int = 1125
    #: Pages skipped between encoded pages (§8: "a 4-page interval").
    page_interval: int = 3
    #: PP+read steps used to measure programming speed at decode (§8:
    #: "30 PP and read operations are required to decode data from a page").
    decode_steps: int = 30
    #: Pulse length of the decode measurement steps: short pulses give the
    #: timing resolution the crossing measurement needs.
    decode_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.group_size < 2 or self.group_size % 2:
            raise ValueError(
                f"group_size must be even and >= 2, got {self.group_size}"
            )
        if self.stress_cycles < 1:
            raise ValueError("stress_cycles must be >= 1")
        if self.decode_steps < 2:
            raise ValueError("decode_steps must be >= 2")

    @property
    def page_stride(self) -> int:
        return self.page_interval + 1

    def hidden_pages(self, pages_per_block: int) -> range:
        return range(0, pages_per_block, self.page_stride)


class PtHi:
    """Encode/decode hidden data in programming-time variations."""

    def __init__(self, chip: FlashChip, config: Optional[PtHiConfig] = None) -> None:
        self.chip = chip
        self.config = config if config is not None else PtHiConfig()

    # ------------------------------------------------------------------

    def _groups(self, key: HidingKey, page_address: int, n_bits: int) -> np.ndarray:
        """Keyed group layout: (n_bits, group_size) cell indices."""
        n_cells = self.chip.geometry.cells_per_page
        needed = n_bits * self.config.group_size
        if needed > n_cells:
            raise ValueError(
                f"{n_bits} hidden bits need {needed} cells; page has {n_cells}"
            )
        prng = key.selection_prng().derive(b"pt-hi").for_page(page_address)
        return prng.sample_indices(n_cells, needed).reshape(
            n_bits, self.config.group_size
        )

    def encode_block(
        self, block: int, bits_by_page: Dict[int, np.ndarray], key: HidingKey
    ) -> None:
        """Stress-encode hidden bits into the listed pages of one block.

        Encoding happens on an erased block *before* public data is written
        (the stress procedure erases the block each cycle).  All pages are
        encoded within the same stress cycles, as the real procedure does.
        """
        half = self.config.group_size // 2
        cells_by_page: Dict[int, np.ndarray] = {}
        for page, bits in bits_by_page.items():
            bits = np.asarray(bits, dtype=np.uint8)
            address = self.chip.geometry.page_address(block, page)
            groups = self._groups(key, address, bits.size)
            stressed = np.where(
                (bits == 0)[:, None],
                groups[:, :half],
                groups[:, half:],
            )
            cells_by_page[page] = stressed.reshape(-1)
        self.chip.apply_stress(block, cells_by_page, self.config.stress_cycles)

    def decode_page(
        self, block: int, page: int, n_bits: int, key: HidingKey
    ) -> np.ndarray:
        """Measure programming speed and recover hidden bits.

        DESTRUCTIVE: the page is partially programmed by the measurement,
        so any public data in the block must be considered lost (§2: "a
        destructive process that destroys any public data stored on the
        device").  The page must be in the erased state — callers erase the
        block first, which is exactly the public-data cost the paper
        charges PT-HI for.
        """
        if self.chip.is_page_programmed(block, page):
            raise ValueError(
                "PT-HI decode measures programming from the erased state; "
                f"erase block {block} first (destroying public data)"
            )
        address = self.chip.geometry.page_address(block, page)
        groups = self._groups(key, address, n_bits)
        threshold = self.chip.params.voltage.slc_threshold
        flat = groups.reshape(-1)
        steps = self.config.decode_steps
        crossing = np.full(flat.size, steps + 1, dtype=np.float64)
        for step in range(1, steps + 1):
            self.chip.partial_program(
                block, page, flat, fraction=self.config.decode_fraction
            )
            voltages = self.chip.probe_voltages(block, page)
            crossed = (voltages[flat] >= threshold) & (crossing > steps)
            crossing[crossed] = step
        crossing = crossing.reshape(groups.shape)
        half = self.config.group_size // 2
        first_half = crossing[:, :half].mean(axis=1)
        second_half = crossing[:, half:].mean(axis=1)
        # The stressed half programs faster (crosses earlier).
        return (second_half < first_half).astype(np.uint8)

    # ------------------------------------------------------------------

    def hidden_pages(self, block: int) -> List[int]:
        return list(
            self.config.hidden_pages(self.chip.geometry.pages_per_block)
        )

    def block_capacity_bits(self) -> int:
        """Raw hidden bits per block at this configuration."""
        return self.config.bits_per_page * len(self.hidden_pages(0))

    # ------------------------------------------------------------------
    # payload framing: Wang et al. also encrypt and ECC-protect hidden
    # data; reusing VT-HI's codec keeps the comparison apples-to-apples.

    def _codec(self) -> PayloadCodec:
        # The framing config only carries the budget and code parameters;
        # PT-HI's own threshold semantics do not apply.
        framing = HidingConfig(
            bits_per_page=self.config.bits_per_page,
            ecc_m=9,
            ecc_t=min(12, (self.config.bits_per_page - 8) // 9),
        )
        return PayloadCodec(framing)

    @property
    def max_data_bytes_per_page(self) -> int:
        return self._codec().max_data_bytes

    def hide(
        self, block: int, page: int, hidden_data: bytes, key: HidingKey
    ) -> None:
        """Encrypt + ECC a payload and stress-encode it into a page.

        Unlike VT-HI, this happens *before* public data is written: the
        stress procedure owns the block.
        """
        address = self.chip.geometry.page_address(block, page)
        coded = self._codec().encode(key, address, hidden_data)
        self.encode_block(block, {page: coded}, key)

    def recover(
        self, block: int, page: int, key: HidingKey, n_bytes: int
    ) -> bytes:
        """Decode a payload (destructive: erase the block first)."""
        address = self.chip.geometry.page_address(block, page)
        codec = self._codec()
        coded_len = codec.coded_length(n_bytes)
        bits = self.decode_page(block, page, coded_len, key)
        return codec.decode(key, address, bits, n_bytes)
