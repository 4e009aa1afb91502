"""A page-mapped flash translation layer over the chip simulator.

Provides the logical block device the §9.2 steganographic discussion
assumes: out-of-place writes, greedy garbage collection, least-worn-first
allocation, ECC-protected pages, and — crucially for hidden data — a
*relocation hook* that fires before valid public pages are moved and their
old block erased.  §5.1: "The HU must either re-embed the hidden data in a
new location ... before the old NU page containing it is permanently
erased"; the hidden volume registers this hook to do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .. import obs
from ..ecc.page import PagePipeline
from ..nand.chip import FlashChip
from ..nand.errors import EraseError, WearOutError
from .gc import greedy_victim
from .mapping import PageMap, PhysicalPage
from .wear_leveling import least_worn_free_block

_OBS_HOST_WRITES = obs.counter("ftl.host_writes")
_OBS_FLASH_WRITES = obs.counter("ftl.flash_writes")
_OBS_GC_RESCUED = obs.counter("ftl.gc.pages_rescued")
_OBS_GC_ERASES = obs.counter("ftl.gc.erases")
_OBS_GC_RETIRED = obs.counter("ftl.gc.retired_blocks")

#: Relocation hook: (lpa, old_location, new_location, new_page_bits).
#: ``new_page_bits`` are the exact bits the FTL just programmed at the new
#: location (post-ECC-encode), so hidden-data owners can re-embed without
#: re-reading the public page.
RelocationHook = Callable[[int, PhysicalPage, PhysicalPage, np.ndarray], None]
#: Write hook: (lpa, new_location, programmed_page_bits).
WriteHook = Callable[[int, PhysicalPage, np.ndarray], None]


class FtlError(Exception):
    """Raised on invalid FTL operations or when the device is full."""


@dataclass
class FtlStats:
    """Write-amplification and GC observability."""

    host_writes: int = 0
    flash_writes: int = 0
    gc_relocations: int = 0
    gc_erases: int = 0
    retired_blocks: int = 0

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return self.flash_writes / self.host_writes


class Ftl:
    """Page-mapped FTL exposing a logical page read/write/trim interface."""

    def __init__(
        self,
        chip: FlashChip,
        pipeline: Optional[PagePipeline] = None,
        overprovision_blocks: int = 2,
    ) -> None:
        geometry = chip.geometry
        if overprovision_blocks < 1:
            raise ValueError("need at least one over-provisioned block")
        if overprovision_blocks >= geometry.n_blocks:
            raise ValueError(
                f"{overprovision_blocks} over-provisioned blocks exceed "
                f"the {geometry.n_blocks}-block device"
            )
        self.chip = chip
        self.pipeline = (
            pipeline
            if pipeline is not None
            else PagePipeline(geometry.cells_per_page)
        )
        self.page_map = PageMap(geometry.n_blocks, geometry.pages_per_block)
        self.stats = FtlStats()
        #: Logical capacity in pages (physical minus over-provisioning).
        usable_blocks = [
            block
            for block in range(geometry.n_blocks)
            if not chip.is_bad_block(block)
        ]
        if len(usable_blocks) <= overprovision_blocks:
            raise ValueError(
                "not enough good blocks for the requested over-provisioning"
            )
        #: Blocks retired (factory-bad or grown-bad) — never allocated.
        self.bad_blocks = set(range(geometry.n_blocks)) - set(usable_blocks)
        self.logical_pages = (
            len(usable_blocks) - overprovision_blocks
        ) * geometry.pages_per_block
        self._free_blocks = list(usable_blocks)
        self._closed_blocks: List[int] = []
        self._open_block: Optional[int] = None
        self._relocation_hooks: List[RelocationHook] = []
        self._invalidation_hooks: List[Callable[[int, PhysicalPage], None]] = []
        self._erase_hooks: List[Callable[[int], None]] = []
        self._write_hooks: List[WriteHook] = []
        self._gc_low_water = max(1, overprovision_blocks - 1)
        self._collecting = False

    # ------------------------------------------------------------------
    # persistence: hooks are process-local callbacks (the hidden volume
    # re-registers them from the key at mount time), so a pickled FTL
    # carries only the public-world state.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_relocation_hooks"] = []
        state["_invalidation_hooks"] = []
        state["_erase_hooks"] = []
        state["_write_hooks"] = []
        return state

    # ------------------------------------------------------------------

    @property
    def page_data_bytes(self) -> int:
        """Logical page payload size."""
        return self.pipeline.data_bytes

    def add_relocation_hook(self, hook: RelocationHook) -> None:
        """Register a callback fired after GC copies a valid page.

        The hook receives (lpa, old_location, new_location,
        new_page_bits) *before* the old block is erased, giving
        hidden-data owners their §5.1 window to re-embed —
        ``new_page_bits`` spares them re-reading public data they are
        about to embed into.
        """
        self._relocation_hooks.append(hook)

    def add_invalidation_hook(
        self, hook: Callable[[int, PhysicalPage], None]
    ) -> None:
        """Register a callback fired when a physical page becomes invalid
        through a host overwrite or trim (not through GC relocation, which
        fires the relocation hook instead).

        The page's cells are still intact until its block is erased, so a
        hidden-data owner can still read and rescue a payload hosted there.
        """
        self._invalidation_hooks.append(hook)

    def add_erase_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callback fired after GC erases a block.

        Everything physically stored in the block — including any hidden
        charge — is gone at that point.
        """
        self._erase_hooks.append(hook)

    def add_write_hook(self, hook: WriteHook) -> None:
        """Register a callback fired after each *host* write lands.

        Receives (lpa, new physical location, programmed page bits).
        This is the cover-traffic signal of §9.2: a freshly-programmed
        page whose voltage changes are fully explained by visible public
        activity.  The bits let a piggybacking embedder skip the public
        read.
        """
        self._write_hooks.append(hook)

    def write(self, lpa: int, data: bytes) -> PhysicalPage:
        """Write a logical page; returns its new physical location."""
        self._check_lpa(lpa)
        if len(data) > self.page_data_bytes:
            raise FtlError(
                f"payload of {len(data)} bytes exceeds page capacity "
                f"{self.page_data_bytes}"
            )
        old_location = self.page_map.lookup(lpa)
        location, bits = self._program(data)
        self.page_map.bind(lpa, location)
        self.stats.host_writes += 1
        _OBS_HOST_WRITES.inc()
        if old_location is not None:
            for hook in self._invalidation_hooks:
                hook(lpa, old_location)
        for hook in self._write_hooks:
            hook(lpa, location, bits)
        self._maybe_collect()
        return location

    def read(self, lpa: int) -> Optional[bytes]:
        """Read a logical page; None if never written (or trimmed)."""
        self._check_lpa(lpa)
        location = self.page_map.lookup(lpa)
        if location is None:
            return None
        return self._read_physical(location)

    def trim(self, lpa: int) -> None:
        """Discard a logical page."""
        self._check_lpa(lpa)
        old_location = self.page_map.unbind(lpa)
        if old_location is not None:
            for hook in self._invalidation_hooks:
                hook(lpa, old_location)

    def locate(self, lpa: int) -> Optional[PhysicalPage]:
        """Current physical location of a logical page."""
        return self.page_map.lookup(lpa)

    # ------------------------------------------------------------------

    def _check_lpa(self, lpa: int) -> None:
        if not 0 <= lpa < self.logical_pages:
            raise FtlError(
                f"LPA {lpa} out of range [0, {self.logical_pages})"
            )

    def _read_physical(self, location: PhysicalPage) -> bytes:
        block, page = location
        raw = self.chip.read_page(block, page)
        address = self.chip.geometry.page_address(block, page)
        data, _ = self.pipeline.decode(raw, page_address=address)
        return data

    def _program(self, data: bytes):
        """Program a page; returns ((block, page), programmed bits)."""
        block = self._writable_block()
        page = self.page_map.advance_write_pointer(block)
        address = self.chip.geometry.page_address(block, page)
        bits = self.pipeline.encode(data, page_address=address)
        self.chip.program_page(block, page, bits)
        self.stats.flash_writes += 1
        _OBS_FLASH_WRITES.inc()
        if self.page_map.blocks[block].write_pointer >= (
            self.chip.geometry.pages_per_block
        ):
            self._closed_blocks.append(block)
            self._open_block = None
        return (block, page), bits

    def _writable_block(self) -> int:
        if self._open_block is not None:
            return self._open_block
        if not self._free_blocks:
            if self._collecting:
                # GC itself ran out of space: genuine end of life (too
                # many retired blocks for the remaining valid data).
                raise FtlError(
                    "device end-of-life: garbage collection has no block "
                    "to relocate into"
                )
            self._collect(force=True)
        if not self._free_blocks:
            raise FtlError("device full: no free blocks after GC")
        choice = least_worn_free_block(self._free_blocks, self.chip.block_pec)
        self._free_blocks.remove(choice)
        self._open_block = choice
        return choice

    def _maybe_collect(self) -> None:
        if len(self._free_blocks) <= self._gc_low_water:
            try:
                self._collect()
            except FtlError:
                # Opportunistic background GC must not fail a host write
                # that already landed; a genuine out-of-space condition
                # resurfaces on the next allocation.
                pass

    def _collect(self, force: bool = False) -> None:
        if self._collecting:
            return
        self._collecting = True
        try:
            with obs.span("ftl.gc.collect", force=force):
                self._collect_inner(force)
        finally:
            self._collecting = False

    def _collect_inner(self, force: bool) -> None:
        victim = greedy_victim(self.page_map, self._closed_blocks)
        if victim is None:
            if force:
                raise FtlError("no GC victim available")
            return
        info = self.page_map.blocks[victim]
        if not force and info.valid_pages >= self.chip.geometry.pages_per_block:
            return  # nothing reclaimable
        # Batch the victim's reads: all valid pages come back in one chip
        # op and their ECC decodes in one vectorised pass.  Relocations
        # (and their hooks) then run in the same order as the serial loop;
        # page results are bit-identical because reads only touch per-page
        # chip state and the destination block is never the victim.
        victims = list(self.page_map.valid_locations_in(victim))
        datas: List[bytes] = []
        if victims:
            pages = [location[1] for location, _ in victims]
            raw = self.chip.read_pages(victim, pages)
            addresses = [
                self.chip.geometry.page_address(victim, page)
                for page in pages
            ]
            datas = [
                data
                for data, _ in self.pipeline.decode_pages(raw, addresses)
            ]
        for (location, lpa), data in zip(victims, datas):
            new_location, new_bits = self._program(data)
            self.page_map.bind(lpa, new_location)
            self.stats.gc_relocations += 1
            _OBS_GC_RESCUED.inc()
            for hook in self._relocation_hooks:
                hook(lpa, location, new_location, new_bits)
        self._closed_blocks.remove(victim)
        try:
            self.chip.erase_block(victim)
        except (WearOutError, EraseError):
            # Grown bad block: retire it; its valid data already moved.
            self.bad_blocks.add(victim)
            self.page_map.reset_block(victim)
            self.stats.retired_blocks += 1
            _OBS_GC_RETIRED.inc()
            return
        self.page_map.reset_block(victim)
        self._free_blocks.append(victim)
        self.stats.gc_erases += 1
        _OBS_GC_ERASES.inc()
        for hook in self._erase_hooks:
            hook(victim)
