"""VT-HI: voltage-level data hiding (the paper's core contribution, §5).

The hiding user (HU) stores extra bits inside flash cells that already hold
public '1' bits, by charging pseudo-randomly selected cells just above a
secret threshold V_th that still lies inside the natural voltage range of a
non-programmed cell.  Public reads are unaffected (all hidden cells stay
far below the SLC threshold); hidden reads are a single threshold-shifted
read (§5.3).

Encoding follows Algorithm 1:

1. select ``|H|`` non-programmed public bit offsets with ``PRNG(Key, Page)``
2. program public data P to the page
3. encrypt H with the key and apply ECC
4. repeat up to m times: read cell voltages; partial-program every hidden
   '0' cell still below V_th

(The implementation programs public data first and then selects cells,
since selection draws from the public bits actually stored — the same
observable order the paper's prototype uses.)

Two kernels do all the chip work, over ``(block, page)`` lists that may
span blocks: :meth:`VtHi.embed_prepared` hands step 4's read-PP loop to
the chip as one ``embed_locations`` command and
:meth:`VtHi.recover_prepared` runs the threshold-shifted read plus the
batch decode.  Every other entry point derives selection maps from the
key and the public view, then calls one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..crypto.keys import HidingKey
from ..nand.chip import FlashChip
from .config import STANDARD_CONFIG, HidingConfig
from .payload import PayloadCodec
from .selection import SelectionError, select_cells

_OBS_EMBED_PAGES = obs.counter("vthi.embed.pages")
_OBS_EMBED_PP_STEPS = obs.counter("vthi.embed.pp_steps")
_OBS_STEPS_HIST = obs.histogram("vthi.embed.steps_per_page")
_OBS_RECOVER_PAGES = obs.counter("vthi.recover.pages")

Location = Tuple[int, int]


@dataclass(frozen=True)
class EmbedStats:
    """Observability record of one page embedding."""

    page_address: int
    n_hidden_bits: int
    n_zero_bits: int
    pp_steps_used: int
    cells_left_below: int


class VtHi:
    """Hide and recover data on one flash chip using VT-HI.

    With a `public_codec` (a :class:`~repro.ecc.page.PagePipeline`), public
    data passes through page-level ECC like on a real SSD, and the decoder
    derives the selection map from the *corrected* public page — making
    recovery robust to raw public read errors without the caller having to
    supply the public bits.
    """

    def __init__(
        self,
        chip: FlashChip,
        config: HidingConfig = STANDARD_CONFIG,
        public_codec=None,
    ) -> None:
        self.chip = chip
        self.config = config
        self.codec = PayloadCodec(config)
        self.public_codec = public_codec

    def public_view(self, block: int, page: int) -> np.ndarray:
        """The decoder's view of a page's public bits.

        The ECC-corrected page when a public codec is configured, otherwise
        the raw read.
        """
        return self._public_views([(block, page)], [None])[0]

    # ------------------------------------------------------------------
    # capacity / layout helpers

    def hidden_pages(self, block: int) -> List[int]:
        """Pages of `block` that carry hidden data at this page interval."""
        return list(
            self.config.hidden_pages(self.chip.geometry.pages_per_block)
        )

    @property
    def max_data_bytes_per_page(self) -> int:
        """Hidden payload bytes one page carries after ECC."""
        return self.codec.max_data_bytes

    def block_capacity_bytes(self) -> int:
        """Hidden payload bytes one block carries."""
        return self.max_data_bytes_per_page * len(self.hidden_pages(0))

    # ------------------------------------------------------------------
    # the two kernels: Algorithm 1's read-PP loop and its decode

    def embed_prepared(
        self, items: Sequence[tuple]
    ) -> List[tuple]:
        """Algorithm 1's read-PP loop over prepared items *across blocks*.

        Each item is ``(block, page, zero_cells)`` — the hidden-'0' cell
        indices the caller derived from its selection map.  The loop
        runs on the device: one
        :meth:`~repro.nand.chip.FlashChip.embed_locations` call (one
        wire frame for a remote chip), which validates every item first
        and raises :class:`~repro.nand.errors.ProgramError` for a page
        without public data.  Per-item outcomes are bit-identical to
        embedding each item alone, in any grouping: every input to the
        loop is per-(block, page) state, and items in one batch never
        share a page.

        Returns ``(pp_steps_used, cells_left_below)`` per item.
        """
        with obs.span("vthi.embed_prepared", items=len(items)):
            outcomes = [] if not items else self.chip.embed_locations(
                items,
                self.config.threshold + self.config.guard,
                self.config.pp_steps,
                fraction=self.config.pp_fraction,
                precision=self.config.pp_precision,
            )
        steps = [used for used, _ in outcomes]
        _OBS_EMBED_PAGES.inc(len(outcomes))
        _OBS_EMBED_PP_STEPS.inc(sum(steps))
        if obs.is_enabled():
            for count in steps:
                _OBS_STEPS_HIST.observe(count)
        return outcomes

    def recover_prepared(
        self,
        items: Sequence[tuple],
        n_bytes: int,
        on_error: str = "raise",
    ) -> List[Optional[bytes]]:
        """Read back and decode prepared items *across blocks* (§5.3).

        Each item is ``(block, page, key, cells)``: the selection map the
        caller derived under that item's key.  One threshold-shifted
        ``read_locations`` of those cells and one ``decode_pages_keyed``
        pass recover the same-length payloads; with ``on_error="return"``
        an uncorrectable one yields ``None`` instead of raising.
        """
        if not items:
            return []
        _OBS_RECOVER_PAGES.inc(len(items))
        with obs.span("vthi.recover", items=len(items)):
            locations = [(int(item[0]), int(item[1])) for item in items]
            shifted = self.chip.read_locations(
                locations,
                threshold=self.config.threshold,
                cells=[item[3] for item in items],
            )
            return self.codec.decode_pages_keyed(
                [key for _, _, key, _ in items],
                [self._address(location) for location in locations],
                shifted,
                n_bytes,
                on_error=on_error,
            )

    # ------------------------------------------------------------------
    # location forms: selection from the key, then a kernel

    def embed_locations(
        self,
        locations: Sequence[Location],
        hidden_bits: Sequence[np.ndarray],
        key: HidingKey,
        public_bits: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[EmbedStats]:
        """Embed raw hidden bits at locations already holding public data.

        `hidden_bits` should already be whitened (uniform 0/1);
        :meth:`hide_locations` adds encryption and ECC.  Selection maps
        come from `key` and each location's public bits; a supplied
        ``public_bits`` entry skips that location's public read.
        """
        locations = [(block, page) for block, page in locations]
        if len(hidden_bits) != len(locations):
            raise ValueError(
                f"got {len(hidden_bits)} hidden-bit vectors for "
                f"{len(locations)} locations"
            )
        publics = self._public_bits_list(public_bits, len(locations))
        all_bits = [np.asarray(bits, dtype=np.uint8) for bits in hidden_bits]
        for bits in all_bits:
            if bits.ndim != 1 or bits.size > self.config.bits_per_page:
                raise ValueError(
                    f"hidden bits must be a vector of <= "
                    f"{self.config.bits_per_page} bits, got shape "
                    f"{bits.shape}"
                )
        # Never read the public view of a page that holds no public data;
        # the chip's embed kernel checks the locations whose bits were
        # supplied.
        self._require_programmed(
            [loc for loc, bits in zip(locations, publics) if bits is None]
        )
        views = self._public_views(locations, publics)
        addresses = [self._address(loc) for loc in locations]
        zero_cells = [
            select_cells(key, address, view, bits.size)[bits == 0]
            for address, view, bits in zip(addresses, views, all_bits)
        ]
        outcomes = self.embed_prepared(
            [loc + (cells,) for loc, cells in zip(locations, zero_cells)]
        )
        return [
            EmbedStats(address, bits.size, cells.size, *outcome)
            for address, bits, cells, outcome in zip(
                addresses, all_bits, zero_cells, outcomes
            )
        ]

    def embed_bits(
        self,
        block: int,
        page: int,
        hidden_bits: np.ndarray,
        key: HidingKey,
        public_bits: Optional[np.ndarray] = None,
    ) -> EmbedStats:
        """One-location :meth:`embed_locations`."""
        return self.embed_locations(
            [(block, page)], [hidden_bits], key, public_bits=[public_bits]
        )[0]

    def read_bits(
        self,
        block: int,
        page: int,
        n_bits: int,
        key: HidingKey,
        public_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read raw hidden bits back: one threshold-shifted read (§5.3).

        The selection map is recomputed from the public bits; in a deployed
        system the decoder uses the ECC-corrected public page, which the
        caller provides via `public_bits`.  With the default raw read, an
        (unlikely) public bit error can misalign the selection — the tests
        quantify this.
        """
        address = self.chip.geometry.page_address(block, page)
        if public_bits is None:
            public_bits = self.public_view(block, page)
        cells = select_cells(key, address, public_bits, n_bits)
        shifted = self.chip.read_page(
            block, page, threshold=self.config.threshold
        )
        # A '1' at the hiding threshold (voltage below V_th) is hidden '1'.
        return shifted[cells]

    # ------------------------------------------------------------------
    # high-level payload API

    def hide_locations(
        self,
        locations: Sequence[Location],
        public_data: Sequence,
        hidden_data: Sequence[bytes],
        key: HidingKey,
    ) -> List[EmbedStats]:
        """Program public data and hide encrypted payloads inside it.

        Each `public_data` entry is page-sized bytes or a full bit vector
        — the NU's data — unless a public codec is configured, in which
        case it is the user payload (up to ``public_codec.data_bytes``)
        and the codec produces the page bits including parity.  Each
        `hidden_data` entry must fit :attr:`max_data_bytes_per_page`.
        """
        locations = [(block, page) for block, page in locations]
        if not len(public_data) == len(hidden_data) == len(locations):
            raise ValueError(
                f"got {len(public_data)} public and {len(hidden_data)} "
                f"hidden payloads for {len(locations)} locations"
            )
        addresses = [self._address(loc) for loc in locations]
        if self.public_codec is not None:
            public_bits = self.public_codec.encode_pages(
                [bytes(data) for data in public_data], addresses
            )
        else:
            public_bits = [self._as_bits(data) for data in public_data]
        self.chip.program_locations(locations, public_bits)
        coded = self.codec.encode_pages_keyed(
            [key] * len(locations), addresses, list(hidden_data)
        )
        return self.embed_locations(
            locations, coded, key, public_bits=public_bits
        )

    def hide(
        self,
        block: int,
        page: int,
        public_data,
        hidden_data: bytes,
        key: HidingKey,
    ) -> EmbedStats:
        """One-location :meth:`hide_locations`."""
        return self.hide_locations(
            [(block, page)], [public_data], [hidden_data], key
        )[0]

    def recover_locations(
        self,
        locations: Sequence[Location],
        key: HidingKey,
        n_bytes: int,
        public_bits: Optional[Sequence[Optional[np.ndarray]]] = None,
        on_error: str = "raise",
    ) -> List[Optional[bytes]]:
        """Recover same-length payloads from locations that may span blocks.

        Selection maps come from `key` and each location's public view
        (a supplied ``public_bits`` entry skips that read); with
        ``on_error="return"`` an uncorrectable payload yields ``None``.
        """
        locations = [(block, page) for block, page in locations]
        publics = self._public_bits_list(public_bits, len(locations))
        coded_len = self.codec.coded_length(n_bytes)
        views = self._public_views(locations, publics)
        return self.recover_prepared(
            [
                loc + (key, select_cells(
                    key, self._address(loc), view, coded_len
                ))
                for loc, view in zip(locations, views)
            ],
            n_bytes,
            on_error=on_error,
        )

    def recover(
        self,
        block: int,
        page: int,
        key: HidingKey,
        n_bytes: int,
        public_bits: Optional[np.ndarray] = None,
    ) -> bytes:
        """One-location :meth:`recover_locations`."""
        return self.recover_locations(
            [(block, page)], key, n_bytes, public_bits=[public_bits]
        )[0]

    # ------------------------------------------------------------------
    # lifecycle (§5.1, §9.1)

    def erase_hidden(self, block: int) -> None:
        """Destroy hidden data instantly by erasing the block.

        "Erasing a block of public data ... also erases any hidden payload
        in the cells" (§9.1) — which is also the fast panic switch §1
        advertises ("erasing hidden data ... is almost instantaneous").
        """
        self.chip.erase_block(block)

    def reembed(
        self,
        src: tuple,
        dst: tuple,
        key: HidingKey,
        n_bytes: int,
        new_public_data,
    ) -> EmbedStats:
        """Migrate a hidden payload to a new public page (§5.1).

        When the public page containing hidden data is about to be
        invalidated, the HU "must re-embed the hidden data in a new
        location (e.g., a page containing newly written NU data)".  Reads
        the payload from `src`, then hides it inside `new_public_data`
        programmed at `dst`.
        """
        payload = self.recover(src[0], src[1], key, n_bytes)
        return self.hide(dst[0], dst[1], new_public_data, payload, key)

    # ------------------------------------------------------------------

    def _as_bits(self, data) -> np.ndarray:
        if isinstance(data, (bytes, bytearray)):
            return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
        return np.asarray(data, dtype=np.uint8)

    def _address(self, location: Location) -> int:
        return self.chip.geometry.page_address(*location)

    def _require_programmed(self, locations: Sequence[Location]) -> None:
        for block, page in locations:
            if not self.chip.is_page_programmed(block, page):
                raise SelectionError(
                    f"page {page} of block {block} holds no public data; "
                    "VT-HI hides inside public data (§5.1)"
                )

    @staticmethod
    def _public_bits_list(public_bits, count: int) -> list:
        publics = [None] * count if public_bits is None else list(public_bits)
        if len(publics) != count:
            raise ValueError(
                f"got {len(publics)} public-bit vectors for {count} locations"
            )
        return publics

    def _public_views(
        self,
        locations: Sequence[Location],
        public_bits: Sequence[Optional[np.ndarray]],
    ) -> List[np.ndarray]:
        """Each location's public bits: supplied, or its public view
        (one read over the missing ones, ECC-corrected in one batch when
        a public codec is configured)."""
        views = list(public_bits)
        missing = [i for i, bits in enumerate(views) if bits is None]
        if missing:
            raw = self.chip.read_locations([locations[i] for i in missing])
            if self.public_codec is not None:
                raw = self.public_codec.correct_pages(raw)
            for i, view in zip(missing, raw):
                views[i] = view
        return views
