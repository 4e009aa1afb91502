"""The hidden volume: §9.2's "basic design", made concrete.

"A VT-HI-capable system would include a publicly visible, encrypted volume,
within which a user can store a hidden, encrypted data volume.  To access
the hidden volume, a user would input the secret key at mount time.  Data
can then be read and written from this volume using standard block-level
operations."

:class:`HiddenVolume` realises this on top of the FTL (the public volume)
and :class:`~repro.hiding.vthi.VtHi` (the hiding primitive):

* hidden logical blocks live in *slots* embedded inside physical pages that
  hold valid public data, on the hidden-eligible page stride;
* each slot is self-describing (:mod:`repro.stego.metadata`), so
  :meth:`mount` rebuilds the hidden map by scanning with the key — nothing
  about the volume is persisted in the clear;
* FTL hooks keep hidden data alive across public-data churn: when GC
  relocates a host page the slot is re-embedded at the new location, and
  when a host page is invalidated by an overwrite/trim the slot is rescued
  onto a fresh host *before* the block can be erased (§5.1's re-embedding
  obligation).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..crypto.keys import HidingKey
from ..ftl.ftl import Ftl
from ..hiding.vthi import VtHi
from .metadata import HEADER_BYTES, SlotHeader, latest_slots, pack_slot, unpack_slot
from .wear_policy import WearBand, public_wear_band

_OBS_SLOT_EMBEDS = obs.counter("stego.slot_embeds")
_OBS_RESCUES = obs.counter("stego.rescues")
_OBS_MOUNT_CANDIDATES = obs.counter("stego.mount.candidates")
_OBS_MOUNT_SLOTS = obs.counter("stego.mount.slots_found")

Location = Tuple[int, int]


class HiddenVolumeError(Exception):
    """Raised on hidden-volume failures (no hosts, unknown LBA, ...)."""


class HiddenVolume:
    """A block-addressable hidden volume inside the public volume."""

    def __init__(
        self,
        ftl: Ftl,
        vthi: VtHi,
        key: HidingKey,
        wear_policy=None,
    ) -> None:
        if vthi.chip is not ftl.chip:
            raise ValueError("FTL and VT-HI must drive the same chip")
        self.ftl = ftl
        self.vthi = vthi
        self.key = key
        #: Optional :class:`~repro.stego.wear_policy.WearBandPolicy`:
        #: restrict hosts to blocks inside the public wear band, the
        #: §5.2/§7 operational requirement.
        self.wear_policy = wear_policy
        #: hidden LBA -> (host location, payload length, seq).
        self._slots: Dict[int, Tuple[Location, int, int]] = {}
        #: host locations currently carrying a live slot.
        self._hosts: Set[Location] = set()
        self._seq = 0
        #: locations that have carried *any* embedding since their block's
        #: last erase.  VT-HI can only raise voltages, and the keyed
        #: selection map is fixed per page, so a page can host at most one
        #: embedding per erase cycle.
        self._burned: Set[Location] = set()
        self._embed_time: Dict[int, float] = {}
        ftl.add_relocation_hook(self._on_relocation)
        ftl.add_invalidation_hook(self._on_invalidation)
        ftl.add_erase_hook(self._on_erase)

    # ------------------------------------------------------------------

    @property
    def slot_data_bytes(self) -> int:
        """Hidden payload bytes per slot (page capacity minus header)."""
        return self.vthi.max_data_bytes_per_page - HEADER_BYTES

    def capacity_slots(self) -> int:
        """Upper bound on live slots: hidden-eligible valid public pages."""
        return len(self._eligible_hosts())

    def write(self, lba: int, data: bytes) -> None:
        """Write a hidden logical block (1..slot_data_bytes bytes).

        Zero-length payloads are not representable: a slot of length 0 is
        the deletion tombstone (:meth:`delete`).
        """
        if not data:
            raise HiddenVolumeError(
                "empty hidden blocks are not representable; use delete()"
            )
        if len(data) > self.slot_data_bytes:
            raise HiddenVolumeError(
                f"hidden block of {len(data)} bytes exceeds slot capacity "
                f"{self.slot_data_bytes}"
            )
        self._seq += 1
        self._place(lba, data, self._find_host())

    def write_at(
        self,
        lba: int,
        data: bytes,
        host: Location,
        public_bits=None,
    ) -> None:
        """Write a hidden block into a *specific* host page.

        Used by the cover-traffic policy (§9.2): the caller names a page
        that public activity just programmed, so the embedding hides under
        visible cover.  The host must be hidden-eligible, hold valid
        public data, and be unburned this erase cycle.  `public_bits` —
        the page bits public activity just programmed, as delivered by the
        FTL write hook — lets the embedding skip re-reading them.
        """
        if len(data) > self.slot_data_bytes:
            raise HiddenVolumeError(
                f"hidden block of {len(data)} bytes exceeds slot capacity "
                f"{self.slot_data_bytes}"
            )
        stride = self.vthi.config.page_stride
        if host[1] % stride != 0:
            raise HiddenVolumeError(
                f"host {host} is not on the hidden page stride"
            )
        if host in self._hosts or host in self._burned:
            raise HiddenVolumeError(f"host {host} is already carrying data")
        if host not in self._eligible_hosts():
            raise HiddenVolumeError(
                f"host {host} holds no valid public data"
            )
        self._seq += 1
        self._place(lba, data, host, public_bits=public_bits)

    def read(self, lba: int) -> Optional[bytes]:
        """Read a hidden logical block; None if never written or deleted."""
        entry = self._slots.get(lba)
        if entry is None:
            return None
        host, length, _ = entry
        blob = self.vthi.recover(
            host[0], host[1], self.key, self.vthi.max_data_bytes_per_page
        )
        parsed = unpack_slot(self.key, blob)
        if parsed is None:
            raise HiddenVolumeError(
                f"hidden block {lba} at host {host} failed authentication"
            )
        header, payload = parsed
        if header.lba != lba:
            raise HiddenVolumeError(
                f"host {host} holds LBA {header.lba}, expected {lba}"
            )
        return payload

    def delete(self, lba: int) -> None:
        """Delete a hidden block (writes a tombstone so mount agrees)."""
        if lba not in self._slots:
            return
        self._seq += 1
        host = self._find_host()
        self._embed(host, SlotHeader(lba, self._seq, 0), b"")
        old_host = self._slots.pop(lba)[0]
        self._hosts.discard(old_host)
        # The tombstone host is transient; it carries no live data.

    def mount(self) -> int:
        """Rebuild the hidden map by scanning with the key.

        Tries every hidden-eligible physical page holding valid public
        data; a slot is recognised purely by its keyed MAC.  Returns the
        number of live hidden blocks found.  The scan is one
        ``recover_locations`` call over every candidate page, with
        uncorrectable pages — the common case, since most candidates
        hold no slot — skipped instead of raising; the surviving slots
        fold under :func:`~repro.stego.metadata.latest_slots`.
        """
        hosts = sorted(self._eligible_hosts())
        with obs.span("stego.mount", pages_probed=len(hosts)):
            blobs = self.vthi.recover_locations(
                hosts,
                self.key,
                self.vthi.max_data_bytes_per_page,
                on_error="return",
            )
        _OBS_MOUNT_CANDIDATES.inc(len(hosts))
        found = []
        for host, blob in zip(hosts, blobs):
            parsed = None if blob is None else unpack_slot(self.key, blob)
            if parsed is not None:
                found.append((host, parsed[0]))
        live = latest_slots(found)
        _OBS_MOUNT_SLOTS.inc(len(live))
        self._slots = {
            lba: (host, header.length, header.seq)
            for lba, (host, header) in live.items()
        }
        self._hosts = {host for host, _ in live.values()}
        self._seq = max((header.seq for _, header in found), default=0)
        return len(live)

    def panic_erase(self) -> None:
        """Destroy the hidden volume without touching the map metadata
        elsewhere (there is none): erase the hosts' hidden charge by
        dropping the in-memory map.  Physically destroying it requires the
        public volume to rewrite those pages; for the instant §9.1 erase of
        everything, erase the blocks via the FTL's normal churn or chip
        erase."""
        self._slots.clear()
        self._hosts.clear()
        self._embed_time.clear()

    # ------------------------------------------------------------------

    def _eligible_hosts(self) -> Set[Location]:
        stride = self.vthi.config.page_stride
        hosts = set()
        for location, _ in self.ftl.page_map.valid_locations():
            if location[1] % stride == 0:
                hosts.add(location)
        return hosts

    def _find_host(self) -> Location:
        candidates = self._eligible_hosts() - self._hosts - self._burned
        if not candidates:
            raise HiddenVolumeError(
                "no eligible host pages: write more public data or free "
                "slots (hidden capacity rides on public data, §5.1)"
            )
        if self.wear_policy is not None:
            choice = self.wear_policy.choose(candidates, self._wear_band())
            if choice is None:
                raise HiddenVolumeError(
                    "no wear-inconspicuous host available: every candidate "
                    "block's PEC stands out of the public band (§7)"
                )
            return choice
        # Deterministic order: prefer the youngest wear.
        return min(
            candidates,
            key=lambda loc: (self.ftl.chip.block_pec(loc[0]), loc),
        )

    def _wear_band(self) -> WearBand:
        public_blocks = {
            loc[0] for loc, _ in self.ftl.page_map.valid_locations()
        }
        return public_wear_band(self.ftl.chip, public_blocks)

    def _place(
        self, lba: int, data: bytes, host: Location, public_bits=None
    ) -> None:
        """Embed `data` at `host` as version ``_seq`` of `lba` and make it
        the live copy, releasing the previous host."""
        self._embed(
            host,
            SlotHeader(lba, self._seq, len(data)),
            data,
            public_bits=public_bits,
        )
        old = self._slots.get(lba)
        self._slots[lba] = (host, len(data), self._seq)
        self._hosts.add(host)
        if old is not None:
            self._hosts.discard(old[0])

    def _embed(
        self,
        host: Location,
        header: SlotHeader,
        payload: bytes,
        public_bits=None,
    ) -> None:
        if host in self._burned:
            raise HiddenVolumeError(
                f"host {host} already carries an embedding this erase cycle"
            )
        blob = pack_slot(self.key, header, payload)
        # Fixed-size embedding: every slot occupies the full per-page
        # hidden budget, so readers and the mount scan always expect the
        # same coded length (and slot sizes leak nothing).
        blob += b"\x00" * (self.vthi.max_data_bytes_per_page - len(blob))
        block, page = host
        address = self.ftl.chip.geometry.page_address(block, page)
        coded = self.vthi.codec.encode(self.key, address, blob)
        self.vthi.embed_bits(
            block, page, coded, self.key, public_bits=public_bits
        )
        _OBS_SLOT_EMBEDS.inc()
        self._burned.add(host)
        self._embed_time[header.lba] = self.ftl.chip.clock

    # ------------------------------------------------------------------
    # FTL hooks (§5.1 re-embedding)

    def _on_relocation(
        self, lpa: int, old: Location, new: Location, new_bits=None
    ) -> None:
        self._rescue(old, preferred=new, preferred_bits=new_bits)

    def _on_invalidation(self, lpa: int, old: Location) -> None:
        self._rescue(old, preferred=None)

    def _on_erase(self, block: int) -> None:
        self._burned = {loc for loc in self._burned if loc[0] != block}

    def _can_take(self, preferred: Optional[Location]) -> bool:
        """Whether the FTL's rescue target is on the hidden stride, unused
        this erase cycle and, under a wear policy, inside the band."""
        if (
            preferred is None
            or preferred[1] % self.vthi.config.page_stride != 0
            or preferred in self._hosts
            or preferred in self._burned
        ):
            return False
        return self.wear_policy is None or bool(
            self.wear_policy.eligible([preferred], self._wear_band())
        )

    def _rescue(
        self,
        old: Location,
        preferred: Optional[Location],
        preferred_bits=None,
    ) -> None:
        for lba, (host, length, seq) in list(self._slots.items()):
            if host != old:
                continue
            blob = self.vthi.recover(
                old[0], old[1], self.key, self.vthi.max_data_bytes_per_page
            )
            parsed = unpack_slot(self.key, blob)
            if parsed is None:
                raise HiddenVolumeError(
                    f"hidden block {lba} lost during relocation of {old}"
                )
            _, payload = parsed
            if self._can_take(preferred):
                # The FTL hands over the bits it just programmed there,
                # so the re-embedding skips the public-page read.
                target, target_bits = preferred, preferred_bits
            else:
                # `old` still counts as a live host, so it is excluded.
                target, target_bits = self._find_host(), None
            self._seq += 1
            self._place(lba, payload, target, public_bits=target_bits)
            _OBS_RESCUES.inc()
