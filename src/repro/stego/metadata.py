"""Hidden-volume slot metadata.

§9.2 leaves "recovering the hidden volume LBA for every set of pages ...
as future work", suggesting it "may require sacrificing some hidden
capacity".  This module implements that trade: every hidden slot carries a
small self-describing header (hidden LBA, sequence number, payload length,
keyed MAC), so mounting the volume is a key-driven scan — no plaintext
metadata ever touches the device, and a page without a slot is
indistinguishable from one whose header simply fails the MAC.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Tuple

from ..crypto.keys import HidingKey

#: lba:u32, seq:u32, length:u16, mac:4 bytes.
_HEADER_STRUCT = struct.Struct("<IIH4s")
HEADER_BYTES = _HEADER_STRUCT.size


@dataclass(frozen=True)
class SlotHeader:
    """Self-describing header of one hidden slot."""

    lba: int
    seq: int
    length: int

    @property
    def is_tombstone(self) -> bool:
        """A zero-length slot marks deletion of the LBA."""
        return self.length == 0


def _mac(key: HidingKey, lba: int, seq: int, payload: bytes) -> bytes:
    hasher = hashlib.sha256()
    hasher.update(key.secret)
    hasher.update(b"/slot-mac")
    hasher.update(struct.pack("<IIH", lba, seq, len(payload)))
    hasher.update(payload)
    return hasher.digest()[:4]


def pack_slot(key: HidingKey, header: SlotHeader, payload: bytes) -> bytes:
    """Serialise a slot (header + payload) for embedding."""
    if header.length != len(payload):
        raise ValueError(
            f"header length {header.length} != payload length {len(payload)}"
        )
    if not 0 <= header.lba < 2**32:
        raise ValueError(f"lba {header.lba} out of range")
    if not 0 <= header.seq < 2**32:
        raise ValueError(f"seq {header.seq} out of range")
    mac = _mac(key, header.lba, header.seq, payload)
    return (
        _HEADER_STRUCT.pack(header.lba, header.seq, header.length, mac)
        + payload
    )


def unpack_slot(key: HidingKey, blob: bytes) -> Optional[tuple]:
    """Parse and authenticate a slot; None if the MAC rejects it.

    Returns (SlotHeader, payload) on success.  Garbage (a page with no
    embedded slot decodes to pseudo-random bytes) passes the MAC with
    probability 2^-32.
    """
    if len(blob) < HEADER_BYTES:
        return None
    lba, seq, length, mac = _HEADER_STRUCT.unpack_from(blob)
    payload = blob[HEADER_BYTES:HEADER_BYTES + length]
    if len(payload) != length:
        return None
    if _mac(key, lba, seq, payload) != mac:
        return None
    return SlotHeader(lba=lba, seq=seq, length=length), payload


def latest_slots(
    found: Iterable[Tuple[Hashable, SlotHeader]],
) -> Dict[int, Tuple[Hashable, SlotHeader]]:
    """The mount rule over ``(host, header)`` pairs in scan order.

    Per LBA the highest ``seq`` wins (a live slot beats a tombstone of
    equal ``seq``, else the first scanned), and a winning tombstone
    deletes the LBA.  Returns ``lba -> (host, header)`` for live LBAs.
    """
    latest: Dict[int, Tuple[Hashable, SlotHeader]] = {}
    for host, header in found:
        rank = (header.seq, not header.is_tombstone)
        best = latest.get(header.lba)
        if best is None or rank > (best[1].seq, not best[1].is_tombstone):
            latest[header.lba] = (host, header)
    return {lba: e for lba, e in latest.items() if not e[1].is_tombstone}
