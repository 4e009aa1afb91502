"""RAID-like parity protection for hidden data across pages (§8).

"To provide additional protection against data loss (e.g., due to bad
blocks) data can be further encoded using RAID-like schemes, similarly to
normal data."

A :class:`ProtectedGroup` stripes a hidden payload over N host pages plus
one XOR parity page.  If any single host is lost — its block erased before
the HU could re-embed, or its payload uncorrectable — the stripe rebuilds
the missing member from the survivors.  This is the §5.1 alternative to
eager re-embedding ("or apply redundancy ... to provide some protection
for hidden data").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..crypto.keys import HidingKey
from ..ecc.parity import ParityGroup
from .payload import PayloadError
from .vthi import Location, VtHi


@dataclass(frozen=True)
class StripeLayout:
    """Where a protected payload lives: data hosts plus the parity host."""

    data_hosts: List[Location]
    parity_host: Location
    chunk_bytes: int


class ProtectedGroup:
    """Write/read hidden payloads with single-loss tolerance."""

    def __init__(self, vthi: VtHi, key: HidingKey) -> None:
        self.vthi = vthi
        self.key = key

    @property
    def chunk_bytes(self) -> int:
        return self.vthi.max_data_bytes_per_page

    def capacity_bytes(self, n_data_hosts: int) -> int:
        """Payload bytes a stripe over `n_data_hosts` hosts carries."""
        if n_data_hosts < 1:
            raise ValueError("need at least one data host")
        return n_data_hosts * self.chunk_bytes

    def write(
        self,
        payload: bytes,
        data_hosts: Sequence[Location],
        parity_host: Location,
        public_pages: Sequence[np.ndarray] = None,
    ) -> StripeLayout:
        """Stripe `payload` over the hosts and embed chunks + parity.

        Every host page must already hold public data.  `public_pages`
        optionally supplies the public bits per host (data hosts first,
        parity last) to skip re-reads.
        """
        hosts = list(data_hosts)
        if len(set(hosts + [parity_host])) != len(hosts) + 1:
            raise ValueError("stripe hosts must be distinct")
        capacity = self.capacity_bytes(len(hosts))
        if len(payload) > capacity:
            raise PayloadError(
                f"payload of {len(payload)} bytes exceeds stripe capacity "
                f"{capacity}"
            )
        padded = payload + b"\x00" * (capacity - len(payload))
        chunk = self.chunk_bytes
        chunks = [
            np.frombuffer(padded[i * chunk:(i + 1) * chunk], dtype=np.uint8)
            for i in range(len(hosts))
        ]
        parity = ParityGroup(
            [np.unpackbits(c) for c in chunks]
        ).parity
        parity_bytes = np.packbits(parity).tobytes()

        # One batched payload encode, then one embed over every host.
        all_hosts = hosts + [parity_host]
        payloads = [data.tobytes() for data in chunks] + [parity_bytes]
        addresses = [
            self.vthi.chip.geometry.page_address(*host) for host in all_hosts
        ]
        coded = self.vthi.codec.encode_pages_keyed(
            [self.key] * len(all_hosts), addresses, payloads
        )
        self.vthi.embed_locations(
            all_hosts, coded, self.key, public_bits=public_pages
        )
        return StripeLayout(hosts, parity_host, chunk)

    def read(
        self,
        layout: StripeLayout,
        n_bytes: int,
        public_pages: Sequence[Optional[np.ndarray]] = None,
    ) -> bytes:
        """Read a stripe back, rebuilding one lost chunk if needed.

        `public_pages` optionally supplies the public bits per host, in
        :meth:`write`'s order; the parity host is read only when a data
        chunk is lost.
        """
        n_data = len(layout.data_hosts)
        publics = public_pages or [None] * (n_data + 1)
        members = self._recover_chunks(
            layout.data_hosts, layout.chunk_bytes, publics[:n_data]
        )
        if any(member is None for member in members):
            (parity,) = self._recover_chunks(
                [layout.parity_host], layout.chunk_bytes, publics[n_data:]
            )
            if parity is None:
                raise PayloadError(
                    "stripe unrecoverable: a data chunk and the parity "
                    "chunk are both lost"
                )
            members = ParityGroup.reconstruct(members, parity)
        data = b"".join(np.packbits(m).tobytes() for m in members)
        return data[:n_bytes]

    # ------------------------------------------------------------------

    def _recover_chunks(
        self,
        hosts: Sequence[Location],
        chunk_bytes: int,
        publics: Sequence[Optional[np.ndarray]],
    ) -> List[Optional[np.ndarray]]:
        """Each host's chunk bits via one ``recover_locations`` call;
        ``None`` where the page holds no public data or is uncorrectable."""
        live = [
            i for i, host in enumerate(hosts)
            if self.vthi.chip.is_page_programmed(*host)
        ]
        recovered = self.vthi.recover_locations(
            [hosts[i] for i in live],
            self.key,
            chunk_bytes,
            public_bits=[publics[i] for i in live],
            on_error="return",
        )
        chunks: List[Optional[np.ndarray]] = [None] * len(hosts)
        for i, data in zip(live, recovered):
            if data is not None:
                chunks[i] = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        return chunks
