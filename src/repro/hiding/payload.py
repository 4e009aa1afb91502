"""Hidden payload framing: encryption and ECC (Algorithm 1, line 4).

The hidden message is whitened with the HU's stream cipher (so embedded bit
values are uniform — §5.3) and protected by shortened BCH codewords sized
to the per-page hidden-cell budget.  The paper's §6.3/§8 parity arithmetic
uses the Shannon-limit estimate (e.g. "13 parity bits" for 0.5% BER); the
codec here is a *concrete* code, so its overhead is necessarily larger.
``repro.perf.model`` reproduces the paper's information-theoretic
arithmetic; this module is what actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..crypto.keys import HidingKey
from ..ecc.bch import EccError, get_code
from .config import HidingConfig

_OBS_ENCODE_PAGES = obs.counter("payload.encode.pages")
_OBS_DECODE_PAGES = obs.counter("payload.decode.pages")
_OBS_DECODE_FAILURES = obs.counter("payload.decode.failures")


class PayloadError(Exception):
    """Raised when a payload does not fit or cannot be recovered."""


@dataclass(frozen=True)
class _WordPlan:
    """Per-codeword capacity allocation for one page's hidden budget."""

    data_capacities: List[int]
    parity_bits: int  # per codeword


class PayloadCodec:
    """Encrypt + BCH-encode hidden payloads into per-page bit vectors."""

    def __init__(self, config: HidingConfig) -> None:
        self.config = config
        if config.ecc_t:
            self._code = get_code(config.ecc_m, config.ecc_t)
            self._plan = self._plan_words()
        else:
            self._code = None
            self._plan = None

    def _plan_words(self) -> _WordPlan:
        budget = self.config.bits_per_page
        n = self._code.n
        parity = self._code.n_parity
        n_words = -(-budget // n)  # ceil
        base = budget // n_words
        remainder = budget % n_words
        capacities = []
        for i in range(n_words):
            word_bits = base + (1 if i < remainder else 0)
            if word_bits <= parity:
                raise PayloadError(
                    f"hidden budget {budget} too small for "
                    f"BCH(m={self.config.ecc_m}, t={self.config.ecc_t}) parity"
                )
            capacities.append(word_bits - parity)
        return _WordPlan(capacities, parity)

    # ------------------------------------------------------------------

    @property
    def max_data_bits(self) -> int:
        """Largest payload (in bits) one page can carry."""
        if self._plan is None:
            return self.config.bits_per_page
        return sum(self._plan.data_capacities)

    @property
    def max_data_bytes(self) -> int:
        return self.max_data_bits // 8

    def coded_length(self, n_bytes: int) -> int:
        """Embedded bit count for a payload of `n_bytes` bytes."""
        return sum(
            used + self._plan.parity_bits if self._plan else used
            for used in self._allocate(n_bytes * 8)
        )

    def _allocate(self, data_bits: int) -> List[int]:
        """Per-word data bit allocation for a payload of `data_bits` bits."""
        if data_bits > self.max_data_bits:
            raise PayloadError(
                f"payload of {data_bits} bits exceeds page capacity "
                f"{self.max_data_bits} bits"
            )
        if data_bits == 0:
            return []
        if self._plan is None:
            return [data_bits]
        allocation = []
        remaining = data_bits
        for capacity in self._plan.data_capacities:
            used = min(remaining, capacity)
            allocation.append(used)
            remaining -= used
            if remaining == 0:
                break
        return allocation

    # ------------------------------------------------------------------

    def encode(self, key: HidingKey, page_address: int, data: bytes) -> np.ndarray:
        """Whiten and encode a payload into hidden bits for one page."""
        return self.encode_pages_keyed([key], [page_address], [data])[0]

    def encode_pages_keyed(
        self,
        keys: Sequence[HidingKey],
        page_addresses: Sequence[int],
        payloads: Sequence[bytes],
    ) -> List[np.ndarray]:
        """Batch :meth:`encode` with one key *per page*.

        Whitening stays per-(key, page address) — a fleet coalescing
        many tenants' writes carries a different key per page — while
        the BCH parity of every page runs in one ``encode_many`` pass.
        """
        if len(payloads) != len(page_addresses):
            raise ValueError(
                f"got {len(page_addresses)} page addresses for "
                f"{len(payloads)} payloads"
            )
        if len(keys) != len(page_addresses):
            raise ValueError(
                f"got {len(keys)} keys for {len(page_addresses)} pages"
            )
        _OBS_ENCODE_PAGES.inc(len(payloads))
        per_page_bits = []
        for key, address, data in zip(keys, page_addresses, payloads):
            encrypted = key.cipher().encrypt(
                data, nonce=b"payload:%d" % address
            )
            bits = np.unpackbits(np.frombuffer(encrypted, dtype=np.uint8))
            if self._code is None and bits.size > self.config.bits_per_page:
                raise PayloadError(
                    f"payload of {bits.size} bits exceeds hidden budget "
                    f"{self.config.bits_per_page}"
                )
            per_page_bits.append(bits)
        if self._code is None:
            return per_page_bits
        chunks = []
        word_counts = []
        for bits in per_page_bits:
            allocation = self._allocate(bits.size)
            cursor = 0
            for used in allocation:
                chunks.append(bits[cursor:cursor + used])
                cursor += used
            word_counts.append(len(allocation))
        words = self._code.encode_many(chunks)
        out = []
        cursor = 0
        for bits, count in zip(per_page_bits, word_counts):
            page_words = words[cursor:cursor + count]
            cursor += count
            out.append(
                np.concatenate(page_words) if page_words else bits[:0]
            )
        return out

    def decode(
        self, key: HidingKey, page_address: int, coded_bits: np.ndarray, n_bytes: int
    ) -> bytes:
        """Recover a payload of known length from read-back hidden bits.

        Raises :class:`PayloadError` when ECC cannot correct the word.
        """
        return self.decode_pages_keyed(
            [key], [page_address], [coded_bits], n_bytes
        )[0]

    def decode_pages_keyed(
        self,
        keys: Sequence[HidingKey],
        page_addresses: Sequence[int],
        coded_pages: Sequence[np.ndarray],
        n_bytes: int,
        on_error: str = "raise",
    ) -> List[Optional[bytes]]:
        """Batch :meth:`decode` with one key *per page*.

        Payloads of the same known length: the ECC of every page
        (whoever it belongs to) corrects in one vectorised
        ``decode_many`` pass, then each page unwhitens under its own key.
        With ``on_error="return"``, a page whose ECC fails yields
        ``None`` instead of raising — the mount scan probes every
        eligible page and expects most to fail.
        """
        if len(coded_pages) != len(page_addresses):
            raise ValueError(
                f"got {len(page_addresses)} page addresses for "
                f"{len(coded_pages)} coded pages"
            )
        if len(keys) != len(page_addresses):
            raise ValueError(
                f"got {len(keys)} keys for {len(page_addresses)} pages"
            )
        expected = self.coded_length(n_bytes)
        allocation = self._allocate(n_bytes * 8)
        pages = []
        for coded_bits in coded_pages:
            coded = np.asarray(coded_bits, dtype=np.uint8)
            if coded.size != expected:
                raise PayloadError(
                    f"expected {expected} coded bits for a {n_bytes}-byte "
                    f"payload, got {coded.size}"
                )
            pages.append(coded)
        if self._code is None:
            page_words = [[coded] for coded in pages]
        else:
            segments = []
            for coded in pages:
                cursor = 0
                words = []
                for used in allocation:
                    word_len = used + self._plan.parity_bits
                    words.append(coded[cursor:cursor + word_len])
                    cursor += word_len
                segments.append(words)
            flat = [word for words in segments for word in words]
            results = self._code.decode_many(flat, on_error="return")
            n_words = len(allocation)
            page_words = []
            for p in range(len(pages)):
                page_words.append(results[p * n_words:(p + 1) * n_words])
        _OBS_DECODE_PAGES.inc(len(pages))
        out: List[Optional[bytes]] = []
        for key, address, words in zip(keys, page_addresses, page_words):
            failure = next(
                (w for w in words if isinstance(w, EccError)), None
            )
            if failure is not None:
                _OBS_DECODE_FAILURES.inc()
                if on_error == "return":
                    out.append(None)
                    continue
                raise PayloadError(
                    f"hidden payload uncorrectable on page "
                    f"{address}: {failure}"
                ) from failure
            data_bits = [
                w if self._code is None else w.data for w in words
            ]
            bits = (
                np.concatenate(data_bits)
                if data_bits
                else np.zeros(0, np.uint8)
            )
            encrypted = np.packbits(bits).tobytes()[:n_bytes]
            out.append(
                key.cipher().decrypt(
                    encrypted, nonce=b"payload:%d" % address
                )
            )
        return out
