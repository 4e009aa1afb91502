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

from typing import List, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..crypto.keys import HidingKey
from ..ecc.bch import DecodeResult, EccError, check_on_error, get_code
from ..ecc.words import WordLayout
from .config import HidingConfig

_OBS_ENCODE_PAGES = obs.counter("payload.encode.pages")
_OBS_DECODE_PAGES = obs.counter("payload.decode.pages")
_OBS_DECODE_FAILURES = obs.counter("payload.decode.failures")


class PayloadError(Exception):
    """Raised when a payload does not fit or cannot be recovered."""


class PayloadCodec:
    """Encrypt + BCH-encode hidden payloads into per-page bit vectors."""

    def __init__(self, config: HidingConfig) -> None:
        self.config = config
        #: The BCH words of the hidden budget; None embeds raw bits.
        self._layout: Optional[WordLayout] = None
        if config.ecc_t:
            self._layout = WordLayout(
                get_code(config.ecc_m, config.ecc_t), config.bits_per_page
            )
            if self._layout.sizes[-1] <= self._layout.code.n_parity:
                raise PayloadError(
                    f"hidden budget {config.bits_per_page} too small for "
                    f"BCH(m={config.ecc_m}, t={config.ecc_t}) parity"
                )

    # ------------------------------------------------------------------

    @property
    def max_data_bits(self) -> int:
        """Largest payload (in bits) one page can carry."""
        if self._layout is None:
            return self.config.bits_per_page
        return self._layout.data_bits

    @property
    def max_data_bytes(self) -> int:
        return self.max_data_bits // 8

    def coded_length(self, n_bytes: int) -> int:
        """Embedded bit count for a payload of `n_bytes` bytes."""
        self._check_fits(n_bytes * 8)
        if self._layout is None:
            return n_bytes * 8
        return self._layout.coded_bits(n_bytes * 8)

    def _check_fits(self, data_bits: int) -> None:
        if data_bits > self.max_data_bits:
            raise PayloadError(
                f"payload of {data_bits} bits exceeds page capacity "
                f"{self.max_data_bits} bits"
            )

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
        pages = []
        for key, address, data in zip(keys, page_addresses, payloads):
            encrypted = key.cipher().encrypt(
                data, nonce=b"payload:%d" % address
            )
            bits = np.unpackbits(np.frombuffer(encrypted, dtype=np.uint8))
            if self._layout is None and bits.size > self.config.bits_per_page:
                raise PayloadError(
                    f"payload of {bits.size} bits exceeds hidden budget "
                    f"{self.config.bits_per_page}"
                )
            self._check_fits(bits.size)
            pages.append(bits)
        if self._layout is None:
            return pages
        return self._layout.encode(pages)

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
        check_on_error(on_error)
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
        pages = []
        for coded_bits in coded_pages:
            coded = np.asarray(coded_bits, dtype=np.uint8)
            if coded.size != expected:
                raise PayloadError(
                    f"expected {expected} coded bits for a {n_bytes}-byte "
                    f"payload, got {coded.size}"
                )
            pages.append(coded)
        results: Sequence[Union[np.ndarray, DecodeResult, EccError]] = (
            pages if self._layout is None
            else self._layout.decode(pages, self._layout.allocate(n_bytes * 8))
        )
        _OBS_DECODE_PAGES.inc(len(pages))
        out: List[Optional[bytes]] = []
        for key, address, result in zip(keys, page_addresses, results):
            if isinstance(result, EccError):
                _OBS_DECODE_FAILURES.inc()
                if on_error == "return":
                    out.append(None)
                    continue
                raise PayloadError(
                    f"hidden payload uncorrectable on page "
                    f"{address}: {result}"
                ) from result
            bits = result.data if isinstance(result, DecodeResult) else result
            encrypted = np.packbits(bits).tobytes()[:n_bytes]
            out.append(
                key.cipher().decrypt(
                    encrypted, nonce=b"payload:%d" % address
                )
            )
        return out
