"""Public-page ECC pipeline.

Real NAND pages include a spare area and every page of public data passes
through the controller's ECC.  The paper's decoder depends on this: the
hidden-cell selection map is derived from the page's public bits, so the
decoder must see the *corrected* public page, not the raw read (§5.3's
selection among non-programmed bits; public raw BER is ~3e-5).

:class:`PagePipeline` maps user data bytes onto a full page's cells —
the BCH codewords of a :class:`~repro.ecc.words.WordLayout` over the page,
whose parity consumes the spare bits — and can correct a raw page read
back into the exact bit vector that was programmed.

Like a real controller, the pipeline *scrambles* user data with an unkeyed,
page-address-seeded pseudo-random sequence before encoding (§5.3 cites
"standard SSD controller data scrambling").  Scrambling is what makes the
paper's assumption hold that half the public bits are non-programmed '1's
regardless of payload content — without it, an all-zeros file would leave
no cells to hide in.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .bch import DecodeResult, EccError, get_code
from .words import WordLayout


@lru_cache(maxsize=1024)
def _scrambler(page_address: int, n: int) -> np.ndarray:
    """Unkeyed, publicly-known scrambler stream for a page, as a
    read-only byte array.

    Cached: the stream is a pure function of (address, length), and hot
    paths (FTL writes plus the decode of every read) would otherwise pay
    the SHA-256 expansion twice per page touch.
    """
    out = bytearray()
    counter = 0
    while len(out) < n:
        hasher = hashlib.sha256()
        hasher.update(b"page-scrambler")
        hasher.update(int(page_address).to_bytes(8, "little"))
        hasher.update(counter.to_bytes(8, "little"))
        out.extend(hasher.digest())
        counter += 1
    return np.frombuffer(bytes(out[:n]), dtype=np.uint8)


class PagePipeline:
    """User bytes <-> page bits with BCH protection."""

    def __init__(
        self,
        cells_per_page: int,
        ecc_m: int = 14,
        ecc_t: int = 40,
    ) -> None:
        self.cells_per_page = cells_per_page
        #: The codewords that cover the page.
        self.layout = WordLayout(get_code(ecc_m, ecc_t), cells_per_page)
        smallest, parity = self.layout.sizes[-1], self.layout.code.n_parity
        if smallest <= parity:
            raise ValueError(
                f"page words of {smallest} bits leave no "
                f"room for {parity} parity bits"
            )
        #: User payload bytes per page (the rest of the page is parity —
        #: the "spare area" of a physical page).
        self.data_bytes = self.layout.data_bits // 8
        self._slack_bits = self.layout.data_bits - self.data_bytes * 8

    def encode(self, data: bytes, page_address: int = 0) -> np.ndarray:
        """Map user bytes to the page bit vector that gets programmed.

        Shorter payloads are zero-padded to the page's data capacity; the
        whole data area is then scrambled with the page-address-seeded
        stream, so the stored bit pattern is uniform whatever the payload.
        """
        return self.encode_pages([data], [page_address])[0]

    def encode_pages(
        self,
        payloads: Sequence[bytes],
        page_addresses: Sequence[int],
    ) -> List[np.ndarray]:
        """Batch :meth:`encode`: several pages' bit vectors, with every
        codeword of every page going through one ``encode_many`` pass.
        """
        if len(payloads) != len(page_addresses):
            raise ValueError(
                f"got {len(page_addresses)} page addresses for "
                f"{len(payloads)} payloads"
            )
        pages: List[np.ndarray] = []
        for data, page_address in zip(payloads, page_addresses):
            if len(data) > self.data_bytes:
                raise ValueError(
                    f"payload of {len(data)} bytes exceeds page data "
                    f"capacity {self.data_bytes} bytes"
                )
            padded = data + b"\x00" * (self.data_bytes - len(data))
            scrambled = np.frombuffer(padded, dtype=np.uint8) ^ _scrambler(
                page_address, self.data_bytes
            )
            bits = np.unpackbits(scrambled)
            pages.append(np.concatenate(
                [bits, np.zeros(self._slack_bits, dtype=np.uint8)]
            ))
        return self.layout.encode(pages)

    def decode(self, page_bits: np.ndarray, page_address: int = 0) -> Tuple[bytes, int]:
        """Recover user bytes from a raw page read.

        Returns (data, total corrected bit errors).  Raises
        :class:`~repro.ecc.bch.EccError` if any codeword is uncorrectable.
        """
        return self.decode_pages([page_bits], [page_address])[0]

    def decode_pages(
        self,
        pages_bits: Sequence[np.ndarray],
        page_addresses: Sequence[int],
    ) -> List[Tuple[bytes, int]]:
        """Batch :meth:`decode`: every codeword of every page in one pass.

        `pages_bits` is a sequence of raw page reads (or a 2-D array, one
        row per page); returns one ``(data, corrected_errors)`` pair per
        page, identical to decoding the pages one at a time.  This is the
        FTL's GC relocation path: a victim block's valid pages decode in
        a single vectorised ECC kernel instead of page by page.
        """
        if len(pages_bits) != len(page_addresses):
            raise ValueError(
                f"got {len(page_addresses)} page addresses for "
                f"{len(pages_bits)} pages"
            )
        out: List[Tuple[bytes, int]] = []
        for result, address in zip(self._corrected(pages_bits), page_addresses):
            scrambled = np.packbits(result.data[: self.data_bytes * 8])
            out.append((
                (scrambled ^ _scrambler(address, self.data_bytes)).tobytes(),
                result.corrected_errors,
            ))
        return out

    def correct(self, page_bits: np.ndarray) -> np.ndarray:
        """Return the exact programmed page bit vector from a raw read.

        This is the "ECC-corrected public view" the hidden-data decoder
        derives its selection map from.
        """
        return self.correct_pages([page_bits])[0]

    def correct_pages(
        self, pages_bits: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Batch :meth:`correct` for several raw page reads."""
        return [result.codeword for result in self._corrected(pages_bits)]

    def _corrected(
        self, pages_bits: Sequence[np.ndarray]
    ) -> List[DecodeResult]:
        """Every page's words decoded in one pass; raises
        :class:`EccError` for the first page with an uncorrectable word."""
        pages = []
        for bits in pages_bits:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.shape != (self.cells_per_page,):
                raise ValueError(
                    f"page bits must have shape ({self.cells_per_page},), "
                    f"got {bits.shape}"
                )
            pages.append(bits)
        results = self.layout.decode(pages, self.layout.capacities)
        for p, result in enumerate(results):
            if isinstance(result, EccError):
                prefix = f"page {p} of batch: " if len(pages) > 1 else ""
                raise EccError(
                    f"{prefix}public page word at bit {result.word_start} "
                    f"uncorrectable: {result}"
                ) from result
        return results
