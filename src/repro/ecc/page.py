"""Public-page ECC pipeline.

Real NAND pages include a spare area and every page of public data passes
through the controller's ECC.  The paper's decoder depends on this: the
hidden-cell selection map is derived from the page's public bits, so the
decoder must see the *corrected* public page, not the raw read (§5.3's
selection among non-programmed bits; public raw BER is ~3e-5).

:class:`PagePipeline` maps user data bytes onto a full page's cells —
multiple interleaved-by-position BCH codewords whose parity consumes the
spare bits — and can correct a raw page read back into the exact bit vector
that was programmed.

Like a real controller, the pipeline *scrambles* user data with an unkeyed,
page-address-seeded pseudo-random sequence before encoding (§5.3 cites
"standard SSD controller data scrambling").  Scrambling is what makes the
paper's assumption hold that half the public bits are non-programmed '1's
regardless of payload content — without it, an all-zeros file would leave
no cells to hide in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .bch import EccError, get_code


@lru_cache(maxsize=1024)
def _scrambler_bytes(page_address: int, n: int) -> bytes:
    """Unkeyed, publicly-known scrambler stream for a page.

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
    return bytes(out[:n])


@dataclass(frozen=True)
class _PageWord:
    """Placement of one codeword within the page bit vector."""

    start: int
    data_bits: int
    coded_bits: int


class PagePipeline:
    """User bytes <-> page bits with BCH protection."""

    def __init__(
        self,
        cells_per_page: int,
        ecc_m: int = 14,
        ecc_t: int = 40,
    ) -> None:
        self.cells_per_page = cells_per_page
        self.code = get_code(ecc_m, ecc_t)
        # The fewest codewords of at most n bits that cover the page.
        n_words = max(1, -(-cells_per_page // self.code.n))
        if cells_per_page // n_words <= self.code.n_parity:
            raise ValueError(
                f"page words of {cells_per_page // n_words} bits leave no "
                f"room for {self.code.n_parity} parity bits"
            )
        self.words: List[_PageWord] = []
        start = 0
        base = cells_per_page // n_words
        remainder = cells_per_page % n_words
        for i in range(n_words):
            coded = base + (1 if i < remainder else 0)
            self.words.append(
                _PageWord(
                    start=start,
                    data_bits=coded - self.code.n_parity,
                    coded_bits=coded,
                )
            )
            start += coded
        total_data_bits = sum(w.data_bits for w in self.words)
        #: User payload bytes per page (the rest of the page is parity —
        #: the "spare area" of a physical page).
        self.data_bytes = total_data_bits // 8
        self._slack_bits = total_data_bits - self.data_bytes * 8

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
        chunks: List[np.ndarray] = []
        for data, page_address in zip(payloads, page_addresses):
            if len(data) > self.data_bytes:
                raise ValueError(
                    f"payload of {len(data)} bytes exceeds page data "
                    f"capacity {self.data_bytes} bytes"
                )
            padded = data + b"\x00" * (self.data_bytes - len(data))
            scrambler = _scrambler_bytes(page_address, self.data_bytes)
            scrambled = bytes(a ^ b for a, b in zip(padded, scrambler))
            bits = np.unpackbits(np.frombuffer(scrambled, dtype=np.uint8))
            bits = np.concatenate(
                [bits, np.zeros(self._slack_bits, dtype=np.uint8)]
            )
            cursor = 0
            for word in self.words:
                chunks.append(bits[cursor:cursor + word.data_bits])
                cursor += word.data_bits
        coded_words = self.code.encode_many(chunks)
        out: List[np.ndarray] = []
        n_words = len(self.words)
        for index in range(len(payloads)):
            page = np.empty(self.cells_per_page, dtype=np.uint8)
            page_words = coded_words[index * n_words:(index + 1) * n_words]
            for word, coded in zip(self.words, page_words):
                page[word.start:word.start + word.coded_bits] = coded
            out.append(page)
        return out

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
        corrected_pages = self._correct_words_many(pages_bits)
        out: List[Tuple[bytes, int]] = []
        for (corrected_bits, n_corrected), address in zip(
            corrected_pages, page_addresses
        ):
            data_bits = [
                corrected_bits[word.start:word.start + word.data_bits]
                for word in self.words
            ]
            bits = np.concatenate(data_bits)
            if self._slack_bits:
                bits = bits[: -self._slack_bits]
            scrambled = np.packbits(bits).tobytes()
            scrambler = _scrambler_bytes(address, self.data_bytes)
            out.append(
                (bytes(a ^ b for a, b in zip(scrambled, scrambler)), n_corrected)
            )
        return out

    def correct(self, page_bits: np.ndarray) -> np.ndarray:
        """Return the exact programmed page bit vector from a raw read.

        This is the "ECC-corrected public view" the hidden-data decoder
        derives its selection map from.
        """
        corrected, _ = self._correct_words(page_bits)
        return corrected

    def correct_pages(
        self, pages_bits: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Batch :meth:`correct` for several raw page reads."""
        return [
            corrected for corrected, _ in self._correct_words_many(pages_bits)
        ]

    def _correct_words(self, page_bits: np.ndarray) -> Tuple[np.ndarray, int]:
        return self._correct_words_many([page_bits])[0]

    def _correct_words_many(
        self, pages_bits: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, int]]:
        pages = []
        for bits in pages_bits:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.shape != (self.cells_per_page,):
                raise ValueError(
                    f"page bits must have shape ({self.cells_per_page},), "
                    f"got {bits.shape}"
                )
            pages.append(bits)
        segments = [
            bits[word.start:word.start + word.coded_bits]
            for bits in pages
            for word in self.words
        ]
        results = self.code.decode_many(segments, on_error="return")
        n_words = len(self.words)
        out: List[Tuple[np.ndarray, int]] = []
        for p, bits in enumerate(pages):
            corrected = bits.copy()
            total = 0
            for w, word in enumerate(self.words):
                result = results[p * n_words + w]
                if isinstance(result, EccError):
                    prefix = f"page {p} of batch: " if len(pages) > 1 else ""
                    raise EccError(
                        f"{prefix}public page word at bit {word.start} "
                        f"uncorrectable: {result}"
                    ) from result
                corrected[word.start:word.start + word.coded_bits] = (
                    result.codeword
                )
                total += result.corrected_errors
            out.append((corrected, total))
        return out
