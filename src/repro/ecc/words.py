"""One BCH word layout for a bit budget, shared by the public page
pipeline (:mod:`repro.ecc.page`) and the hidden payload codec
(:mod:`repro.hiding.payload`): the fewest words of at most ``n`` bits,
sizes differing by at most one bit, longer words first, filled in order.
:class:`WordLayout` is the only code that splits bits into words and
joins them back.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .bch import BchCode, DecodeResult, EccError


class WordLayout:
    """A bit budget split into shortened words of one BCH code.  Each
    codec raises its own error when ``sizes[-1] <= code.n_parity``."""

    def __init__(self, code: BchCode, budget: int) -> None:
        n_words = max(1, -(-budget // code.n))
        base, longer = divmod(budget, n_words)
        self.code = code
        #: Coded bits per word, longer words first; they sum to the budget.
        self.sizes = [base + 1] * longer + [base] * (n_words - longer)
        #: Data bits per word: its size less the code's parity.
        self.capacities = [size - code.n_parity for size in self.sizes]
        #: Data bits when every word is full.
        self.data_bits = sum(self.capacities)

    def allocate(self, data_bits: int) -> List[int]:
        """Data bits per word for a payload of `data_bits` bits: the words
        fill in order, and words the payload does not reach are left out
        (an empty payload has no words)."""
        if data_bits > self.data_bits:
            raise ValueError(
                f"{data_bits} data bits exceed the layout's {self.data_bits}"
            )
        allocation = []
        for capacity in self.capacities:
            if data_bits <= 0:
                break
            used = min(data_bits, capacity)
            allocation.append(used)
            data_bits -= used
        return allocation

    def coded_bits(self, data_bits: int) -> int:
        """Coded length of a `data_bits`-bit payload: its data plus one
        parity per word it fills."""
        return data_bits + self.code.n_parity * len(self.allocate(data_bits))

    def encode(self, pages: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Coded bits for each page's data bits, split by
        :meth:`allocate`; every word of every page goes through one
        ``encode_many`` pass."""
        chunks: List[np.ndarray] = []
        counts: List[int] = []
        for bits in pages:
            allocation = self.allocate(bits.size)
            start = 0
            for used in allocation:
                chunks.append(bits[start:start + used])
                start += used
            counts.append(len(allocation))
        words = self.code.encode_many(chunks)
        out = []
        start = 0
        for count in counts:
            out.append(_join(words[start:start + count]))
            start += count
        return out

    def decode(
        self, pages: Sequence[np.ndarray], allocation: Sequence[int]
    ) -> List[Union[DecodeResult, EccError]]:
        """Correct pages coded under one `allocation`; every word of
        every page goes through one ``decode_many(on_error="return")``
        pass.

        Each page comes back as one :class:`DecodeResult` over its words
        (data bits and corrected words joined, corrected errors summed;
        a one-word page's is its word's), or as its first failing word's
        :class:`EccError`, whose ``word_start`` is the bit that word
        starts at.
        """
        bounds = []
        start = 0
        for used in allocation:
            end = start + used + self.code.n_parity
            bounds.append((start, end))
            start = end
        results = self.code.decode_many(
            [bits[a:b] for bits in pages for a, b in bounds],
            on_error="return",
        )
        n_words = len(bounds)
        out: List[Union[DecodeResult, EccError]] = []
        for p in range(len(pages)):
            words = results[p * n_words:(p + 1) * n_words]
            for (start, _), word in zip(bounds, words):
                if isinstance(word, EccError):
                    word.word_start = start
                    out.append(word)
                    break
            else:
                out.append(words[0] if n_words == 1 else DecodeResult(
                    _join([word.data for word in words]),
                    sum(word.corrected_errors for word in words),
                    _join([word.codeword for word in words]),
                ))
        return out


def _join(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The words end to end; a lone word comes back as it is (the batch
    kernels return fresh arrays, so it aliases no caller's input)."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)
