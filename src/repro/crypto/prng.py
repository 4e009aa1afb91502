"""Keyed pseudo-random number generation for hidden-cell selection.

Algorithm 1 of the paper selects hidden-bit locations with "a pseudo-random
number generator (PRNG), such as SHA-256, that produces a set of random
numbers based on a key", combined with the page number so the map is
page-dependent and recomputable at boot without persisting it (§5.3).

:class:`KeyedPrng` is a SHAKE-256 keystream: one extendable-output hash
per (key, context) stream.  It provides the two primitives the hiding
layer needs: raw keystream bytes (for payload whitening) and exact
sampling without replacement in the stream's *keyed order*.

The keyed order of ``[0, population)`` reads the stream as little-endian
32-bit words.  A word ``w`` below ``2**32 - 2**32 % population`` draws
the index ``w % population``; a larger word is rejected, so every draw is
exactly uniform.  The keyed order lists the indices in the order of their
first draw.  Each new index is uniform over the indices not yet drawn, so
every prefix of the order is a uniform sample without replacement, and so
is every prefix of its restriction to a subset of the indices.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

_WORD_BYTES = 4


def _framed(data: bytes) -> bytes:
    """`data` with its length in front, so no two (key, context) pairs
    absorb the same bytes."""
    return len(data).to_bytes(8, "little") + data


def _chunk_draws(population: int, eligible: int, k: int) -> int:
    """Words to draw for `k` more new indices among `eligible` of
    `population`: the expected count plus three standard deviations.

    The j-th new eligible index takes geometric draws with success
    probability p_j = (eligible - j) / population; the sums over j of
    1/p_j and (1 - p_j)/p_j**2 are taken in their integral forms.  A
    chunk then rarely falls short, and a short one costs one more chunk.
    """
    low, high = eligible - k + 0.5, eligible + 0.5
    mean = population * math.log(high / low)
    variance = population * population * (1 / low - 1 / high) - mean
    return int(mean + 3 * math.sqrt(max(variance, 0.0))) + 32


class KeyedPrng:
    """Deterministic SHAKE-256 keystream.

    The stream for a given (key, context) pair is stable across runs and
    platforms — the property that lets the hiding user recompute hidden-cell
    locations from the secret key alone.
    """

    def __init__(self, key: bytes, context: bytes = b"") -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._key = bytes(key)
        self._context = bytes(context)
        self._xof = hashlib.shake_256(
            _framed(self._key) + _framed(self._context)
        )
        #: The stream squeezed so far; ``bytes`` hands out its unread tail.
        self._squeezed = b""
        self._read = 0

    def derive(self, label: bytes) -> "KeyedPrng":
        """An independent stream for a sub-context (e.g. a page number)."""
        return KeyedPrng(self._key, self._context + b"/" + bytes(label))

    def for_page(self, page_address: int) -> "KeyedPrng":
        """The paper's page-dependent stream: key combined with the page
        number (§5.3: "by combining the secret key with the page number")."""
        return self.derive(b"page:%d" % page_address)

    def bytes(self, n: int) -> bytes:
        """The next `n` keystream bytes."""
        if n < 0:
            raise ValueError(f"cannot draw {n} bytes")
        end = self._read + n
        if end > len(self._squeezed):
            # An XOF digest always squeezes from the start: at least
            # double the squeezed length, so a run of small draws costs
            # O(total) hashing.
            self._squeezed = self._xof.digest(
                max(end, 2 * len(self._squeezed))
            )
        out = self._squeezed[self._read:end]
        self._read = end
        return out

    def sample_indices(
        self, population: int, k: int, eligible: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The first `k` indices of [0, population) in keyed order.

        With `eligible` (a boolean mask over the population) the indices
        where it is false are skipped wherever they first appear, so the
        result is an exact uniform sample without replacement of `k`
        eligible indices, in draw order.  The order is evaluated in numpy
        chunks of words; the stream is left at the end of the last chunk,
        which may lie past the last word the sample used.
        """
        if eligible is not None:
            eligible = np.asarray(eligible, dtype=bool)
            if eligible.shape != (population,):
                raise ValueError("eligible must be a mask over the population")
            n_eligible = int(np.count_nonzero(eligible))
        else:
            n_eligible = population
        if k < 0:
            raise ValueError(f"cannot sample {k} items")
        if k > n_eligible:
            raise ValueError(
                f"cannot sample {k} distinct items from {n_eligible} "
                f"eligible of a population of {population}"
            )
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        if population >= 1 << 31:
            raise ValueError(f"population {population} is not below 2**31")
        # The largest accepted word; ``2**32 - 1`` when population
        # divides 2**32, which rejects nothing.
        top = np.uint32((1 << 32) - (1 << 32) % population - 1)
        chosen = np.zeros(0, dtype=np.int64)
        while chosen.size < k:
            n_words = _chunk_draws(population, n_eligible - chosen.size,
                                   k - chosen.size)
            words = np.frombuffer(
                self.bytes(_WORD_BYTES * n_words), dtype="<u4"
            )
            if words.max() > top:  # p < population / 2**32 per word
                words = words[words <= top]
            draws = (words % np.uint32(population)).astype(np.int64)
            if eligible is not None:
                draws = np.compress(eligible.take(draws), draws)
            # First occurrences in draw order: sort (index, position)
            # keys, keep the head of each index's run, and put the heads
            # back in position order.
            keys = np.sort((draws << 32) | np.arange(draws.size))
            runs = keys >> 32
            head = np.ones(draws.size, dtype=bool)
            np.not_equal(runs[1:], runs[:-1], out=head[1:])
            new = draws[np.sort(keys[head] & 0xFFFFFFFF)]
            if chosen.size:
                new = new[~np.isin(new, chosen)]
            chosen = np.concatenate([chosen, new[:k - chosen.size]])
        return chosen
