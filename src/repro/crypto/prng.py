"""Keyed pseudo-random number generation for hidden-cell selection.

Algorithm 1 of the paper selects hidden-bit locations with "a pseudo-random
number generator (PRNG), such as SHA-256, that produces a set of random
numbers based on a key", combined with the page number so the map is
page-dependent and recomputable at boot without persisting it (§5.3).

:class:`KeyedPrng` is a SHA-256 counter-mode keystream.  It provides the two
primitives the hiding layer needs: raw keystream bytes (for payload
whitening) and exact sampling-without-replacement of cell offsets.
"""

from __future__ import annotations

import hashlib
from typing import List

_DIGEST_BYTES = 32


class KeyedPrng:
    """Deterministic SHA-256 counter-mode keystream.

    The stream for a given (key, context) pair is stable across runs and
    platforms — the property that lets the hiding user recompute hidden-cell
    locations from the secret key alone.
    """

    def __init__(self, key: bytes, context: bytes = b"") -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._key = bytes(key)
        self._context = bytes(context)
        self._counter = 0
        self._buffer = bytearray()
        #: SHA-256 state with the key already absorbed; each block copies
        #: this instead of rehashing the key (same digests, less work).
        self._base = hashlib.sha256(self._key)

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
        buffer = self._buffer
        if len(buffer) < n:
            # Bulk refill: one tight loop instead of per-block calls.
            base = self._base
            context = self._context
            counter = self._counter
            blocks = -(-(n - len(buffer)) // _DIGEST_BYTES)
            for _ in range(blocks):
                hasher = base.copy()
                hasher.update(counter.to_bytes(8, "little"))
                hasher.update(context)
                buffer.extend(hasher.digest())
                counter += 1
            self._counter = counter
        out = bytes(buffer[:n])
        del buffer[:n]
        return out

    def uint(self, bits: int = 64) -> int:
        """The next unsigned integer of the given bit width (multiple of 8)."""
        if bits % 8:
            raise ValueError("bit width must be a multiple of 8")
        return int.from_bytes(self.bytes(bits // 8), "little")

    def below(self, bound: int) -> int:
        """A uniform integer in [0, bound), without modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # Rejection sampling on 64-bit words.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.uint(64)
            if value < limit:
                return value % bound

    def sample_indices(self, population: int, k: int) -> List[int]:
        """Sample `k` distinct indices from [0, population), in draw order.

        Partial Fisher-Yates on a sparse map: exact sampling without
        replacement, O(k) memory, deterministic for a given stream state.
        """
        if k < 0:
            raise ValueError(f"cannot sample {k} items")
        if k > population:
            raise ValueError(
                f"cannot sample {k} distinct items from population of "
                f"{population}"
            )
        return [index for index, _ in zip(self.index_stream(population), range(k))]

    def index_stream(self, population: int):
        """Yield all of [0, population) in keyed pseudo-random order, lazily.

        An incremental Fisher-Yates shuffle on a sparse map: each prefix of
        the stream is an exact sample without replacement, so consumers can
        draw as many indices as they turn out to need (the hiding layer
        skips programmed cells until it has enough non-programmed ones).
        """
        if population < 0:
            raise ValueError(f"population must be >= 0, got {population}")
        swapped = {}
        for i in range(population):
            j = i + self.below(population - i)
            value_j = swapped.get(j, j)
            swapped[j] = swapped.get(i, i)
            yield value_j
