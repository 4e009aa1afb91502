"""Hidden-cell selection (Algorithm 1, line 2).

Cells that will carry hidden bits are chosen pseudo-randomly, keyed by the
HU's secret and the page number, from the page's *non-programmed* public
bits: "we only select non-programmed (i.e., '1') bits from the public data
in a page to store hidden data" (§5.3), because partial programming can
only nudge voltages upward reliably.

The selection map is never persisted; both the encoder and the decoder
recompute it from the key, the page address, and the page's public bits.
The PRNG enumerates *all* cell offsets of the page in keyed order and the
selector takes the first `count` offsets whose public bit is '1'.  This
skip-based walk makes the map locally robust to public read errors: a bit
error on a non-selected cell cannot perturb the map at all, and one on a
selected cell only desynchronises the bits assigned after it in selection
order (which the payload ECC then sees as a correctable burst).  Selecting
directly among the indices of '1' bits — the other natural reading of the
paper's "the 3rd non-programmed bit in a specific flash page" — would let
any single public bit error shift the entire map.  In a deployed system the
decoder additionally uses the ECC-corrected public page (public data always
passes through the SSD's ECC); callers control which view is used via the
explicit `public_bits` argument.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..crypto.keys import HidingKey


class SelectionError(Exception):
    """Raised when a page cannot accommodate the requested hidden bits."""


def _walk_plan(count: int, population: int, n_ones: int) -> Tuple[int, bool]:
    """``(first_draws, dense)`` for a walk selecting `count` cells.

    Expected draws until `count` hits among `n_ones` of `population`
    cells is count*population/n_ones; the first bulk keystream call
    draws that plus slack, so the common case needs exactly one.  A
    walk expected to cover a fifth of the page or more (the fleet's
    1,504-cell pages: ~85%) swaps on a dense list, the cheapest per
    step; any other keeps only the swapped positions in a sparse map,
    as ``index_stream`` does, so the call costs O(draws) rather than
    O(population) (paper-size pages: a few hundred draws of 144,384).
    """
    first = min(
        population, -(-count * population // n_ones) + count // 4 + 64
    )
    return first, 5 * first >= population


def select_cells(
    key: HidingKey,
    page_address: int,
    public_bits: np.ndarray,
    count: int,
) -> np.ndarray:
    """Choose `count` hidden-cell indices among the page's '1' bits.

    Returns cell indices in selection order (the order hidden bits are
    assigned to cells).  Deterministic in (key, page_address, public_bits).
    """
    bits = np.asarray(public_bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("public_bits must be a bit vector")
    n_ones = int((bits == 1).sum())
    if count > n_ones:
        raise SelectionError(
            f"page {page_address} has {n_ones} non-programmed bits; "
            f"cannot select {count} hidden cells"
        )
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    prng = key.selection_prng().for_page(page_address)
    # Flattened ``prng.index_stream`` walk.  The keystream is drawn in
    # bulk (one ``bytes()`` call covers hundreds of draws), the per-draw
    # modulo and rejection test run vectorised, and only the inherently
    # sequential Fisher-Yates swap walk stays in Python.  Byte-for-byte
    # the same stream is consumed in the same order, so the selected
    # cells are bit-identical to the reference walk (see
    # ``tests/hiding/test_selection.py``).
    population = bits.size
    ones = bits.tobytes()
    max_word = np.uint64((1 << 64) - 1)
    chunk, dense = _walk_plan(count, population, n_ones)
    arr = list(range(population)) if dense else []
    swapped: dict = {}
    chosen: list = []
    i = 0
    while i < population:
        m = min(chunk, population - i)
        chunk = max(256, chunk // 2)
        words = np.frombuffer(prng.bytes(8 * m), dtype="<u8")
        while words.size:
            steps = np.arange(words.size, dtype=np.uint64)
            # Word t draws bound population - (i + t): valid only while
            # every earlier word in this pass was accepted (each accepted
            # draw advances the walk by exactly one position).
            bounds = np.uint64(population - i) - steps
            mods = (np.uint64(0) - bounds) % bounds  # 2**64 % bound
            rejected = words > max_word - mods
            valid = int(np.argmax(rejected)) if rejected.any() else words.size
            targets = (
                np.uint64(i) + steps[:valid] + words[:valid] % bounds[:valid]
            ).tolist()
            # One loop per container: a branch per step would cost the
            # dense walk ~15%.
            if dense:
                for j in targets:
                    offset = arr[j]
                    arr[j] = arr[i]
                    i += 1
                    if ones[offset] == 1:
                        chosen.append(offset)
                        if len(chosen) == count:
                            return np.asarray(chosen, dtype=np.int64)
            else:
                for j in targets:
                    offset = swapped.get(j, j)
                    swapped[j] = swapped.get(i, i)
                    i += 1
                    if ones[offset] == 1:
                        chosen.append(offset)
                        if len(chosen) == count:
                            return np.asarray(chosen, dtype=np.int64)
            # A rejected word (probability < population / 2**64 per draw)
            # is dropped and the next one retries the same draw, as in the
            # reference walk; the pass reruns over the rest of the chunk.
            words = words[valid + 1:]
    return np.asarray(chosen, dtype=np.int64)
