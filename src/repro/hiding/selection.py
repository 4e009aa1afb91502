"""Hidden-cell selection (Algorithm 1, line 2).

Cells that will carry hidden bits are chosen pseudo-randomly, keyed by the
HU's secret and the page number, from the page's *non-programmed* public
bits: "we only select non-programmed (i.e., '1') bits from the public data
in a page to store hidden data" (§5.3), because partial programming can
only nudge voltages upward reliably.

The selection map is never persisted; both the encoder and the decoder
recompute it from the key, the page address, and the page's public bits.
The page's stream puts *all* cell offsets in keyed order (the order of
their first uniform draw, :class:`~repro.crypto.prng.KeyedPrng`) and the
selector takes the first `count` offsets whose public bit is '1', so the
selection is an exact uniform sample without replacement of the '1'
cells.  This skip-based walk makes the map locally robust to public read
errors: a bit error on a cell the walk has not reached cannot perturb the
map at all, and one on a selected cell only desynchronises the bits
assigned after it in selection order (which the payload ECC then sees as
a correctable burst).  Selecting directly among the indices of '1' bits —
the other natural reading of the paper's "the 3rd non-programmed bit in
a specific flash page" — would let any single public bit error shift the
entire map.  In a deployed system the decoder additionally uses the
ECC-corrected public page (public data always passes through the SSD's
ECC); callers control which view is used via the explicit `public_bits`
argument.
"""

from __future__ import annotations

import numpy as np

from ..crypto.keys import HidingKey


class SelectionError(Exception):
    """Raised when a page cannot accommodate the requested hidden bits."""


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
    ones = bits == 1
    n_ones = int(np.count_nonzero(ones))
    if count > n_ones:
        raise SelectionError(
            f"page {page_address} has {n_ones} non-programmed bits; "
            f"cannot select {count} hidden cells"
        )
    prng = key.selection_prng().for_page(page_address)
    return prng.sample_indices(bits.size, count, ones)
