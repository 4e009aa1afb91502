"""VT-HI configuration.

§6.3 determines the operating point empirically: threshold voltage level
34, ten PP steps, 256 hidden bits per page (conservatively below the 512
upper bound), and one physical page of spacing between hidden pages.  §8
additionally evaluates an *enhanced* configuration that emulates
in-controller programming support: a single, finer PP step, threshold
level 15, and 10x the hidden bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class HidingConfig:
    """Operating parameters of VT-HI (the paper's (V_th, m, bits, interval)).

    The configuration metadata is small and, per §9.2, can be carried with
    the hidden key; :class:`~repro.crypto.keys.HidingKey` plus a
    ``HidingConfig`` is everything needed to recover hidden data.
    """

    #: Hiding threshold voltage V_th (normalised units).  Hidden '1' cells
    #: stay below it; hidden '0' cells are charged above it.
    threshold: float = 34.0
    #: Maximum partial-programming steps m per page (Algorithm 1's loop).
    pp_steps: int = 10
    #: Hidden cells selected per page (data + parity bits).
    bits_per_page: int = 256
    #: Empty physical pages between consecutive hidden pages (§6.3: one
    #: page interval keeps program interference on public data acceptable).
    page_interval: int = 1
    #: PP pulse length as a fraction of the standard 600 us abort.  The
    #: default abort is early enough that even a maximal pulse cannot push
    #: a cell beyond the natural erased envelope (~70): stealth bounds the
    #: charge per step, steps buy convergence.
    pp_fraction: float = 0.6
    #: PP pulse precision; < 1.0 models in-controller fine programming
    #: (§6.2: vendors "could likely program hidden data in fewer steps").
    pp_precision: float = 1.0
    #: Extra probe margin above the threshold the encoder programs to,
    #: covering probe quantisation and short-term drift.
    guard: float = 2.0
    #: BCH field degree for the hidden payload's ECC.
    ecc_m: int = 9
    #: BCH correction capability per hidden payload codeword; 0 disables
    #: ECC (raw embedding).
    ecc_t: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 127:
            raise ValueError(
                f"threshold must lie inside the public '1' voltage range "
                f"(0, 127), got {self.threshold}"
            )
        if self.pp_steps < 1:
            raise ValueError(f"pp_steps must be >= 1, got {self.pp_steps}")
        if self.bits_per_page < 1:
            raise ValueError(
                f"bits_per_page must be >= 1, got {self.bits_per_page}"
            )
        if self.page_interval < 0:
            raise ValueError(
                f"page_interval must be >= 0, got {self.page_interval}"
            )
        if self.ecc_t < 0:
            raise ValueError(f"ecc_t must be >= 0, got {self.ecc_t}")
        if self.ecc_t and self.parity_bits >= self.bits_per_page:
            raise ValueError(
                f"ECC parity ({self.parity_bits} bits) consumes the whole "
                f"hidden budget ({self.bits_per_page} bits)"
            )

    @property
    def parity_bits(self) -> int:
        """The m·t parity bits of one BCH word, the floor the hidden
        budget must clear.  A page's payload capacity is
        :attr:`~repro.hiding.payload.PayloadCodec.max_data_bits`, which
        charges every word its own parity."""
        return self.ecc_m * self.ecc_t if self.ecc_t else 0

    @property
    def page_stride(self) -> int:
        """Distance between consecutive hidden pages."""
        return self.page_interval + 1

    def hidden_pages(self, pages_per_block: int) -> range:
        """The pages of a block that carry hidden data."""
        return range(0, pages_per_block, self.page_stride)

    def replace(self, **kwargs) -> "HidingConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **kwargs)


#: The paper's standard configuration (§6.3, used for Figs. 8-11):
#: threshold 34, ten PP steps, 256 bits/page, one page interval.
STANDARD_CONFIG = HidingConfig()

#: The §8 "Improved Capacity" configuration: one finer PP step, threshold
#: 15, 10x the hidden bits (2560/page).  The paper sized parity at the
#: Shannon limit of its ~2% raw BER (14%); the concrete BCH here must also
#: absorb page-level correlated variation in the natural error rate, so it
#: spends a much larger fraction of the budget on parity.
ENHANCED_CONFIG = HidingConfig(
    threshold=15.0,
    pp_steps=1,
    bits_per_page=2560,
    page_interval=1,
    pp_fraction=1.3,
    pp_precision=0.3,
    guard=1.0,
    ecc_m=11,
    ecc_t=100,
)
