"""Chip geometry: how a NAND package is organised into blocks, pages, cells.

The paper's primary device (§6.1) is an 8 GB 1x-nm planar MLC package with
2048 blocks of 128 lower + 128 upper pages, 18048-byte pages.  VT-HI operates
on the device in its SLC view (one public bit per cell), so the simulator
models a page as ``page_bytes * 8`` cells, each holding one public bit plus
analog voltage state.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .errors import AddressError


def check_integer(name: str, value) -> None:
    """Reject an address number that is not a Python or numpy integer.

    A float or bool is rejected, not truncated, so it can never address
    a block or page it does not name.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise AddressError(f"{name} number must be an integer, got {value!r}")


@dataclass(frozen=True)
class ChipGeometry:
    """Static layout of a NAND flash package.

    Attributes:
        n_blocks: number of erase blocks in the package.
        pages_per_block: logical pages per block (lower + upper pages).
        page_bytes: user-visible bytes per page.
    """

    n_blocks: int
    pages_per_block: int
    page_bytes: int

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        if self.pages_per_block <= 0:
            raise ValueError(
                f"pages_per_block must be positive, got {self.pages_per_block}"
            )
        if self.page_bytes <= 0:
            raise ValueError(f"page_bytes must be positive, got {self.page_bytes}")

    @property
    def cells_per_page(self) -> int:
        """Cells per page in SLC view: one cell per public bit."""
        return self.page_bytes * 8

    @property
    def cells_per_block(self) -> int:
        return self.cells_per_page * self.pages_per_block

    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.block_bytes * self.n_blocks

    @property
    def total_pages(self) -> int:
        return self.n_blocks * self.pages_per_block

    def check_block(self, block: int) -> None:
        """Reject a block number that is not an in-range integer."""
        if type(block) is not int:
            check_integer("block", block)
        if not 0 <= block < self.n_blocks:
            raise AddressError(
                f"block {block} out of range [0, {self.n_blocks})"
            )

    def check_page(self, block: int, page: int) -> None:
        """Reject a location that is not two in-range integers; both
        types are checked before either range, as the wire client
        checks types and leaves ranges to the served chip."""
        if type(block) is not int or type(page) is not int:
            check_integer("block", block)
            check_integer("page", page)
        self.check_block(block)
        if not 0 <= page < self.pages_per_block:
            raise AddressError(
                f"page {page} out of range [0, {self.pages_per_block}) "
                f"in block {block}"
            )

    def page_address(self, block: int, page: int) -> int:
        """Flat page index across the whole chip."""
        self.check_page(block, page)
        return block * self.pages_per_block + page

    def split_page_address(self, address: int) -> tuple:
        """Inverse of :meth:`page_address`."""
        if not 0 <= address < self.total_pages:
            raise AddressError(
                f"page address {address} out of range [0, {self.total_pages})"
            )
        return divmod(address, self.pages_per_block)
