"""repro — a reproduction of "Stash in a Flash" (Zuck et al., FAST 2018).

VT-HI hides secret bits inside the analog voltage levels of NAND flash
cells that already store public data.  This package implements VT-HI, the
PT-HI baseline it is compared against, and every substrate the paper's
evaluation depends on: a voltage-level NAND chip simulator, ECC, an SVM
attacker, an FTL, and a steganographic volume.

Quickstart::

    from repro import FlashChip, TEST_MODEL
    from repro.crypto import HidingKey
    from repro.hiding import VtHi

    chip = FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=7)
    vthi = VtHi(chip)
    key = HidingKey.generate()
    vthi.hide(block=0, page=0, public_data=public_bytes,
              hidden_data=b"meet at dawn", key=key)
    assert vthi.recover(block=0, page=0, key=key,
                        n_bytes=12) == b"meet at dawn"
"""

__version__ = "1.0.0"

from .nand import (  # noqa: F401
    BENCH_MODEL,
    TEST_MODEL,
    VENDOR_A,
    VENDOR_B,
    ChipGeometry,
    ChipModel,
    ChipParams,
    FlashChip,
    NandTester,
    bake,
    scaled_model,
)

__all__ = [
    "BENCH_MODEL",
    "TEST_MODEL",
    "VENDOR_A",
    "VENDOR_B",
    "ChipGeometry",
    "ChipModel",
    "ChipParams",
    "FlashChip",
    "NandTester",
    "bake",
    "scaled_model",
    "__version__",
]
