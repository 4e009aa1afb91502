#!/usr/bin/env python3
"""Authentication & provenance watermarking with VT-HI (§9.1).

"VT-HI could be incorporated into these systems to embed metadata in the
physical pages storing this data; only a trusted application can rewrite a
file and embed hidden metadata in the device.  For example, flash chip
steganography enables counterfeit detection by watermarking original
parts."

Scenario: a manufacturer signs every firmware page it ships with a hidden
per-device watermark.  A verifier with the vendor key can check a chip's
provenance; a counterfeiter cloning the *digital* content cannot clone the
watermark (it lives in analog voltages, and without the key they cannot
even locate it — §1: "copying hidden data without knowledge of the
relevant secret key is impossible").

Run:  python examples/watermark_provenance.py
"""

import hashlib

import numpy as np

from repro import FlashChip, TEST_MODEL
from repro.crypto import HidingKey
from repro.hiding import STANDARD_CONFIG, VtHi
from repro.rng import substream

CONFIG = STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18)


def watermark_for(device_serial: str, page_address: int) -> bytes:
    """The manufacturer's per-device, per-page watermark payload."""
    digest = hashlib.sha256(
        f"acme-fw-v1/{device_serial}/{page_address}".encode()
    ).digest()
    return digest[:16]


def provision(chip: FlashChip, serial: str, vendor_key: HidingKey,
              n_pages: int) -> None:
    """Factory step: write firmware pages and embed watermarks.

    One batched :meth:`VtHi.hide_locations` call: every page's payload
    ECC encodes in one vectorised pass and the embed loop
    step-synchronises across pages.
    """
    vthi = VtHi(chip, CONFIG)
    rng = substream(99, "firmware-image")
    pages = list(range(n_pages))
    firmware_pages = [
        (rng.random(chip.geometry.cells_per_page) < 0.5).astype(np.uint8)
        for _ in pages
    ]
    watermarks = [
        watermark_for(serial, chip.geometry.page_address(0, page))
        for page in pages
    ]
    vthi.hide_locations(
        [(0, page) for page in pages], firmware_pages, watermarks, vendor_key
    )


def verify(chip: FlashChip, serial: str, vendor_key: HidingKey,
           n_pages: int) -> int:
    """Field step: count pages whose watermark authenticates.

    One batched :meth:`VtHi.recover_locations` call — failed pages come back
    as ``None`` instead of raising, and all pages' ECC decodes share one
    vectorised pass.
    """
    vthi = VtHi(chip, CONFIG)
    pages = list(range(n_pages))
    found = vthi.recover_locations(
        [(0, page) for page in pages], vendor_key, 16, on_error="return"
    )
    return sum(
        1
        for page, payload in zip(pages, found)
        if payload is not None
        and payload == watermark_for(
            serial, chip.geometry.page_address(0, page)
        )
    )


def main() -> None:
    vendor_key = HidingKey.generate(b"acme-vendor-root-key")
    n_pages = 6

    genuine = FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=501)
    provision(genuine, "SN-0042", vendor_key, n_pages)
    print("genuine device provisioned with hidden watermarks")
    print(f"  verification: {verify(genuine, 'SN-0042', vendor_key, n_pages)}"
          f"/{n_pages} pages authenticate")

    # A counterfeiter clones the digital content bit-for-bit onto another
    # chip — but a standard read cannot see the voltage-level watermark,
    # so the clone carries none.
    clone = FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=777)
    vthi_read = VtHi(genuine, CONFIG)
    for page in range(n_pages):
        stolen_bits = genuine.read_page(0, page)
        clone.program_page(0, page, stolen_bits)
    print("counterfeit device cloned from standard reads")
    print(f"  verification: {verify(clone, 'SN-0042', vendor_key, n_pages)}"
          f"/{n_pages} pages authenticate")

    # A serial-number forgery fails even on the genuine device.
    print(f"  forged serial on genuine device: "
          f"{verify(genuine, 'SN-9999', vendor_key, n_pages)}/{n_pages}")


if __name__ == "__main__":
    main()
