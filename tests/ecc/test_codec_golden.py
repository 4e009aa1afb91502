"""Golden outputs of the two BCH codecs: public pages and hidden payloads.

Device files store `PagePipeline` page bits and hidden volumes store
`PayloadCodec` bits, so a change to either codec's output must show here.
Each case feeds a fixed set of inputs through the public API and hashes
everything that comes back: encoded bits (dtype and shape included),
decoded bytes, corrected-error counts and the type and text of every
raised error (and of its cause).  The digests were recorded from the code
before the two codecs shared one word layout; they only change on
purpose, with a device-file layout bump or a hidden-volume migration.
"""

import hashlib

import numpy as np
import pytest

from repro.crypto import HidingKey
from repro.ecc.page import PagePipeline
from repro.fleet import FLEET_HIDING
from repro.hiding import (
    ENHANCED_CONFIG,
    STANDARD_CONFIG,
    HidingConfig,
    PayloadCodec,
)

PAGE_SHAPES = {
    "page-9024-m13-t8": (9024, 13, 8),
    "page-36096-m14-t40": (36096, 14, 40),
    "page-144384-m14-t40": (144384, 14, 40),
}

PAYLOAD_CONFIGS = {
    "payload-standard": STANDARD_CONFIG,
    "payload-enhanced": ENHANCED_CONFIG,
    "payload-fleet": FLEET_HIDING,
    "payload-raw": HidingConfig(bits_per_page=136, ecc_t=0),
}

GOLDEN = {
    "construction-errors": "290134fa5b49add5bfca58b4f7e08a37320adaa87d104e87053b7b09938c7a4a",
    "page-144384-m14-t40": "9219a21a8dbd597cef6d58be26f5c5db77720eac2d5c647b5b0369294d09da76",
    "page-36096-m14-t40": "e9bc9edddcde712e705cf0bbc15a70cc43501a2be309746c91e84373d92992ef",
    "page-9024-m13-t8": "5f0957627cbb85f5c3184f19429fe0840c64fda1fcfe3e92419466cb82b48cfa",
    "payload-enhanced": "94194b0576396cc47f265fae0d2223c25168f9e3dc5cbe0141520e38b7818edd",
    "payload-fleet": "f779d9a73de621bb16f4024debc1a28b488475c9c98b1f3cadad8ed3f304dae7",
    "payload-raw": "952c567d7cd6e4e59f25d5181e00a6daeb92fdbbea1955aede2566d27833170f",
    "payload-standard": "44b5a2ff3dab2ae22d3fa253d4a745d5079259eb68a618dd25d70d72d0afa24a",
}


class _Digest:
    """A running SHA-256 over typed values."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._put(f"ndarray:{value.dtype.str}:{value.shape}")
            self._hash.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (bytes, bytearray)):
            self._put(f"bytes:{len(value)}")
            self._hash.update(bytes(value))
        elif isinstance(value, (list, tuple)):
            self._put(f"{type(value).__name__}:{len(value)}")
            for item in value:
                self.add(item)
        elif isinstance(value, BaseException):
            self._put(f"raised:{type(value).__name__}:{value}")
            cause = value.__cause__
            self._put(
                "cause:none" if cause is None
                else f"cause:{type(cause).__name__}:{cause}"
            )
        else:
            self._put(f"{type(value).__name__}:{value!r}")

    def call(self, fn, *args, **kwargs) -> None:
        """Record what `fn` returns, or the error it raises."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every error type is part of the record
            self.add(exc)
        else:
            self.add(result)

    def _put(self, text: str) -> None:
        self._hash.update(text.encode() + b"\x00")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _flip(bits: np.ndarray, positions) -> np.ndarray:
    noisy = np.array(bits, dtype=np.uint8, copy=True)
    noisy[np.asarray(positions, dtype=np.int64)] ^= 1
    return noisy


def _page_digest(cells: int, m: int, t: int) -> str:
    digest = _Digest()
    pipeline = PagePipeline(cells, ecc_m=m, ecc_t=t)
    rng = np.random.default_rng(cells)
    full = rng.integers(0, 256, pipeline.data_bytes, dtype=np.uint8).tobytes()
    payloads = [b"", b"hello", full[: pipeline.data_bytes // 3], full]
    addresses = [0, 3, 2**20 + 1, 77]
    digest.add(pipeline.data_bytes)

    pages = pipeline.encode_pages(payloads, addresses)
    digest.add(pages)
    for data, address in zip(payloads, addresses):
        digest.add(pipeline.encode(data, page_address=address))

    # Correctable errors: none, one, a few, and 2t spread over the page.
    noisy = [
        _flip(page, rng.choice(cells, size=k, replace=False))
        for page, k in zip(pages, [0, 1, 5, 2 * t])
    ]
    for page, address in zip(noisy, addresses):
        digest.call(pipeline.decode, page, page_address=address)
        digest.call(pipeline.correct, page)
    digest.call(pipeline.decode_pages, noisy, addresses)
    digest.call(pipeline.correct_pages, noisy)

    # Uncorrectable: the first word, the last word, and one page of a batch.
    head = _flip(pages[3], rng.choice(400, size=4 * t, replace=False))
    tail = _flip(pages[2], cells - 1 - rng.choice(400, size=4 * t, replace=False))
    for bad in (head, tail):
        digest.call(pipeline.decode, bad, page_address=addresses[3])
        digest.call(pipeline.correct, bad)
    digest.call(pipeline.decode_pages, [noisy[0], tail, head], addresses[:3])
    digest.call(pipeline.correct_pages, [head, noisy[1]])
    digest.call(pipeline.decode_pages, [tail], [5])

    # Shape, count and size errors.
    digest.call(pipeline.encode, full + b"x")
    digest.call(pipeline.encode_pages, [b"a", b"b"], [0])
    digest.call(pipeline.decode_pages, [pages[0]], [0, 1])
    digest.call(pipeline.decode, pages[0][:-1])
    digest.call(pipeline.correct_pages, [pages[0], np.zeros((2, cells), np.uint8)])
    digest.call(pipeline.decode_pages, [], [])
    digest.call(pipeline.encode_pages, [], [])
    return digest.hexdigest()


def _payload_digest(config: HidingConfig) -> str:
    digest = _Digest()
    codec = PayloadCodec(config)
    keys = [HidingKey.generate(b"golden-%d" % i) for i in range(3)]
    top = codec.max_data_bytes
    digest.add([codec.max_data_bits, top])
    for n in range(top + 2):
        digest.call(codec.coded_length, n)

    rng = np.random.default_rng(top)
    sizes = list(range(top + 1))
    payloads = [
        rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in sizes
    ]
    page_keys = [keys[i % 3] for i in sizes]
    addresses = [i * 7 + 1 for i in sizes]
    coded = codec.encode_pages_keyed(page_keys, addresses, payloads)
    digest.add(coded)
    for key, address, data in zip(page_keys, addresses, payloads):
        digest.add(codec.encode(key, address, data))

    # Per payload length, a batch of pages with none, one, t, t + 1 and
    # 3t bit errors (capped at the word), decoded in both on_error modes.
    t = config.ecc_t
    for n, data in zip(sizes, payloads):
        batch_keys = [keys[(n + j) % 3] for j in range(5)]
        batch_addresses = [n * 11 + j for j in range(5)]
        clean = codec.encode_pages_keyed(
            batch_keys, batch_addresses, [data] * 5
        )
        noisy = [
            _flip(bits, rng.choice(
                bits.size, size=min(k, bits.size), replace=False
            ))
            for bits, k in zip(clean, [0, 1, t, t + 1, 3 * t])
        ]
        digest.call(
            codec.decode_pages_keyed, batch_keys, batch_addresses, noisy, n,
            on_error="return",
        )
        for key, address, bits in zip(batch_keys, batch_addresses, noisy):
            digest.call(codec.decode, key, address, bits, n)
        digest.call(
            codec.decode_pages_keyed, batch_keys, batch_addresses, noisy, n
        )
    digest.call(
        codec.decode_pages_keyed, [], [], [], top, on_error="return"
    )

    # A wrong key decodes (the ECC layer is keyless) to other bytes.
    digest.call(codec.decode, keys[1], addresses[-1], coded[-1], top)

    # Size, length and count errors.
    digest.call(codec.encode, keys[0], 0, b"x" * (top + 1))
    digest.call(codec.encode_pages_keyed, keys[:2], [0, 1], [b"a", b"x" * (top + 9)])
    digest.call(codec.decode, keys[0], 0, coded[-1][:-1], top)
    digest.call(codec.decode, keys[0], 0, coded[-1], top + 1)
    digest.call(codec.decode, keys[0], 0, coded[3], 2)
    digest.call(codec.encode_pages_keyed, keys[:1], [0, 1], [b"a", b"b"])
    digest.call(codec.encode_pages_keyed, keys[:2], [0], [b"a"])
    digest.call(codec.decode_pages_keyed, keys[:1], [0, 1], coded[:2], 1)
    digest.call(codec.decode_pages_keyed, keys[:2], [0], coded[:1], 0)
    digest.call(codec.encode_pages_keyed, keys[:2], [0], [b"a", b"b"])
    digest.call(codec.decode_pages_keyed, keys[:1], [0], coded[:2], 1)
    return digest.hexdigest()


def _construction_digest() -> str:
    digest = _Digest()
    for cells, m, t in [(100, 13, 8), (0, 13, 8), (512, 9, 32), (600, 9, 32)]:
        digest.call(lambda: PagePipeline(cells, ecc_m=m, ecc_t=t).data_bytes)
    for budget in (512, 600):
        config = HidingConfig(bits_per_page=budget, ecc_m=9, ecc_t=32)
        digest.call(lambda: PayloadCodec(config).max_data_bits)
    # Three uneven words (342, 342 and 341 bits) and one slack bit.
    uneven = PagePipeline(1025, ecc_m=9, ecc_t=8)
    digest.add(uneven.data_bytes)
    bits = uneven.encode(bytes(range(uneven.data_bytes)), page_address=9)
    digest.add(bits)
    digest.call(uneven.decode, _flip(bits, [0, 341, 683, 1024]), 9)
    return digest.hexdigest()


def _digest(case: str) -> str:
    if case in PAGE_SHAPES:
        return _page_digest(*PAGE_SHAPES[case])
    if case in PAYLOAD_CONFIGS:
        return _payload_digest(PAYLOAD_CONFIGS[case])
    return _construction_digest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_codec_output_matches_golden(case):
    assert _digest(case) == GOLDEN[case]
