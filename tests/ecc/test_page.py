"""Public page pipeline."""

import numpy as np
import pytest

from repro.ecc import EccError
from repro.ecc.page import PagePipeline

CELLS = 1128 * 8  # the TEST_MODEL page


@pytest.fixture(scope="module")
def pipeline():
    return PagePipeline(CELLS, ecc_m=13, ecc_t=8)


def test_capacity_leaves_spare_area(pipeline):
    assert pipeline.data_bytes < CELLS // 8
    assert pipeline.data_bytes > 0


def test_roundtrip(pipeline):
    data = (bytes(range(256)) * 8)[: pipeline.data_bytes]
    assert len(data) == pipeline.data_bytes
    bits = pipeline.encode(data, page_address=3)
    out, corrected = pipeline.decode(bits, page_address=3)
    assert out == data
    assert corrected == 0


def test_short_payload_zero_padded(pipeline):
    bits = pipeline.encode(b"hello", page_address=1)
    out, _ = pipeline.decode(bits, page_address=1)
    assert out.startswith(b"hello")
    assert set(out[5:]) == {0}


def test_oversized_payload_rejected(pipeline):
    with pytest.raises(ValueError):
        pipeline.encode(b"x" * (pipeline.data_bytes + 1))


def test_scrambling_balances_degenerate_data(pipeline):
    bits = pipeline.encode(b"\x00" * pipeline.data_bytes, page_address=5)
    assert abs(bits.mean() - 0.5) < 0.05


def test_scrambling_is_page_dependent(pipeline):
    a = pipeline.encode(b"same", page_address=0)
    b = pipeline.encode(b"same", page_address=1)
    assert not np.array_equal(a, b)


def test_corrects_errors_and_reports_count(pipeline):
    data = (b"payload" * 200)[: pipeline.data_bytes]
    bits = pipeline.encode(data, page_address=2)
    rng = np.random.default_rng(0)
    positions = rng.choice(bits.size, size=10, replace=False)
    bits[positions] ^= 1
    out, corrected = pipeline.decode(bits, page_address=2)
    assert out == data
    assert corrected == 10


def test_correct_restores_exact_page_bits(pipeline):
    data = b"selection map source"
    bits = pipeline.encode(data, page_address=9)
    noisy = bits.copy()
    noisy[[1, 100, 5000]] ^= 1
    assert np.array_equal(pipeline.correct(noisy), bits)


def test_uncorrectable_page_raises(pipeline):
    bits = pipeline.encode(b"x", page_address=0)
    rng = np.random.default_rng(1)
    # saturate one codeword with errors
    positions = rng.choice(pipeline.words[0].coded_bits, size=60,
                           replace=False)
    bits[positions] ^= 1
    with pytest.raises(EccError):
        pipeline.decode(bits, page_address=0)


def test_shape_validation(pipeline):
    with pytest.raises(ValueError):
        pipeline.correct(np.zeros(10, dtype=np.uint8))


def test_decode_pages_matches_scalar_loop(pipeline):
    rng = np.random.default_rng(3)
    pages, addresses = [], []
    for address in range(4):
        data = bytes(rng.integers(0, 256, pipeline.data_bytes, np.uint8))
        bits = pipeline.encode(data, page_address=address)
        positions = rng.choice(bits.size, size=address * 3, replace=False)
        bits[positions.astype(int)] ^= 1
        pages.append(bits)
        addresses.append(address)
    batch = pipeline.decode_pages(pages, addresses)
    scalar = [
        pipeline.decode(bits, address)
        for bits, address in zip(pages, addresses)
    ]
    assert batch == scalar


def test_decode_pages_reports_failing_page(pipeline):
    good = pipeline.encode(b"ok", page_address=0)
    bad = pipeline.encode(b"bad", page_address=1)
    rng = np.random.default_rng(4)
    positions = rng.choice(pipeline.words[0].coded_bits, size=60,
                           replace=False)
    bad[positions] ^= 1
    with pytest.raises(EccError, match="page 1 of batch"):
        pipeline.decode_pages([good, bad], [0, 1])


def test_correct_pages_matches_scalar_correct(pipeline):
    first = pipeline.encode(b"alpha", page_address=0)
    second = pipeline.encode(b"beta", page_address=7)
    noisy_first = first.copy()
    noisy_first[[2, 99]] ^= 1
    corrected = pipeline.correct_pages([noisy_first, second])
    assert np.array_equal(corrected[0], pipeline.correct(noisy_first))
    assert np.array_equal(corrected[1], second)


def test_word_layout_covers_page_exactly(pipeline):
    total = sum(w.coded_bits for w in pipeline.words)
    assert total == CELLS
    starts = [w.start for w in pipeline.words]
    assert starts == sorted(starts)


def test_construction_validation():
    with pytest.raises(ValueError, match="room for 104 parity bits"):
        # words too small to hold parity
        PagePipeline(100, ecc_m=13, ecc_t=8)
    with pytest.raises(ValueError):
        PagePipeline(0, ecc_m=13, ecc_t=8)
