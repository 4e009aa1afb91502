"""Payload framing (encrypt + BCH)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import HidingKey
from repro.hiding import HidingConfig, PayloadCodec, PayloadError

KEY = HidingKey.generate(b"payload")
CONFIG = HidingConfig(bits_per_page=512, ecc_m=10, ecc_t=18)


@pytest.fixture(scope="module")
def codec():
    return PayloadCodec(CONFIG)


def test_capacity_accounts_for_parity(codec):
    assert codec.max_data_bits < CONFIG.bits_per_page
    assert codec.max_data_bytes == codec.max_data_bits // 8


def test_clean_roundtrip(codec):
    data = b"a secret worth keeping"
    coded = codec.encode(KEY, 7, data)
    assert coded.size <= CONFIG.bits_per_page
    assert codec.decode(KEY, 7, coded, len(data)) == data


def test_coded_bits_are_whitened(codec):
    coded = codec.encode(KEY, 7, b"\x00" * codec.max_data_bytes)
    assert abs(coded.mean() - 0.5) < 0.1


def test_roundtrip_with_errors(codec):
    data = b"resilient"
    coded = codec.encode(KEY, 3, data)
    rng = np.random.default_rng(0)
    corrupted = coded.copy()
    corrupted[rng.choice(coded.size, size=10, replace=False)] ^= 1
    assert codec.decode(KEY, 3, corrupted, len(data)) == data


def test_uncorrectable_raises(codec):
    data = b"doomed"
    coded = codec.encode(KEY, 3, data)
    corrupted = coded ^ 1  # flip everything
    with pytest.raises(PayloadError):
        codec.decode(KEY, 3, corrupted, len(data))


@pytest.mark.parametrize("ecc_t", [18, 0])
def test_unknown_on_error_rejected_before_decode(ecc_t):
    """A misspelt mode is refused on a clean page and a corrupt one
    alike, with the text ``BchCode.decode_many`` uses."""
    codec = PayloadCodec(CONFIG.replace(ecc_t=ecc_t))
    coded = codec.encode(KEY, 3, b"clean")
    for page in (coded, coded ^ 1):
        with pytest.raises(
            ValueError,
            match="on_error must be 'raise' or 'return', got 'retrun'",
        ):
            codec.decode_pages_keyed([KEY], [3], [page], 5, on_error="retrun")


def test_page_address_separates_ciphertexts(codec):
    data = b"same plaintext"
    a = codec.encode(KEY, 0, data)
    b = codec.encode(KEY, 1, data)
    assert not np.array_equal(a, b)


def test_wrong_key_decodes_garbage_not_plaintext(codec):
    data = b"for my eyes only"
    coded = codec.encode(KEY, 0, data)
    other = HidingKey.generate(b"adversary")
    # The ECC layer is keyless, so decode may succeed — but the
    # decrypted payload must not be the plaintext.
    try:
        recovered = codec.decode(other, 0, coded, len(data))
        assert recovered != data
    except PayloadError:
        pass


def test_oversized_payload_rejected(codec):
    with pytest.raises(PayloadError):
        codec.encode(KEY, 0, b"x" * (codec.max_data_bytes + 1))


def test_wrong_coded_length_rejected(codec):
    coded = codec.encode(KEY, 0, b"abc")
    with pytest.raises(PayloadError):
        codec.decode(KEY, 0, coded[:-1], 3)


def test_no_ecc_mode_is_identity_sized():
    raw = PayloadCodec(HidingConfig(bits_per_page=128, ecc_t=0))
    data = b"0123456789abcdef"
    coded = raw.encode(KEY, 0, data)
    assert coded.size == len(data) * 8
    assert raw.decode(KEY, 0, coded, len(data)) == data


def test_multi_codeword_budget():
    """The enhanced config's budget exceeds one BCH codeword; the codec
    must split and reassemble."""
    config = HidingConfig(
        threshold=15.0, pp_steps=1, bits_per_page=2560, ecc_m=11, ecc_t=100
    )
    codec = PayloadCodec(config)
    assert codec.max_data_bytes > 0
    data = bytes(range(codec.max_data_bytes % 256)) * 4
    data = data[: codec.max_data_bytes]
    coded = codec.encode(KEY, 5, data)
    assert coded.size <= 2560
    assert codec.decode(KEY, 5, coded, len(data)) == data


@given(n=st.integers(min_value=0, max_value=40))
@settings(max_examples=25, deadline=None)
def test_roundtrip_any_size(codec, n):
    data = bytes(range(256))[:n]
    coded = codec.encode(KEY, 11, data)
    assert codec.decode(KEY, 11, coded, n) == data
