"""Stream cipher."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import KeyedPrng, StreamCipher


@given(plaintext=st.binary(max_size=512), nonce=st.binary(max_size=16))
@settings(max_examples=80, deadline=None)
def test_roundtrip(plaintext, nonce):
    cipher = StreamCipher(b"secret")
    assert cipher.decrypt(cipher.encrypt(plaintext, nonce), nonce) == plaintext


def test_different_nonces_give_different_ciphertexts():
    cipher = StreamCipher(b"secret")
    message = b"a" * 64
    assert cipher.encrypt(message, b"0") != cipher.encrypt(message, b"1")


def test_different_keys_give_different_ciphertexts():
    message = b"a" * 64
    assert (
        StreamCipher(b"k1").encrypt(message, b"n")
        != StreamCipher(b"k2").encrypt(message, b"n")
    )


def test_ciphertext_bits_look_uniform():
    """Whitening property Algorithm 1 relies on: encrypted hidden data has
    balanced bit values even for degenerate plaintexts."""
    cipher = StreamCipher(b"secret")
    ciphertext = cipher.encrypt(b"\x00" * 4096, b"page:7")
    bits = np.unpackbits(np.frombuffer(ciphertext, dtype=np.uint8))
    assert abs(bits.mean() - 0.5) < 0.02


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        StreamCipher(b"")


def test_empty_message_ok():
    cipher = StreamCipher(b"secret")
    assert cipher.encrypt(b"", b"n") == b""


@given(plaintext=st.binary(max_size=300), nonce=st.binary(max_size=8))
@settings(max_examples=40, deadline=None)
def test_ciphertext_is_plaintext_xor_keystream(plaintext, nonce):
    stream = KeyedPrng(b"secret", b"cipher/" + nonce).bytes(len(plaintext))
    assert StreamCipher(b"secret").encrypt(plaintext, nonce) == bytes(
        p ^ s for p, s in zip(plaintext, stream)
    )
