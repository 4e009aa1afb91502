"""Stream cipher for hidden-payload whitening.

Algorithm 1 encrypts the hidden payload before embedding ("VT-HI encrypts
hidden data, not unlike standard SSD controller data scrambling") so hidden
bit values are uniformly distributed — a security requirement (§5.3) and a
wear-levelling aid.  The cipher is the XOR of the plaintext with a
:class:`~repro.crypto.prng.KeyedPrng` keystream, domain-separated by nonce.
"""

from __future__ import annotations

from .prng import KeyedPrng


class StreamCipher:
    """XOR stream cipher keyed by the hiding key's cipher subkey."""

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._key = bytes(key)

    def _keystream(self, nonce: bytes, n: int) -> bytes:
        return KeyedPrng(self._key, b"cipher/" + bytes(nonce)).bytes(n)

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt (or, symmetrically, decrypt) under the given nonce.

        The nonce must be unique per message under one key; the hiding layer
        uses the page address, which satisfies this within one embedding
        generation.
        """
        n = len(plaintext)
        stream = self._keystream(nonce, n)
        # One XOR over the whole message as a little-endian integer.
        return (
            int.from_bytes(plaintext, "little")
            ^ int.from_bytes(stream, "little")
        ).to_bytes(n, "little")

    def decrypt(self, ciphertext: bytes, nonce: bytes) -> bytes:
        """Inverse of :meth:`encrypt` (XOR is an involution)."""
        return self.encrypt(ciphertext, nonce)
