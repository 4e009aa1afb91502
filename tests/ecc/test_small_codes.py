"""XOR parity group."""

import numpy as np
import pytest

from repro.ecc import ParityGroup


class TestParityGroup:
    def payloads(self):
        rng = np.random.default_rng(0)
        return [rng.integers(0, 2, 64).astype(np.uint8) for _ in range(4)]

    def test_parity_is_xor(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        manual = payloads[0] ^ payloads[1] ^ payloads[2] ^ payloads[3]
        assert np.array_equal(group.parity, manual)

    def test_reconstruct_each_position(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        for missing in range(4):
            surviving = [
                None if i == missing else p
                for i, p in enumerate(payloads)
            ]
            restored = group.reconstruct(surviving, group.parity)
            assert np.array_equal(restored[missing], payloads[missing])

    def test_nothing_missing_is_identity(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        restored = group.reconstruct(payloads, group.parity)
        for original, got in zip(payloads, restored):
            assert np.array_equal(original, got)

    def test_two_missing_rejected(self):
        payloads = self.payloads()
        group = ParityGroup(payloads)
        surviving = [None, None] + payloads[2:]
        with pytest.raises(ValueError):
            group.reconstruct(surviving, group.parity)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ParityGroup([np.zeros(4), np.zeros(5)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ParityGroup([])
