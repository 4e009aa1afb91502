"""Fault injection: interrupted operations and degraded media.

The paper's system is meant for hostile conditions; these tests check
that partial operations fail *cleanly* — recoverable where ECC margins
allow, loud errors where they do not, never silent corruption.
"""

import pytest

from repro.hiding import PayloadError, STANDARD_CONFIG, VtHi
from repro.hiding.selection import select_cells

CFG = STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18)


def interrupted_embed(vthi, chip, block, page, coded, key, public, steps):
    """Run Algorithm 1's loop but lose power after `steps` PP steps."""
    address = chip.geometry.page_address(block, page)
    cells = select_cells(key, address, public, coded.size)
    zero_cells = cells[coded == 0]
    target = vthi.config.threshold + vthi.config.guard
    for _ in range(steps):
        voltages = chip.probe_voltages(block, page)
        below = zero_cells[voltages[zero_cells] < target]
        if below.size == 0:
            break
        chip.partial_program(block, page, below,
                             fraction=vthi.config.pp_fraction)


class TestInterruptedEmbed:
    @pytest.fixture
    def setup(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public = random_page(0)
        secret = b"power loss is rude"[: vthi.max_data_bytes_per_page]
        chip.program_page(0, 0, public)
        address = chip.geometry.page_address(0, 0)
        coded = vthi.codec.encode(key, address, secret)
        return vthi, public, secret, coded

    def test_power_loss_near_completion_recovers(self, setup, chip, key):
        """Losing power after most PP steps leaves enough margin for
        ECC to absorb the stragglers."""
        vthi, public, secret, coded = setup
        interrupted_embed(vthi, chip, 0, 0, coded, key, public, steps=6)
        assert vthi.recover(0, 0, key, len(secret),
                            public_bits=public) == secret

    def test_power_loss_at_first_step_fails_loudly(self, setup, chip, key):
        """One PP step leaves ~30-50% of hidden '0's unset: the payload
        must be reported uncorrectable, never silently wrong."""
        vthi, public, secret, coded = setup
        interrupted_embed(vthi, chip, 0, 0, coded, key, public, steps=1)
        with pytest.raises(PayloadError):
            vthi.recover(0, 0, key, len(secret), public_bits=public)

    def test_resumed_embed_completes(self, setup, chip, key):
        """Re-running the embed after the interruption converges: the
        loop is idempotent (it only pulses cells still below target)."""
        vthi, public, secret, coded = setup
        interrupted_embed(vthi, chip, 0, 0, coded, key, public, steps=1)
        vthi.embed_bits(0, 0, coded, key, public_bits=public)
        assert vthi.recover(0, 0, key, len(secret),
                            public_bits=public) == secret


class TestDegradedMedia:
    def test_worn_block_still_hides(self, chip, key, random_page):
        chip.age_block(0, 2900)  # near end of life
        vthi = VtHi(chip, CFG)
        public = random_page(1)
        secret = b"old but gold"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 0, public, secret, key)
        assert vthi.recover(0, 0, key, len(secret),
                            public_bits=public) == secret

    def test_massive_corruption_detected(self, chip, key, random_page):
        """Wiping the hidden band (e.g. a partial overwrite) must raise,
        not return plausible garbage."""
        vthi = VtHi(chip, CFG)
        public = random_page(2)
        secret = b"fragile"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 0, public, secret, key)
        # adversarial/faulty firmware drains the hidden band
        state = chip._block(0)
        band = (state.voltages[0] > 34) & (state.voltages[0] < 127)
        state.voltages[0][band] = 20.0
        with pytest.raises(PayloadError):
            vthi.recover(0, 0, key, len(secret), public_bits=public)

    def test_bad_block_cannot_host(self, chip, key, random_page):
        from repro.nand.errors import ProgramError

        state = chip._block(0)
        state.bad = True
        vthi = VtHi(chip, CFG)
        with pytest.raises(ProgramError):
            vthi.hide(0, 0, random_page(3), b"x", key)


class TestStripeUnderFaults:
    def test_interrupted_stripe_is_partially_recoverable(
        self, chip, key, random_page
    ):
        """A stripe interrupted before its parity chunk was embedded
        still yields every completed chunk."""
        vthi = VtHi(chip, CFG)
        publics = []
        for page in range(4):
            bits = random_page(page)
            chip.program_page(0, page, bits)
            publics.append(bits)
        chunk = vthi.max_data_bytes_per_page
        payload = bytes(range(256))[:chunk] * 3
        payload = payload[: 3 * chunk]
        # embed only the three data chunks; "power loss" before parity
        for index, host in enumerate([(0, 0), (0, 1), (0, 2)]):
            piece = payload[index * chunk:(index + 1) * chunk]
            address = chip.geometry.page_address(*host)
            coded = vthi.codec.encode(key, address, piece)
            vthi.embed_bits(*host, coded, key, public_bits=publics[index])
        for index, host in enumerate([(0, 0), (0, 1), (0, 2)]):
            piece = vthi.recover(*host, key, chunk,
                                 public_bits=publics[index])
            assert piece == payload[index * chunk:(index + 1) * chunk]
