"""VT-HI encode/decode (Algorithm 1)."""

import numpy as np
import pytest

from repro.crypto import HidingKey
from repro.ecc.page import PagePipeline
from repro.hiding import STANDARD_CONFIG, PayloadError, SelectionError, VtHi
from repro.hiding.selection import select_cells
from repro.nand.errors import ProgramError
from repro.rng import substream

#: Test-scale hiding config: standard threshold, robust parity.
CFG = STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18)
RAW = STANDARD_CONFIG.replace(bits_per_page=512, ecc_t=0)


def hidden_bits(n, index=0):
    rng = substream(88, "vthi-test", index)
    return (rng.random(n) < 0.5).astype(np.uint8)


class TestEmbedReadBits:
    def test_raw_roundtrip_low_ber(self, chip, key, random_page):
        vthi = VtHi(chip, RAW)
        public = random_page(0)
        bits = hidden_bits(512)
        chip.program_page(0, 0, public)
        stats = vthi.embed_bits(0, 0, bits, key, public_bits=public)
        back = vthi.read_bits(0, 0, 512, key, public_bits=public)
        assert (back != bits).mean() < 0.03
        assert stats.pp_steps_used <= RAW.pp_steps
        assert stats.n_hidden_bits == 512

    def test_embed_needs_public_data(self, chip, key):
        vthi = VtHi(chip, RAW)
        with pytest.raises(SelectionError):
            vthi.embed_bits(0, 0, hidden_bits(16), key)
        assert chip.counters.total_ops == 0  # checked before any read

    def test_supplied_public_bits_still_need_a_programmed_page(
        self, chip, key, random_page
    ):
        # The chip's embed kernel checks pages whose public bits were
        # supplied, before its first probe.
        vthi = VtHi(chip, RAW)
        with pytest.raises(ProgramError, match="holds no public data"):
            vthi.embed_bits(
                0, 0, hidden_bits(16), key, public_bits=random_page(0)
            )
        assert chip.counters.total_ops == 0

    def test_embed_size_cap(self, chip, key, random_page):
        vthi = VtHi(chip, RAW)
        chip.program_page(0, 0, random_page(0))
        with pytest.raises(ValueError):
            vthi.embed_bits(0, 0, hidden_bits(513), key)

    def test_public_data_unaffected(self, chip, key, random_page):
        vthi = VtHi(chip, RAW)
        public = random_page(0)
        chip.program_page(0, 0, public)
        before = (chip.read_page(0, 0) != public).mean()
        vthi.embed_bits(0, 0, hidden_bits(512), key, public_bits=public)
        after = (chip.read_page(0, 0) != public).mean()
        # §5.3: public reads stay correct with no awareness of hidden data
        assert after < 1e-3

    def test_hidden_zero_cells_land_in_band(self, chip, key, random_page):
        vthi = VtHi(chip, RAW)
        public = random_page(0)
        bits = hidden_bits(512)
        chip.program_page(0, 0, public)
        vthi.embed_bits(0, 0, bits, key, public_bits=public)
        cells = select_cells(key, 0, public, 512)
        voltages = chip.probe_voltages(0, 0).astype(float)
        zeros_v = voltages[cells[bits == 0]]
        assert (zeros_v >= RAW.threshold).mean() > 0.97
        assert (zeros_v < 127).all()  # never crosses the public threshold

    def test_repeated_hidden_reads_are_stable(self, chip, key, random_page):
        """Table 1's "repeated reads" property: decoding is non-destructive
        and repeatable (unlike PT-HI)."""
        vthi = VtHi(chip, RAW)
        public = random_page(0)
        bits = hidden_bits(512)
        chip.program_page(0, 0, public)
        vthi.embed_bits(0, 0, bits, key, public_bits=public)
        first = vthi.read_bits(0, 0, 512, key, public_bits=public)
        for _ in range(5):
            again = vthi.read_bits(0, 0, 512, key, public_bits=public)
            assert np.array_equal(first, again)


class TestHideRecover:
    def test_roundtrip(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public = random_page(0)
        secret = b"meet at dawn"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 0, public, secret, key)
        assert vthi.recover(0, 0, key, len(secret), public_bits=public) == secret

    def test_roundtrip_with_raw_public_read(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public = random_page(1)
        secret = b"raw-read recovery"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 1, public, secret, key)
        assert vthi.recover(0, 1, key, len(secret)) == secret

    def test_roundtrip_with_public_codec(self, chip, key):
        pipeline = PagePipeline(
            chip.geometry.cells_per_page, ecc_m=13, ecc_t=8
        )
        vthi = VtHi(chip, CFG, public_codec=pipeline)
        secret = b"codec-backed"
        vthi.hide(0, 0, b"the normal user's data", secret, key)
        assert vthi.recover(0, 0, key, len(secret)) == secret
        # and the public data is still there, through its own ECC
        data, _ = pipeline.decode(chip.read_page(0, 0), page_address=0)
        assert data.startswith(b"the normal user's data")

    def test_wrong_key_cannot_recover(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public = random_page(2)
        secret = b"only for the HU"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 2, public, secret, key)
        adversary = HidingKey.generate(b"adversary")
        try:
            recovered = vthi.recover(0, 2, key=adversary, n_bytes=len(secret),
                                     public_bits=public)
            assert recovered != secret
        except PayloadError:
            pass  # uncorrectable garbage is equally fine

    def test_erase_hidden_destroys_everything(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public = random_page(3)
        secret = b"panic"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 0, public, secret, key)
        vthi.erase_hidden(0)
        with pytest.raises((PayloadError, SelectionError)):
            vthi.recover(0, 0, key, len(secret), public_bits=public)

    def test_reembed_moves_payload(self, chip, key, random_page):
        vthi = VtHi(chip, CFG)
        public_a, public_b = random_page(4), random_page(5)
        secret = b"migrant data"[: vthi.max_data_bytes_per_page]
        vthi.hide(0, 0, public_a, secret, key)
        vthi.reembed((0, 0), (1, 0), key, len(secret), public_b)
        assert vthi.recover(1, 0, key, len(secret), public_bits=public_b) == secret


class TestLocationForms:
    """Location lists spanning blocks, out of block order."""

    LOCATIONS = [(1, 2), (0, 0), (2, 1), (0, 3)]
    SECRETS = [b"secret #%d" % i for i in range(4)]

    def hidden_on(self, chip, key, codec=None):
        vthi = VtHi(chip, CFG, public_codec=codec)
        publics = [hidden_bits(chip.geometry.cells_per_page, i) for i in range(4)]
        if codec:
            publics = [b"public %d" % i for i in range(4)]
        vthi.hide_locations(self.LOCATIONS, publics, self.SECRETS, key)
        return vthi

    @pytest.mark.parametrize("ecc", [False, True])
    def test_recover_locations_matches_recover(self, chip, key, ecc):
        codec = PagePipeline(chip.geometry.cells_per_page, ecc_m=13, ecc_t=8)
        vthi = self.hidden_on(chip, key, codec if ecc else None)
        # Supply the public views of every other location; read the rest.
        publics = [
            vthi.public_view(*loc) if i % 2 else None
            for i, loc in enumerate(self.LOCATIONS)
        ]
        batch = vthi.recover_locations(
            self.LOCATIONS, key, 9, public_bits=publics
        )
        loop = [
            vthi.recover(*loc, key, 9, public_bits=public)
            for loc, public in zip(self.LOCATIONS, publics)
        ]
        assert batch == loop == self.SECRETS

    def test_erased_page_returns_none_or_raises(self, chip, key):
        vthi = self.hidden_on(chip, key)
        vthi.erase_hidden(2)
        found = vthi.recover_locations(
            self.LOCATIONS, key, 9, on_error="return"
        )
        assert found == self.SECRETS[:2] + [None] + self.SECRETS[3:]
        with pytest.raises(PayloadError):
            vthi.recover_locations(self.LOCATIONS, key, 9)


class TestLayout:
    def test_hidden_pages_respect_interval(self, chip):
        vthi = VtHi(chip, CFG)
        pages = vthi.hidden_pages(0)
        assert pages == list(range(0, chip.geometry.pages_per_block, 2))

    def test_block_capacity(self, chip):
        vthi = VtHi(chip, CFG)
        expected = vthi.max_data_bytes_per_page * len(vthi.hidden_pages(0))
        assert vthi.block_capacity_bytes() == expected
