"""FTL end-to-end behaviour."""

import numpy as np
import pytest

from repro.ecc.page import PagePipeline
from repro.ftl import Ftl, FtlError


@pytest.fixture
def ftl(chip):
    pipeline = PagePipeline(chip.geometry.cells_per_page, ecc_m=13, ecc_t=8)
    return Ftl(chip, pipeline, overprovision_blocks=4)


def payload(ftl, seed=0, size=None):
    rng = np.random.default_rng(seed)
    size = size if size is not None else ftl.page_data_bytes
    return bytes(rng.integers(0, 256, size).astype(np.uint8))


class TestReadWrite:
    def test_write_read_roundtrip(self, ftl):
        data = payload(ftl, 1)
        ftl.write(5, data)
        assert ftl.read(5) == data

    def test_short_write_padded_on_read(self, ftl):
        ftl.write(0, b"tiny")
        assert ftl.read(0)[:4] == b"tiny"

    def test_unwritten_reads_none(self, ftl):
        assert ftl.read(9) is None

    def test_overwrite_returns_latest(self, ftl):
        ftl.write(3, payload(ftl, 1, 100))
        second = payload(ftl, 2, 100)
        ftl.write(3, second)
        assert ftl.read(3)[:100] == second

    def test_trim_forgets(self, ftl):
        ftl.write(2, b"gone soon")
        ftl.trim(2)
        assert ftl.read(2) is None

    def test_oversized_write_rejected(self, ftl):
        with pytest.raises(FtlError):
            ftl.write(0, b"x" * (ftl.page_data_bytes + 1))

    def test_lpa_bounds(self, ftl):
        with pytest.raises(FtlError):
            ftl.write(ftl.logical_pages, b"x")
        with pytest.raises(FtlError):
            ftl.read(-1)


class TestGarbageCollection:
    def test_overwrites_trigger_gc_and_survive(self, ftl):
        live = {}
        rng = np.random.default_rng(0)
        for i in range(400):
            lpa = int(rng.integers(0, 40))
            data = payload(ftl, i, 64)
            ftl.write(lpa, data)
            live[lpa] = data
        assert ftl.stats.gc_erases > 0
        for lpa, data in live.items():
            assert ftl.read(lpa)[:64] == data

    def test_write_amplification_reported(self, ftl):
        for i in range(100):
            ftl.write(i % 10, payload(ftl, i, 32))
        waf = ftl.stats.write_amplification
        assert waf >= 1.0
        assert ftl.stats.flash_writes >= ftl.stats.host_writes

    def test_steady_state_at_full_logical_utilisation(self, chip):
        """Over-provisioning guarantees writes keep succeeding even when
        every logical page is mapped (GC always finds reclaimable space
        created by overwrites)."""
        pipeline = PagePipeline(
            chip.geometry.cells_per_page, ecc_m=13, ecc_t=8
        )
        small = Ftl(chip, pipeline, overprovision_blocks=3)
        for lpa in range(small.logical_pages):
            small.write(lpa, b"data")
        rng = np.random.default_rng(9)
        for _ in range(80):
            small.write(int(rng.integers(0, small.logical_pages)), b"more")
        assert small.stats.gc_erases > 0

    def test_wear_stays_banded(self, ftl):
        rng = np.random.default_rng(1)
        for i in range(600):
            ftl.write(int(rng.integers(0, 30)), payload(ftl, i, 16))
        pecs = [
            ftl.chip.block_pec(b) for b in range(ftl.chip.geometry.n_blocks)
        ]
        used = [p for p in pecs if p > 0]
        assert used, "GC should have cycled some blocks"


class TestHooks:
    def test_relocation_hook_sees_moves(self, ftl):
        events = []
        ftl.add_relocation_hook(
            lambda lpa, old, new, new_bits: events.append((lpa, old, new))
        )
        rng = np.random.default_rng(2)
        # a wide LPA space leaves valid pages inside GC victims
        for i in range(600):
            ftl.write(int(rng.integers(0, 150)), payload(ftl, i, 16))
        assert events
        for lpa, old, new in events:
            assert old != new
            assert ftl.locate(lpa) is not None

    def test_invalidation_hook_fires_on_overwrite_and_trim(self, ftl):
        events = []
        ftl.add_invalidation_hook(lambda lpa, old: events.append((lpa, old)))
        ftl.write(1, b"v1")
        first = ftl.locate(1)
        ftl.write(1, b"v2")
        assert events == [(1, first)]
        second = ftl.locate(1)
        ftl.trim(1)
        assert events[-1] == (1, second)

    def test_erase_hook_fires_after_gc(self, ftl):
        erased = []
        ftl.add_erase_hook(erased.append)
        rng = np.random.default_rng(3)
        for i in range(400):
            ftl.write(int(rng.integers(0, 30)), payload(ftl, i, 16))
        assert erased
        assert ftl.stats.gc_erases == len(erased)


class TestConstruction:
    def test_overprovision_bounds(self, chip):
        with pytest.raises(ValueError):
            Ftl(chip, overprovision_blocks=0)
        with pytest.raises(ValueError):
            Ftl(chip, overprovision_blocks=chip.geometry.n_blocks)

    def test_default_pipeline_built(self, chip):
        ftl = Ftl(chip, overprovision_blocks=2)
        assert ftl.page_data_bytes > 0
