"""Hidden volume lifecycle."""

import numpy as np
import pytest

from repro.crypto import HidingKey
from repro.ecc.page import PagePipeline
from repro.ftl import Ftl
from repro.hiding import STANDARD_CONFIG, PayloadError, VtHi
from repro.stego import HiddenVolume, HiddenVolumeError

VOLUME_CFG = STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18)


@pytest.fixture
def stack(chip, key):
    pipeline = PagePipeline(chip.geometry.cells_per_page, ecc_m=13, ecc_t=8)
    ftl = Ftl(chip, pipeline, overprovision_blocks=4)
    vthi = VtHi(chip, VOLUME_CFG, public_codec=pipeline)
    volume = HiddenVolume(ftl, vthi, key)
    rng = np.random.default_rng(0)
    for lpa in range(60):
        ftl.write(lpa, bytes(rng.integers(0, 256, 400).astype(np.uint8)))
    return ftl, volume


def secret(volume, seed):
    rng = np.random.default_rng(seed)
    return bytes(
        rng.integers(0, 256, volume.slot_data_bytes).astype(np.uint8)
    )


class TestBasicIO:
    def test_write_read(self, stack):
        _, volume = stack
        data = secret(volume, 1)
        volume.write(0, data)
        assert volume.read(0) == data

    def test_unwritten_is_none(self, stack):
        _, volume = stack
        assert volume.read(99) is None

    def test_overwrite_updates(self, stack):
        _, volume = stack
        volume.write(0, b"v1")
        volume.write(0, b"v2")
        assert volume.read(0) == b"v2"

    def test_oversized_block_rejected(self, stack):
        _, volume = stack
        with pytest.raises(HiddenVolumeError):
            volume.write(0, b"x" * (volume.slot_data_bytes + 1))

    def test_delete(self, stack):
        _, volume = stack
        volume.write(0, b"doomed")
        volume.delete(0)
        assert volume.read(0) is None

    def test_delete_unknown_is_noop(self, stack):
        _, volume = stack
        volume.delete(42)

    def test_capacity_rides_on_public_data(self, stack):
        _, volume = stack
        assert volume.capacity_slots() > 0

    def test_no_hosts_raises(self, chip, key):
        pipeline = PagePipeline(
            chip.geometry.cells_per_page, ecc_m=13, ecc_t=8
        )
        ftl = Ftl(chip, pipeline, overprovision_blocks=4)
        vthi = VtHi(chip, VOLUME_CFG, public_codec=pipeline)
        volume = HiddenVolume(ftl, vthi, key)
        with pytest.raises(HiddenVolumeError):
            volume.write(0, b"no public data yet")


class TestMount:
    def test_mount_rebuilds_map(self, stack):
        _, volume = stack
        written = {lba: secret(volume, lba) for lba in range(5)}
        for lba, data in written.items():
            volume.write(lba, data)
        found = volume.mount()
        assert found == 5
        for lba, data in written.items():
            assert volume.read(lba) == data

    def test_mount_respects_tombstones(self, stack):
        _, volume = stack
        volume.write(0, b"a")
        volume.write(1, b"b")
        volume.delete(0)
        assert volume.mount() == 1
        assert volume.read(0) is None
        assert volume.read(1) == b"b"

    def test_mount_with_wrong_key_finds_nothing(self, stack, chip):
        ftl, volume = stack
        volume.write(0, b"present")
        adversary_vthi = VtHi(
            chip, VOLUME_CFG, public_codec=volume.vthi.public_codec
        )
        adversary = HiddenVolume(
            ftl, adversary_vthi, HidingKey.generate(b"adversary")
        )
        assert adversary.mount() == 0

    def test_mount_sees_latest_version(self, stack):
        _, volume = stack
        volume.write(3, b"old")
        volume.write(3, b"new")
        volume.mount()
        assert volume.read(3) == b"new"


class TestChurnSurvival:
    def test_survives_public_overwrites(self, stack):
        ftl, volume = stack
        written = {lba: secret(volume, 10 + lba) for lba in range(4)}
        for lba, data in written.items():
            volume.write(lba, data)
        rng = np.random.default_rng(5)
        for i in range(150):
            ftl.write(
                int(rng.integers(0, 60)),
                bytes(rng.integers(0, 256, 300).astype(np.uint8)),
            )
        for lba, data in written.items():
            assert volume.read(lba) == data

    def test_burned_hosts_not_reused(self, stack):
        _, volume = stack
        volume.write(0, b"first")
        host0 = volume._slots[0][0]
        volume.write(0, b"second")
        host1 = volume._slots[0][0]
        assert host0 != host1

    def test_mismatched_chip_rejected(self, chip, chip_factory, key):
        pipeline = PagePipeline(
            chip.geometry.cells_per_page, ecc_m=13, ecc_t=8
        )
        ftl = Ftl(chip, pipeline, overprovision_blocks=4)
        other_vthi = VtHi(chip_factory(99), VOLUME_CFG)
        with pytest.raises(ValueError):
            HiddenVolume(ftl, other_vthi, key)


def test_empty_hidden_block_rejected(stack):
    _, volume = stack
    with pytest.raises(HiddenVolumeError):
        volume.write(0, b"")


def test_panic_erase_clears_the_map(stack):
    _, volume = stack
    volume.write(0, b"forget me")
    volume.panic_erase()
    assert volume.read(0) is None
    assert volume._hosts == set()
    # the data is still physically recoverable until blocks churn — a
    # remount with the key finds it again (the map was never persisted)
    assert volume.mount() == 1


def lpa_at(ftl, location):
    return next(lpa for lpa in range(60) if ftl.locate(lpa) == location)


class TestRescue:
    """§5.1's re-embedding, the volume's one durability path: a slot
    leaves its host before the host's public data goes, onto the FTL's
    offered target when that page can take it."""

    def test_invalidated_host_moves_payload(self, stack):
        ftl, volume = stack
        data = secret(volume, 20)
        volume.write(0, data)
        host = volume._slots[0][0]
        ftl.trim(lpa_at(ftl, host))
        moved = volume._slots[0][0]
        assert moved != host
        assert volume._hosts == {moved}
        assert volume.read(0) == data

    def test_remount_after_rescue_finds_the_moved_slot(self, stack):
        ftl, volume = stack
        data = secret(volume, 21)
        volume.write(0, data)
        ftl.write(lpa_at(ftl, volume._slots[0][0]), b"public overwrite")
        moved = volume._slots[0][0]
        volume.panic_erase()
        assert volume.mount() == 1
        assert volume._slots[0][0] == moved
        assert volume.read(0) == data

    def test_relocation_takes_the_offered_target(self, stack):
        _, volume = stack
        volume.write(0, b"follow the public data")
        host = volume._slots[0][0]
        free = volume._eligible_hosts() - volume._hosts - volume._burned
        # Not the page a fresh placement would pick.
        target = max(free)
        assert target != volume._find_host()
        volume._on_relocation(0, host, target)
        assert volume._slots[0][0] == target
        assert volume.read(0) == b"follow the public data"

    @pytest.mark.parametrize("offer", ["off_stride", "burned", "hosting"])
    def test_unfit_target_falls_back_to_a_free_host(self, stack, offer):
        ftl, volume = stack
        volume.write(0, b"stale")
        burned = volume._slots[0][0]
        volume.write(0, b"keep me")
        volume.write(1, b"neighbour")
        host, hosting = volume._slots[0][0], volume._slots[1][0]
        target = {
            "off_stride": next(
                loc for loc, _ in ftl.page_map.valid_locations()
                if loc[1] % volume.vthi.config.page_stride
            ),
            "burned": burned,
            "hosting": hosting,
        }[offer]
        volume._on_relocation(0, host, target)
        moved = volume._slots[0][0]
        assert moved not in (host, target, burned, hosting)
        assert volume.read(0) == b"keep me"
        assert volume.read(1) == b"neighbour"

    def test_page_without_a_slot_is_left_alone(self, stack):
        ftl, volume = stack
        volume.write(0, b"untouched")
        slots, burned = dict(volume._slots), set(volume._burned)
        bystander = next(
            loc for loc, _ in ftl.page_map.valid_locations()
            if loc not in volume._hosts
        )
        ftl.trim(lpa_at(ftl, bystander))
        assert volume._slots == slots
        assert volume._burned == burned

    def test_lost_hidden_charge_fails_loudly(self, stack):
        """A slot the rescue cannot read raises instead of vanishing
        from the map."""
        ftl, volume = stack
        volume.write(0, b"gone")
        host = volume._slots[0][0]
        public = volume.vthi.public_view(*host)
        # The hidden charge is lost behind the FTL's back; the public
        # page is programmed again as it was.
        ftl.chip.erase_block(host[0])
        ftl.chip.program_page(*host, public)
        with pytest.raises(PayloadError, match="uncorrectable"):
            ftl.trim(lpa_at(ftl, host))
        assert volume._slots[0][0] == host
