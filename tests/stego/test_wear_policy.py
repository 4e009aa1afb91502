"""Wear-band host policy (§5.2/§7)."""

import pytest

from repro.stego.wear_policy import (
    WearBand,
    WearBandPolicy,
    public_wear_band,
)


@pytest.fixture
def worn_chip(chip):
    # public wear band ~900-1100, with two outlier blocks
    for block, pec in enumerate([1000, 950, 1100, 900, 1050, 1000, 0, 2800]):
        if pec:
            chip.age_block(block, pec)
    return chip


class TestBand:
    def test_band_summary(self, worn_chip):
        band = public_wear_band(worn_chip, range(6))
        assert 900 <= band.low_pec <= band.median_pec <= band.high_pec <= 1100

    def test_contains_with_slack(self):
        band = WearBand(1000, 900, 1100)
        assert band.contains(1000)
        assert not band.contains(600)
        assert band.contains(600, slack=300)

    def test_empty_population_rejected(self, chip):
        with pytest.raises(ValueError):
            public_wear_band(chip, [])


class TestPolicy:
    def test_outliers_rejected(self, worn_chip):
        band = public_wear_band(worn_chip, range(6))
        policy = WearBandPolicy(worn_chip, slack_pec=300)
        candidates = [(6, 0), (7, 0), (0, 0)]  # fresh, worn-out, in-band
        eligible = policy.eligible(candidates, band)
        assert (0, 0) in eligible
        assert (7, 0) not in eligible  # 2800 PEC sticks out
        assert (6, 0) not in eligible  # 0 PEC sticks out too

    def test_choose_prefers_the_median(self, worn_chip):
        band = public_wear_band(worn_chip, range(6))
        policy = WearBandPolicy(worn_chip, slack_pec=300)
        # block 0 at 1000 PEC == median beats block 2 at 1100
        assert policy.choose([(2, 0), (0, 0)], band) == (0, 0)

    def test_choose_none_when_all_standout(self, worn_chip):
        band = public_wear_band(worn_chip, range(6))
        policy = WearBandPolicy(worn_chip, slack_pec=100)
        assert policy.choose([(6, 0), (7, 0)], band) is None

    def test_exposure_metric(self, worn_chip):
        band = WearBand(1000, 900, 1100)
        policy = WearBandPolicy(worn_chip)
        assert policy.exposure((0, 0), band) == 0.0  # 1000 in band
        assert policy.exposure((7, 0), band) == pytest.approx(1700)  # 2800
        assert policy.exposure((6, 0), band) == pytest.approx(900)  # 0

    def test_negative_slack_rejected(self, chip):
        with pytest.raises(ValueError):
            WearBandPolicy(chip, slack_pec=-1)

    def test_policy_blocks_detectable_hiding(self, worn_chip):
        """The Fig. 10 lesson operationalised: the exposure of rejected
        hosts is exactly the PEC gap the SVM exploits."""
        band = public_wear_band(worn_chip, range(6))
        policy = WearBandPolicy(worn_chip, slack_pec=300)
        rejected = [
            host for host in [(6, 0), (7, 0)]
            if host not in policy.eligible([(6, 0), (7, 0)], band)
        ]
        for host in rejected:
            assert policy.exposure(host, band) > 300


def policy_volume(chip, key, n_lpas, lpa_bytes):
    """A hidden volume under a 300-PEC-slack wear policy, over `n_lpas`
    public pages; returns the FTL, the volume and a host's exposure."""
    import numpy as np
    from repro.ecc.page import PagePipeline
    from repro.ftl import Ftl
    from repro.hiding import STANDARD_CONFIG, VtHi
    from repro.stego import HiddenVolume

    pipeline = PagePipeline(chip.geometry.cells_per_page, ecc_m=13, ecc_t=8)
    ftl = Ftl(chip, pipeline, overprovision_blocks=4)
    vthi = VtHi(
        chip,
        STANDARD_CONFIG.replace(bits_per_page=512, ecc_m=10, ecc_t=18),
        public_codec=pipeline,
    )
    policy = WearBandPolicy(chip, slack_pec=300)
    volume = HiddenVolume(ftl, vthi, key, wear_policy=policy)
    rng = np.random.default_rng(0)
    for lpa in range(n_lpas):
        ftl.write(lpa, bytes(rng.integers(0, 256, lpa_bytes).astype(np.uint8)))

    def exposure(host):
        blocks = {loc[0] for loc, _ in ftl.page_map.valid_locations()}
        return policy.exposure(host, public_wear_band(chip, blocks))

    return ftl, volume, exposure


class TestVolumeIntegration:
    def test_volume_respects_the_band(self, chip, key):
        _, volume, exposure = policy_volume(chip, key, 30, 100)
        volume.write(0, b"in band")
        assert exposure(volume._slots[0][0]) <= 300
        assert volume.read(0) == b"in band"


class TestRescueRespectsTheBand:
    """Blocks at 1000 PEC, except block 0 at PEC 0: the wear outlier
    §7's SVM would spot.  Rescued slots must stay inside the band."""

    @pytest.fixture
    def worn(self, chip, key):
        for block in range(1, chip.geometry.n_blocks):
            chip.age_block(block, 1000)
        ftl, volume, exposure = policy_volume(chip, key, 60, 400)
        volume.write(0, b"stay inconspicuous")
        return ftl, volume, exposure

    def test_invalidated_host_rescues_inside_the_band(self, worn):
        ftl, volume, exposure = worn
        host = volume._slots[0][0]
        ftl.trim(next(lpa for lpa in range(60) if ftl.locate(lpa) == host))
        assert volume._slots[0][0] != host
        assert exposure(volume._slots[0][0]) <= 300
        assert volume.read(0) == b"stay inconspicuous"

    def test_out_of_band_relocation_target_is_refused(self, worn):
        ftl, volume, exposure = worn
        host = volume._slots[0][0]
        outlier = min(loc for loc, _ in ftl.page_map.valid_locations())
        assert exposure(outlier) > 300
        volume._on_relocation(0, host, outlier)  # GC's offered target
        assert volume._slots[0][0] not in (host, outlier)
        assert exposure(volume._slots[0][0]) <= 300
        assert volume.read(0) == b"stay inconspicuous"
