"""Retention and disturb-overlay models, through the cached latent
fields the chip reads with."""

import numpy as np
import pytest

from repro.nand.params import RetentionModel
from repro.nand.retention import (
    disturb_field,
    disturb_flips_from_field,
    leak_field,
    leakage_from_field,
    leaky_fraction,
    time_factor,
)
from repro.units import DAY, MONTH


MODEL = RetentionModel()


def page_leakage(model, *, elapsed_s, **field_kwargs):
    """A page's leakage as the chip computes it: latents, then loss."""
    field = leak_field(model, **field_kwargs)
    return leakage_from_field(model, field, elapsed_s=elapsed_s)


def page_flip_mask(*, flip_probability, **field_kwargs):
    """A page's read-disturb flips as the chip computes them."""
    return disturb_flips_from_field(
        disturb_field(**field_kwargs), flip_probability
    )


class TestLeakyFraction:
    def test_base_at_pec_zero(self):
        assert leaky_fraction(MODEL, 0) == pytest.approx(
            MODEL.leaky_frac_base
        )

    def test_reference_point(self):
        assert leaky_fraction(MODEL, 2000) == pytest.approx(
            MODEL.leaky_frac_base + MODEL.leaky_frac_at_2kpec
        )

    def test_monotone_in_pec(self):
        values = [leaky_fraction(MODEL, pec) for pec in (0, 500, 1000, 3000)]
        assert values == sorted(values)

    def test_capped(self):
        assert leaky_fraction(MODEL, 10**6) <= 0.9


class TestTimeFactor:
    def test_zero_at_zero(self):
        assert time_factor(MODEL, 0.0) == 0.0
        assert time_factor(MODEL, -5.0) == 0.0

    def test_one_at_reference(self):
        assert time_factor(MODEL, MODEL.reference_time_s) == pytest.approx(1.0)

    def test_monotone_saturating(self):
        f1 = time_factor(MODEL, DAY)
        f2 = time_factor(MODEL, MONTH)
        f3 = time_factor(MODEL, 4 * MONTH)
        assert 0 < f1 < f2 < f3
        # log-time: the 1-day -> 1-month jump beats 1 -> 4 months
        assert (f2 - f1) > (f3 - f2)


class TestLeakage:
    def kwargs(self, **overrides):
        base = dict(
            chip_seed=7, block=0, page=0, epoch=1, elapsed_s=4 * MONTH,
            pec_at_program=2000, n_cells=50_000,
        )
        base.update(overrides)
        return base

    def test_deterministic(self):
        a = page_leakage(MODEL, **self.kwargs())
        b = page_leakage(MODEL, **self.kwargs())
        assert np.array_equal(a, b)

    def test_monotone_in_time(self):
        early = page_leakage(MODEL, **self.kwargs(elapsed_s=DAY))
        late = page_leakage(MODEL, **self.kwargs(elapsed_s=4 * MONTH))
        assert (late >= early - 1e-6).all()

    def test_zero_before_any_time(self):
        none = page_leakage(MODEL, **self.kwargs(elapsed_s=0.0))
        assert (none == 0).all()

    def test_worn_cells_leak_more(self):
        fresh = page_leakage(MODEL, **self.kwargs(pec_at_program=0))
        worn = page_leakage(MODEL, **self.kwargs(pec_at_program=2000))
        assert worn.mean() > fresh.mean() * 2

    def test_leaky_population_size(self):
        leak = page_leakage(MODEL, **self.kwargs())
        frac = leaky_fraction(MODEL, 2000)
        baseline = MODEL.baseline_drift_4mo
        heavy = (leak > baseline + 1.0).mean()
        assert heavy == pytest.approx(frac * np.exp(-1.0 / MODEL.leak_scale_4mo),
                                      rel=0.25)


class TestDisturbMask:
    def test_zero_probability_is_empty(self):
        mask = page_flip_mask(
            chip_seed=1, block=0, page=0, epoch=0,
            flip_probability=0.0, n_cells=1000,
        )
        assert not mask.any()

    def test_rate_matches_probability(self):
        mask = page_flip_mask(
            chip_seed=1, block=0, page=0, epoch=0,
            flip_probability=0.01, n_cells=200_000,
        )
        assert mask.mean() == pytest.approx(0.01, rel=0.15)

    def test_monotone_in_probability(self):
        low = page_flip_mask(
            chip_seed=1, block=0, page=0, epoch=0,
            flip_probability=0.001, n_cells=100_000,
        )
        high = page_flip_mask(
            chip_seed=1, block=0, page=0, epoch=0,
            flip_probability=0.01, n_cells=100_000,
        )
        # raising exposure can only add flips
        assert (high | low).sum() == high.sum()


class TestChipRetention:
    def test_hidden_margin_cells_flip_before_public(self, chip, key,
                                                    random_page):
        """Cells just above the hiding threshold lose data before public
        cells do — the §8 reliability asymmetry."""
        from repro.hiding import STANDARD_CONFIG, VtHi
        import numpy as np

        config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=256)
        vthi = VtHi(chip, config)
        chip.age_block(0, 2000)
        public = random_page(0)
        hidden = (np.random.default_rng(3).random(256) < 0.5).astype(np.uint8)
        chip.program_page(0, 0, public)
        vthi.embed_bits(0, 0, hidden, key, public_bits=public)
        h0 = (vthi.read_bits(0, 0, 256, key, public_bits=public) != hidden).mean()
        n0 = (chip.read_page(0, 0) != public).mean()
        chip.advance_time(4 * MONTH)
        h1 = (vthi.read_bits(0, 0, 256, key, public_bits=public) != hidden).mean()
        n1 = (chip.read_page(0, 0) != public).mean()
        assert h1 > h0  # hidden degrades
        # hidden degrades by more than public in absolute terms
        assert (h1 - h0) > (n1 - n0)
