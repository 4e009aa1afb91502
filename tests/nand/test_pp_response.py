"""The partial-programming response and pulse noise as per-cell fields.

``FlashChip._pp_draws(state, page, cells, pulses)`` evaluates each
cell's programming-speed factor, and the normals of the page's `pulses`,
from counter-based draws
(:func:`repro.rng.counter_words`): a cell's value depends on the chip
seed, block, page, cell and (for the wear part and the pulses) erase
epoch, never on which other cells or pulses are asked for.  These tests
pin that contract, the fields' distributions against the stream recipes
they replaced, and that a pulse keeps no page-size array.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hiding import STANDARD_CONFIG
from repro.nand import BENCH_MODEL, TEST_MODEL, FlashChip
from repro.rng import box_muller, counter_words, substream, word_uniforms

PP = TEST_MODEL.params.partial_program
CELLS = TEST_MODEL.geometry.cells_per_page
PAGES = TEST_MODEL.geometry.pages_per_block


def pp_response(chip, state, page, cells):
    """The page's PP response at `cells` (no pulse normals)."""
    return chip._pp_draws(state, page, cells)[0]


def full_page(chip, block, page):
    """The field at every cell of a page."""
    return pp_response(chip, chip._block(block), page, np.arange(CELLS))


def aged_chip(pec, seed=7, params=TEST_MODEL.params):
    chip = FlashChip(TEST_MODEL.geometry, params, seed=seed)
    for block in range(3):
        if pec:
            chip.age_block(block, pec)
    return chip


def stream_recipe(seed, block, page, pec, epoch, n):
    """The page-size stream draw the field replaced (two PCG64
    lognormals and one uniform per page), kept as the reference."""
    rng = substream(seed, "pp-response", block, page)
    response = rng.lognormal(0.0, PP.response_sigma, n)
    response[rng.random(n) < PP.hard_cell_frac] = PP.hard_cell_response
    wear_sigma = PP.wear_response_sigma_per_kpec * pec / 1000.0
    if wear_sigma > 0:
        wear = substream(seed, "pp-wear", block, page, epoch)
        response *= wear.lognormal(0.0, wear_sigma, n)
    return np.minimum(response, PP.response_cap)


def ks_statistic(a, b):
    """Two-sample Kolmogorov–Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def binomial_bounds(n, p, z=3.29):
    """Two-sided 99.9% normal-approximation bounds on a binomial count."""
    spread = z * math.sqrt(n * p * (1.0 - p))
    return n * p - spread, n * p + spread


def upper_tail(sigma, level):
    """P(lognormal(0, sigma) >= level)."""
    return 0.5 * math.erfc(math.log(level) / sigma / math.sqrt(2.0))


@pytest.mark.parametrize("pec", [0, 2000])
def test_distribution_matches_the_stream_recipe(pec):
    chip = aged_chip(pec)
    field, reference = [], []
    for block in range(3):
        epoch = chip._block(block).erase_epoch
        for page in range(PAGES):
            field.append(full_page(chip, block, page))
            reference.append(
                stream_recipe(7, block, page, pec, epoch, CELLS)
            )
    field = np.concatenate(field)
    reference = np.concatenate(reference)
    n = field.size
    assert n >= 200_000
    # alpha = 0.001: c(alpha) = sqrt(-ln(alpha / 2) / 2).
    critical = math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / n)
    assert ks_statistic(field, reference) < critical

    capped = np.count_nonzero(field == PP.response_cap)
    if pec == 0:
        hard = np.count_nonzero(field == PP.hard_cell_response)
        low, high = binomial_bounds(n, PP.hard_cell_frac)
        assert low <= hard <= high
        p_cap = upper_tail(PP.response_sigma, PP.response_cap)
    else:
        wear = PP.wear_response_sigma_per_kpec * pec / 1000.0
        sigma = math.hypot(PP.response_sigma, wear)
        p_cap = upper_tail(sigma, PP.response_cap)
    low, high = binomial_bounds(n, p_cap * (1.0 - PP.hard_cell_frac))
    assert low <= capped <= high


def test_manufacturing_part_survives_an_erase_and_the_wear_part_does_not():
    no_wear = replace(
        TEST_MODEL.params,
        partial_program=replace(PP, wear_response_sigma_per_kpec=0.0),
    )
    for params, same in ((no_wear, True), (TEST_MODEL.params, False)):
        chip = aged_chip(2000, params=params)
        first = full_page(chip, 1, 3)
        chip.erase_block(1)
        second = full_page(chip, 1, 3)
        if same:
            np.testing.assert_array_equal(first, second)
        else:
            moved = (first != second) | (first == PP.response_cap)
            assert moved.mean() > 0.99
            # What the epochs share is the manufacturing part.
            assert np.corrcoef(np.log(first), np.log(second))[0, 1] > 0.1


def test_neighbouring_cells_pages_and_blocks_are_uncorrelated():
    chip = FlashChip(BENCH_MODEL.geometry, BENCH_MODEL.params, seed=3)
    chip.age_block(0, 2000)
    chip.age_block(1, 2000)
    everywhere = np.arange(BENCH_MODEL.geometry.cells_per_page)

    def field(block, page):
        return pp_response(chip, chip._block(block), page, everywhere)

    pairs = {
        "cells": [(f[:-1], f[1:]) for f in (field(0, 0), field(0, 2))],
        "pages": [(field(0, 0), field(0, 1)), (field(0, 2), field(0, 3))],
        "blocks": [(field(0, 0), field(1, 0)), (field(0, 1), field(1, 1))],
    }
    for kind, halves in pairs.items():
        left = np.concatenate([a for a, _ in halves])
        right = np.concatenate([b for _, b in halves])
        assert left.size >= 200_000
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.01, kind


@pytest.fixture(scope="module")
def states():
    """Pages in four regimes: fresh, worn, stressed, worn and stressed."""
    chip = FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=29)
    chip.age_block(1, 2000)
    stressed = {2: np.arange(0, CELLS, 3), 5: np.arange(1, CELLS, 7)}
    chip.apply_stress(2, stressed, cycles=40)
    chip.age_block(3, 1500)
    chip.apply_stress(3, stressed, cycles=40)
    return chip, [(0, 4), (1, 6), (2, 2), (2, 5), (3, 5)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_subset_in_any_order_equals_the_whole_page(states, data):
    chip, pages = states
    block, page = data.draw(st.sampled_from(pages), label="page")
    cells = data.draw(
        st.lists(
            st.integers(0, CELLS - 1), min_size=1, max_size=2000, unique=True
        ),
        label="cells",
    )
    cells = np.array(cells, dtype=np.int64)
    whole = full_page(chip, block, page)
    np.testing.assert_array_equal(
        pp_response(chip, chip._block(block), page, cells), whole[cells]
    )


@pytest.mark.parametrize("size", [1, 3, 7, 9, 15, 17, 31, 33, 63, 65, 1999])
def test_odd_lengths_equal_the_whole_page(states, size):
    """numpy's SIMD loops handle array tails apart from the body."""
    chip, pages = states
    rng = np.random.default_rng(size)
    for block, page in pages:
        whole = full_page(chip, block, page)
        for offset in range(3):
            cells = rng.choice(CELLS, size=size, replace=False)
            got = pp_response(chip, chip._block(block), page, cells[offset:])
            np.testing.assert_array_equal(got, whole[cells[offset:]])


def test_counter_uniforms_depend_only_on_seed_cell_and_lane():
    """The uniforms of counter words, as the PP response takes them."""
    def uniforms(cells, keys):
        return word_uniforms(counter_words(cells, keys))

    cells = np.arange(5000)
    keys = [(11, 0), (11, 1), (12, 0), (11, 3)]
    table = uniforms(cells, keys)
    assert table.shape == (4, 5000) and table.dtype == np.float64
    assert table.min() >= 0.0 and table.max() < 1.0
    picked = np.array([4999, 0, 17, 4998, 17 * 3])
    np.testing.assert_array_equal(
        uniforms(picked, keys[::-1]), table[::-1][:, picked]
    )
    assert len({row.tobytes() for row in table}) == 4
    normals = box_muller(table[0], table[1])
    assert abs(normals.mean()) < 0.06 and abs(normals.std() - 1.0) < 0.05


def test_embed_on_a_paper_size_page_keeps_no_page_size_array():
    chip = FlashChip(BENCH_MODEL.geometry, BENCH_MODEL.params, seed=13)
    n_cells = BENCH_MODEL.geometry.cells_per_page
    public = (substream(13, "memory-public").random(n_cells) < 0.5)
    chip.program_page(0, 0, public.astype(np.uint8))
    ones = np.flatnonzero(public)
    cells = substream(13, "memory-cells").choice(ones, 640, replace=False)
    config = STANDARD_CONFIG
    tracemalloc.start()
    try:
        outcome = chip.embed_locations(
            [(0, 0, cells)], config.threshold + config.guard, config.pp_steps,
            fraction=config.pp_fraction,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome[0][0] >= 1
    assert peak < 64 * 1024


def test_pulse_normals_depend_only_on_pulse_and_cell(states):
    """A pulse's normals are pure in (pulse count, cell): pulses
    evaluated together or one by one, at any cells in any order, and
    with or without the response, agree; the response does not move."""
    chip, pages = states
    rng = np.random.default_rng(5)
    everywhere = np.arange(CELLS)
    for block, page in pages:
        state = chip._block(block)
        whole = chip._pulse_normals(state, page, everywhere, range(3, 9))
        assert whole.shape == (6, CELLS) and whole.dtype == np.float32
        cells = rng.choice(CELLS, size=301, replace=False)
        one_by_one = np.stack([
            chip._pulse_normals(state, page, cells, range(n, n + 1))[0]
            for n in range(3, 9)
        ])
        np.testing.assert_array_equal(one_by_one, whole[:, cells])
        response, normals = chip._pp_draws(state, page, cells, range(5, 7))
        np.testing.assert_array_equal(normals, whole[2:4, cells])
        np.testing.assert_array_equal(
            response, pp_response(chip, state, page, cells)
        )


def test_pulse_normals_are_independent_standard_normals():
    chip = aged_chip(0, seed=41)
    everywhere = np.arange(CELLS)
    normals = np.concatenate([
        chip._pulse_normals(chip._block(block), page, everywhere, range(8))
        for block in range(2) for page in range(PAGES)
    ], axis=1).astype(np.float64)
    n = normals.size
    assert n >= 500_000
    reference = substream(41, "pulse-reference").standard_normal(n)
    critical = math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / n)
    assert ks_statistic(normals.ravel(), reference) < critical
    # Successive pulses, and neighbouring cells, are uncorrelated.
    assert abs(np.corrcoef(normals[:-1].ravel(), normals[1:].ravel())[0, 1]) < 0.01
    assert abs(np.corrcoef(normals[:, :-1].ravel(), normals[:, 1:].ravel())[0, 1]) < 0.01
