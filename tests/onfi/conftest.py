"""Shared fixtures: an in-process chip and a served twin of it."""

import numpy as np
import pytest

from repro.nand import TEST_MODEL, FlashChip
from repro.onfi import RemoteChip, spawn_chip_server

SEED = 11


@pytest.fixture
def geometry():
    return TEST_MODEL.geometry


@pytest.fixture
def local():
    return FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=SEED)


@pytest.fixture
def served():
    """A RemoteChip and the chip its thread-backend server holds."""
    sock, handle = spawn_chip_server(
        TEST_MODEL.geometry, TEST_MODEL.params, seed=SEED, backend="thread"
    )
    chip = RemoteChip(sock, TEST_MODEL.geometry, TEST_MODEL.params)
    yield chip, handle.chip
    chip.close()
    handle.close()


@pytest.fixture
def remote(served):
    return served[0]


def page_bits(geometry, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(geometry.cells_per_page) < 0.5).astype(np.uint8)
