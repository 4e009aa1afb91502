"""NAND chip-simulator op throughput on block-shaped workloads → BENCH_chip.json.

Times the chip data plane at ``pages_per_block``-sized batches on
``BENCH_MODEL`` (full paper page size, 16 pages per block), the workload
shape every fleet/adversary experiment issues:

- ``program_batch`` / ``program_scalar``: whole-block public program via
  ``program_pages`` vs the single-page loop (an erase-only loop is
  subtracted; an erase draws no row, so each program's first-touch
  draw of its erased row counts here);
- ``probe_batch`` / ``probe_scalar``: per-cell voltage measurement of a
  worn, time-aged block (the retention-leak path is active) — the VT-HI
  embed/extract hot path;
- ``read_batch`` / ``read_scalar``: threshold reads of the same block;
- ``read_repeat``: the same unchanged page read over and over — the case
  the per-(page, epoch) latent-field caches exist for;
- ``read_uncached``: the same reads with the clock nudged before each
  one, forcing the per-read leakage recompute the caches normally skip —
  the cache-effectiveness control for ``read_repeat``;
- ``partial_program``: repeated PP pulses on one page (the Algorithm 1
  inner op);
- ``partial_program_cold``: the first pulse of the same cells on each
  freshly programmed page of a block — what every Fig. 6 page and
  fleet embed pays, and what ``partial_program``'s repeats of one page
  hide;
- ``cycle``: one real program/erase cycle with pseudorandom data;
- ``mixed_embed_extract``: an end-to-end scenario — program a block,
  VT-HI-embed hidden bits into every page, bake, extract them back.

Every run first verifies the batch ops are bit-identical to the
single-page loops (voltages, probe, readback and ``OpCounters``), that
the cell forms of probe and read equal the full-page rows indexed
(counters included), that erasing a block the chip never touched
equals touching it and then erasing it, and that a chip drawing its
erased rows on first touch equals one forced to draw every row after
each op.

Usage::

    PYTHONPATH=src python benchmarks/bench_chip.py [output.json]
    PYTHONPATH=src python benchmarks/bench_chip.py --tiny      # CI smoke
    PYTHONPATH=src python benchmarks/bench_chip.py --before old.json

``--tiny`` shrinks the workload to the test model so the whole script runs
in seconds; it still verifies batch==scalar equivalence on every op and
asserts the latent-field caches keep repeated same-clock reads >= 2x
faster than the forced-recompute control.  (Batch-vs-scalar wall-clock is
no longer asserted: the caches accelerate the scalar loop just as much,
so the two paths are expected to tie.)
``--before`` embeds a previously saved baseline and asserts the
vectorisation floors of ISSUE 6: >= 3x batched program, >= 5x batched
probe/read, >= 10x repeated reads of an unchanged page.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.crypto.keys import HidingKey
from repro.hiding import STANDARD_CONFIG, VtHi
from repro.nand import BENCH_MODEL, TEST_MODEL, FlashChip, bake
from repro.rng import substream

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chip.json"

FULL = dict(model=BENCH_MODEL, repeats=3, reads_per_page=24, hidden_bits=256)
TINY = dict(model=TEST_MODEL, repeats=3, reads_per_page=24, hidden_bits=64)

#: Wear level and post-program age used for the probe/read workloads: a
#: mid-life block read a month after programming, so the retention-leak
#: and disturb-overlay paths are both active.
WORKLOAD_PEC = 2000
WORKLOAD_AGE_S = 30 * 24 * 3600.0

#: Batch-vs-before floors (ISSUE 6 acceptance), checked under ``--before``.
BEFORE_FLOORS = {
    "program_batch": 3.0,
    "probe_batch": 5.0,
    "read_batch": 5.0,
    "read_repeat": 10.0,
}

#: Cache-effectiveness floors checked in ``--tiny`` CI smoke mode:
#: (slow control, cached path) -> minimum speedup of the cached path.
TINY_FLOORS = {("read_uncached", "read_repeat"): 2.0}


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _block_bits(model, seed=1234):
    geometry = model.geometry
    rng = substream(seed, "bench-chip-pattern")
    return (
        rng.random((geometry.pages_per_block, geometry.cells_per_page)) < 0.5
    ).astype(np.uint8)


def _fresh_chip(model, seed=7):
    return FlashChip(model.geometry, model.params, seed=seed)


def _aged_programmed_chip(model, bits, seed=7):
    """A chip with block 0 worn, fully programmed, and aged one month."""
    chip = _fresh_chip(model, seed)
    chip.age_block(0, WORKLOAD_PEC)
    chip.program_pages(0, list(range(model.geometry.pages_per_block)), bits)
    chip.advance_time(WORKLOAD_AGE_S)
    return chip


def _counters_tuple(chip):
    c = chip.counters
    return (c.reads, c.programs, c.erases, c.partial_programs,
            c.busy_time_s, c.energy_j)


def verify_batch_equivalence(model) -> None:
    """Batch ops must be bit-identical to the single-page loops, cell
    forms to the full-page rows, a fresh erase to touch-then-erase."""
    geometry = model.geometry
    pages = list(range(geometry.pages_per_block))
    bits = _block_bits(model)
    batch_chip, loop_chip = _fresh_chip(model), _fresh_chip(model)
    for chip in (batch_chip, loop_chip):
        chip.age_block(0, WORKLOAD_PEC)
    batch_chip.program_pages(0, pages, bits)
    for page in pages:
        loop_chip.program_page(0, page, bits[page])
    np.testing.assert_array_equal(
        batch_chip._block(0).voltages, loop_chip._block(0).voltages,
        err_msg="program_pages diverged from the program_page loop",
    )
    for chip in (batch_chip, loop_chip):
        chip.advance_time(WORKLOAD_AGE_S)
    np.testing.assert_array_equal(
        batch_chip.probe_voltages_batch(0, pages),
        np.stack([loop_chip.probe_voltages(0, p) for p in pages]),
        err_msg="probe_voltages_batch diverged from the probe loop",
    )
    np.testing.assert_array_equal(
        batch_chip.read_pages(0, pages),
        np.stack([loop_chip.read_page(0, p) for p in pages]),
        err_msg="read_pages diverged from the read_page loop",
    )
    assert _counters_tuple(batch_chip) == _counters_tuple(loop_chip), (
        "batched ops accounted different OpCounters than the loops"
    )
    # Cell forms on the same worn, aged block (leak path active): page
    # p lists a 1/(p+1) share of its cells in keyed order, the whole
    # page for page 0, so the disturb flips are covered.
    rng = substream(1234, "bench-chip-cells")
    n_cells = geometry.cells_per_page
    cells = [
        rng.permutation(n_cells)[: n_cells // (page + 1)] for page in pages
    ]
    locations = [(0, page) for page in pages]
    full = (
        loop_chip.probe_voltages_locations(locations),
        loop_chip.read_locations(locations),
    )
    by_cells = (
        batch_chip.probe_voltages_locations(locations, cells=cells),
        batch_chip.read_locations(locations, cells=cells),
    )
    for name, full_rows, cell_rows in zip(("probe", "read"), full, by_cells):
        for full_row, cell_row, index in zip(full_rows, cell_rows, cells):
            np.testing.assert_array_equal(
                cell_row, full_row[index],
                err_msg=f"cell-form {name} diverged from the full-page rows",
            )
    assert _counters_tuple(batch_chip) == _counters_tuple(loop_chip), (
        "cell forms accounted different OpCounters than full-page calls"
    )
    # An erase of a block the chip never touched must leave what drawing
    # its epoch-0 rows and then erasing leaves.
    fresh, touched = _fresh_chip(model), _fresh_chip(model)
    touched._block(1).voltages
    for chip in (fresh, touched):
        chip.age_block(1, WORKLOAD_PEC)
    np.testing.assert_array_equal(
        fresh._block(1).voltages, touched._block(1).voltages,
        err_msg="erasing an untouched block diverged from touch-then-erase",
    )
    assert _counters_tuple(fresh) == _counters_tuple(touched)
    verify_lazy_equals_eager(model, bits)


def verify_lazy_equals_eager(model, bits) -> None:
    """A chip drawing erased rows on first touch must equal one forced
    eager — every owed row drawn, through ``BlockState.voltages`` —
    after each op: outputs, voltages and ``OpCounters``."""
    geometry = model.geometry
    pages = list(range(0, geometry.pages_per_block, 2))
    cells = np.arange(0, geometry.cells_per_page, 97)
    ops = [
        lambda chip: chip.age_block(0, WORKLOAD_PEC),
        lambda chip: chip.program_pages(0, pages, bits[pages]),
        lambda chip: chip.partial_program(0, pages[0], cells),
        lambda chip: chip.advance_time(WORKLOAD_AGE_S),
        lambda chip: chip.read_locations([(0, 1), (0, pages[-1])]),
        lambda chip: chip.probe_voltages_locations([(0, 3)], cells=[cells]),
        lambda chip: chip.erase_block(0),
        lambda chip: chip.probe_voltages(0, 1),
    ]
    lazy, eager = _fresh_chip(model), _fresh_chip(model)
    for op in ops:
        lazy_out, eager_out = op(lazy), op(eager)
        np.testing.assert_equal(
            lazy_out, eager_out,
            err_msg="a lazily drawn chip answered differently",
        )
        eager._block(0).voltages
    assert lazy._block(0).owed.any(), "the lazy chip drew every row"
    np.testing.assert_array_equal(
        lazy._block(0).voltages, eager._block(0).voltages,
        err_msg="rows drawn on first touch differ from rows drawn eagerly",
    )
    assert _counters_tuple(lazy) == _counters_tuple(eager)


def collect(params) -> dict:
    model = params["model"]
    geometry = model.geometry
    repeats = params["repeats"]
    pages = list(range(geometry.pages_per_block))
    page_mb = geometry.page_bytes / 1e6
    bits = _block_bits(model)

    verify_batch_equivalence(model)

    results = {}

    def record(name, seconds, n_pages):
        results[name] = {
            "seconds": round(seconds, 6),
            "pages_per_s": round(n_pages / seconds, 1),
            "mb_per_s": round(n_pages * page_mb / seconds, 2),
        }

    # --- program -----------------------------------------------------
    chip = _fresh_chip(model)
    chip.age_block(0, WORKLOAD_PEC)

    def program_batch():
        chip.program_pages(0, pages, bits)
        chip.erase_block(0)  # subtracted below via the erase-only loop

    erase_only = _time(lambda: chip.erase_block(0), repeats)
    chip.age_block(0, WORKLOAD_PEC)  # restore wear after timing erases
    record(
        "program_batch",
        max(_time(program_batch, repeats) - erase_only, 1e-9),
        len(pages),
    )

    loop_chip = _fresh_chip(model)
    loop_chip.age_block(0, WORKLOAD_PEC)

    def program_scalar():
        for page in pages:
            loop_chip.program_page(0, page, bits[page])
        loop_chip.erase_block(0)

    record(
        "program_scalar",
        max(_time(program_scalar, repeats) - erase_only, 1e-9),
        len(pages),
    )

    # --- probe / read ------------------------------------------------
    chip = _aged_programmed_chip(model, bits)
    record(
        "probe_batch",
        _time(lambda: chip.probe_voltages_batch(0, pages), repeats),
        len(pages),
    )
    record(
        "read_batch",
        _time(lambda: chip.read_pages(0, pages), repeats),
        len(pages),
    )
    loop_chip = _aged_programmed_chip(model, bits)
    record(
        "probe_scalar",
        _time(
            lambda: [loop_chip.probe_voltages(0, p) for p in pages], repeats
        ),
        len(pages),
    )
    record(
        "read_scalar",
        _time(lambda: [loop_chip.read_page(0, p) for p in pages], repeats),
        len(pages),
    )

    # --- repeated reads of one unchanged page ------------------------
    chip = _aged_programmed_chip(model, bits)
    chip.read_page(0, 0)  # settle any lazy state before timing
    n_reads = params["reads_per_page"]

    def read_repeat():
        for _ in range(n_reads):
            chip.read_page(0, 0)

    record("read_repeat", _time(read_repeat, repeats), n_reads)

    # Control for read_repeat: nudging the clock before every read makes
    # each one a cache miss on the effective-voltage row, so the leakage
    # evaluation runs per read as it did before the latent caches.
    evict_chip = _aged_programmed_chip(model, bits)
    evict_chip.read_page(0, 0)

    def read_uncached():
        for _ in range(n_reads):
            evict_chip.advance_time(1e-6)
            evict_chip.read_page(0, 0)

    record("read_uncached", _time(read_uncached, repeats), n_reads)

    # --- partial program ---------------------------------------------
    chip = _aged_programmed_chip(model, bits)
    cells = np.arange(min(1024, geometry.cells_per_page), dtype=np.int64)
    n_pulses = 8

    def pp_pulses():
        for _ in range(n_pulses):
            chip.partial_program(0, 0, cells, fraction=1.0)

    record("partial_program", _time(pp_pulses, repeats), n_pulses)

    cold_chips = [_aged_programmed_chip(model, bits) for _ in range(repeats)]

    def pp_first_pulses():
        chip = cold_chips.pop()
        for page in pages:
            chip.partial_program(0, page, cells, fraction=1.0)

    record(
        "partial_program_cold", _time(pp_first_pulses, repeats), len(pages)
    )

    # --- full program/erase cycle ------------------------------------
    chip = _fresh_chip(model)
    record("cycle", _time(lambda: chip.cycle_block(0, 1), repeats), len(pages))

    # --- mixed embed -> bake -> extract scenario ---------------------
    n_hidden = params["hidden_bits"]
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=n_hidden)
    key = HidingKey.generate(b"bench-chip-key")
    hiddens = [
        (substream(99, "bench-hidden", p).random(n_hidden) < 0.5).astype(
            np.uint8
        )
        for p in pages
    ]

    def mixed():
        chip = _fresh_chip(model)
        chip.age_block(0, WORKLOAD_PEC)
        chip.program_pages(0, pages, bits)
        vthi = VtHi(chip, config)
        vthi.embed_locations(
            [(0, page) for page in pages], hiddens, key,
            public_bits=list(bits),
        )
        bake(chip, bake_temp_c=125.0, duration_s=3600.0)
        for i, page in enumerate(pages):
            recovered = vthi.read_bits(
                0, page, n_hidden, key, public_bits=bits[page]
            )
            assert recovered.shape == hiddens[i].shape
        return chip

    record("mixed_embed_extract", _time(mixed, repeats), len(pages))

    return {
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workload": {
            "model": model.name,
            "pages_per_block": geometry.pages_per_block,
            "cells_per_page": geometry.cells_per_page,
            "page_bytes": geometry.page_bytes,
            "pec": WORKLOAD_PEC,
            "age_s": WORKLOAD_AGE_S,
            "repeats": repeats,
            "reads_per_page": params["reads_per_page"],
            "hidden_bits": params["hidden_bits"],
        },
        "benchmarks": results,
    }


def check_tiny_floors(report: dict) -> None:
    benchmarks = report["benchmarks"]
    for (control, cached), floor in TINY_FLOORS.items():
        speedup = (
            benchmarks[control]["seconds"] / benchmarks[cached]["seconds"]
        )
        assert speedup >= floor, (
            f"{cached} is only {speedup:.2f}x faster than the {control} "
            f"control (floor {floor}x)"
        )
        print(f"  {cached} vs {control}: {speedup:.2f}x (floor {floor}x)")


def apply_before(report: dict, before: dict) -> None:
    """Embed a prior baseline and check the ISSUE 6 vectorisation floors."""
    speedups = {}
    for name, entry in report["benchmarks"].items():
        old = before.get("benchmarks", {}).get(name)
        if old is None:
            continue
        speedups[name] = round(old["seconds"] / entry["seconds"], 2)
    report["before"] = {
        "benchmarks": before["benchmarks"],
        "machine": before.get("machine", {}),
    }
    report["speedup_vs_before"] = speedups
    for name, floor in BEFORE_FLOORS.items():
        speedup = speedups.get(name)
        assert speedup is not None, f"baseline lacks benchmark {name!r}"
        assert speedup >= floor, (
            f"{name}: {speedup:.2f}x vs before (floor {floor}x)"
        )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    before_path = None
    if "--before" in argv:
        index = argv.index("--before")
        before_path = Path(argv[index + 1])
        del argv[index:index + 2]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT

    report = collect(TINY if tiny else FULL)
    for name, entry in report["benchmarks"].items():
        print(
            f"  {name}: {entry['seconds'] * 1e3:.2f} ms "
            f"({entry['pages_per_s']:.0f} pages/s, "
            f"{entry['mb_per_s']:.1f} MB/s)"
        )
    if tiny:
        check_tiny_floors(report)
        print(
            "tiny chip smoke OK (batch == scalar, cell forms == full "
            "rows, fresh erase == touch-then-erase, lazy rows == eager "
            "rows, floors hold)"
        )
        return 0
    if before_path is not None:
        apply_before(report, json.loads(before_path.read_text()))
        for name, speedup in sorted(report["speedup_vs_before"].items()):
            print(f"  {name}: {speedup}x vs before")
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
