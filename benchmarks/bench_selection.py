"""Hidden-cell selection and keystream cost → BENCH_selection.json.

Algorithm 1 never stores the hidden-cell map: every embed and every read
recomputes it from the key and the page number.  This script times one
``select_cells`` call at the three page shapes the repo selects on, and
one 12 KiB keystream draw (``KeyedPrng.bytes``):

- ``fleet``: 1,504-cell fleet host pages, 639 coded bits;
- ``fig6``: the Fig. 6 sweep's 36,096-cell pages, 128 bits;
- ``paper``: paper-size 144,384-cell pages, 639 bits;
- ``keystream_12kib``: 12,288 bytes from a fresh stream.

Each shape's pages are seeded random public pages, half of their bits
'1'.  A call's time is the best of ``REPEATS`` passes over
``PAGES_PER_SHAPE`` pages, in microseconds.

Usage::

    # this tree's timings only (run it against another tree with
    # PYTHONPATH pointing at that tree's src):
    PYTHONPATH=src python benchmarks/bench_selection.py --measure before.json
    # time this tree, compare with --before FILE (measured in the same
    # session) or the record's "before", and write the record:
    PYTHONPATH=src python benchmarks/bench_selection.py [--before FILE] [OUT]
    # CI smoke: the walk equals the scalar reference at every shape:
    PYTHONPATH=src python benchmarks/bench_selection.py --tiny

Every mode except ``--measure`` first checks ``select_cells`` against a
scalar, one-word-at-a-time walk of the keyed order at every shape.
With ``--before`` the full run also checks the speedup floors
(``FLOORS``); ``--tiny`` checks no timing, since timing ratios flip on
noise on small CI machines.  Exit status 1 if a check fails.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.crypto import HidingKey, KeyedPrng
from repro.hiding import select_cells

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_selection.json"
)

#: Shape -> (cells per page, hidden bits per page).
SHAPES = {
    "fleet": (1_504, 639),
    "fig6": (36_096, 128),
    "paper": (144_384, 639),
}
KEYSTREAM_BYTES = 12 * 1024
PAGES_PER_SHAPE = 16
REPEATS = 7
#: Minimum before/after speedup per entry, checked with ``--before``.
FLOORS = {"fleet": 3.0, "fig6": 2.0, "paper": 3.0}

KEY = HidingKey.generate(b"bench-selection")


def pages(population: int, n: int = PAGES_PER_SHAPE) -> list:
    """`n` seeded public pages, each bit '1' with probability 1/2."""
    rng = np.random.default_rng(population)
    return [
        (address, (rng.random(population) < 0.5).astype(np.uint8))
        for address in range(n)
    ]


def reference_walk(page_address: int, bits: np.ndarray, count: int):
    """The first `count` '1' cells of the page's keyed order, drawn one
    32-bit word at a time (``repro.crypto.prng`` defines the order)."""
    prng = KEY.selection_prng().for_page(page_address)
    limit = (1 << 32) - (1 << 32) % bits.size
    chosen, seen = [], set()
    while len(chosen) < count:
        word = int.from_bytes(prng.bytes(4), "little")
        cell = word % bits.size
        if word < limit and cell not in seen:
            seen.add(cell)
            if bits[cell] == 1:
                chosen.append(cell)
    return np.asarray(chosen, dtype=np.int64)


def check_walk(n_pages: int) -> None:
    """``select_cells`` equals the scalar walk on `n_pages` per shape."""
    for name, (population, count) in SHAPES.items():
        for address, bits in pages(population, n_pages):
            np.testing.assert_array_equal(
                select_cells(KEY, address, bits, count),
                reference_walk(address, bits, count),
                err_msg=f"{name} page {address}: walk != scalar reference",
            )


def _best_us(fn, calls: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best / calls * 1e6, 1)


def measure() -> Dict[str, float]:
    """Microseconds per call, per entry."""
    timings = {}
    for name, (population, count) in SHAPES.items():
        shape_pages = pages(population)

        def run() -> None:
            for address, bits in shape_pages:
                select_cells(KEY, address, bits, count)

        timings[name] = _best_us(run, len(shape_pages))

    def draw() -> None:
        for page in range(PAGES_PER_SHAPE):
            KeyedPrng(KEY.secret, b"page:%d" % page).bytes(KEYSTREAM_BYTES)

    timings["keystream_12kib"] = _best_us(draw, PAGES_PER_SHAPE)
    return timings


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--measure" in argv:
        path = Path(argv[argv.index("--measure") + 1])
        path.write_text(json.dumps(measure()) + "\n")
        print(f"wrote {path}")
        return 0
    if "--tiny" in argv:
        check_walk(2)
        print(
            f"tiny selection smoke OK (select_cells == scalar walk at "
            f"{', '.join(SHAPES)})"
        )
        return 0
    before_path = None
    if "--before" in argv:
        index = argv.index("--before")
        before_path = Path(argv[index + 1])
        del argv[index:index + 2]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT
    check_walk(PAGES_PER_SHAPE)
    if before_path is not None:
        before = json.loads(before_path.read_text())
    else:
        before = json.loads(DEFAULT_OUTPUT.read_text())["before_us"]
    after = measure()
    speedup = {
        name: round(before[name] / after[name], 2) for name in after
    }
    for name in after:
        print(
            f"  {name}: {before[name]:8.1f} -> {after[name]:8.1f} us "
            f"per call ({speedup[name]}x)"
        )
    output.write_text(json.dumps({
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workload": {
            "shapes": {
                name: {"cells_per_page": cells, "hidden_bits": bits}
                for name, (cells, bits) in SHAPES.items()
            },
            "keystream_bytes": KEYSTREAM_BYTES,
            "pages_per_shape": PAGES_PER_SHAPE,
            "repeats": REPEATS,
        },
        "before": (
            "SHA-256 counter-mode keystream, Fisher-Yates walk in Python"
        ),
        "after": (
            "SHAKE-256 keystream, keyed order of first uniform draws "
            "evaluated in numpy chunks"
        ),
        "before_us": before,
        "after_us": after,
        "speedup": speedup,
        "floors": FLOORS,
    }, indent=2) + "\n")
    print(f"wrote {output}")
    if before_path is not None:
        short = [n for n, floor in FLOORS.items() if speedup[n] < floor]
        if short:
            print(f"speedup floors missed: {short}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
