"""Scalar vs batch BCH throughput on page-shaped workloads → BENCH_ecc.json.

Times the hot-path shapes on the public pipeline's code (BCH m=13, t=8,
page split into ~`words_per_page` shortened codewords, as `PagePipeline`
does for the TEST_MODEL page):

- ``encode``: full-page encode, scalar loop vs ``encode_many``;
- ``decode_clean``: error-free page decode — the FTL/stego common case the
  all-zero-syndrome fast path exists for;
- ``decode_dirty``: every codeword carries t errors — worst case for the
  dirty path's per-word locator kernel (t-step Berlekamp-Massey on
  Python ints + one table-driven Chien gather per word);
- ``decode_dirty_w<k>``: a sweep over error weights 1, t/2, t and t+1 —
  the last one beyond capacity, timed with ``on_error="return"`` against a
  try/except scalar loop, the retention/high-PEC shape where failures are
  expected.

and the fleet's hidden-page code (BCH m=10, t=30 on the 639-bit words a
``FLEET_HIDING`` slot codes to) at the batch sizes a fleet round hands to
``decode_many``:

- ``fleet_b<B>`` for B in 1, 2, 8, 64: ``FLEET_WORDS`` words decoded in
  batches of B, times per batch; every size takes the same per-word
  kernel, so the rows show its amortisation of the batch re-encode and
  syndrome gather.  Every fleet word is dirty: most carry 1-20 raw
  errors (the natural-charge tail), and ``FLEET_RANDOM_SHARE`` of them
  are random — mount-scan misses, pages holding no slot under the
  scanning key, which always fail.

Acceptance bars: batch/scalar >= 5x for ``decode_clean`` and
``decode_dirty`` (ISSUE 3), >= 2x for ``encode`` (ISSUE 2).  Usage::

    PYTHONPATH=src python benchmarks/bench_ecc.py [output.json]
    PYTHONPATH=src python benchmarks/bench_ecc.py --tiny   # CI smoke

``--tiny`` shrinks the workload so the whole script runs in seconds and
skips the speedup floors (tiny batches can't amortise anything); it still
exercises every kernel, verifies bit-exact scalar/batch agreement on every
workload — including which words fail and with what message — and asserts
the batch dirty path is not slower than the scalar loop even at toy sizes,
and that 1- and 2-word fleet batches (the fleet's real batch sizes; the
fleet rows run at full size in both modes) are not slower than the scalar
loop on the same words either.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.ecc.bch import EccError, get_code
from repro.fleet import FLEET_HIDING
from repro.hiding import PayloadCodec

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ecc.json"

#: The public page pipeline's codec (cli.py init uses m=13, t=8).
CODE_PARAMS = (13, 8)

FULL = dict(words_per_page=2, word_bits=4512, pages=64, repeats=3)
TINY = dict(words_per_page=2, word_bits=512, pages=16, repeats=3)

#: (benchmark name, minimum batch/scalar speedup) — ISSUE 2/3 acceptance.
SPEEDUP_FLOORS = {"decode_clean": 5.0, "encode": 2.0, "decode_dirty": 5.0}

#: The fleet's hidden-page code, and the length of the word one slot
#: codes to: a slot fills the page's payload capacity.
FLEET_CODE_PARAMS = (FLEET_HIDING.ecc_m, FLEET_HIDING.ecc_t)
_FLEET_CODEC = PayloadCodec(FLEET_HIDING)
FLEET_WORD_BITS = _FLEET_CODEC.coded_length(_FLEET_CODEC.max_data_bytes)

#: Words in the fleet rows, in both modes: they take about a second.
FLEET_WORDS = 64

#: Raw errors per non-random fleet word, inclusive bounds.
FLEET_ERRORS = (1, 20)

#: Share of fleet words that are random: the mount scan's misses (a
#: traced remote-open run reports ecc.decode.failed_ratio 0.27).
FLEET_RANDOM_SHARE = 0.27

#: Words per ``decode_many`` call in the fleet rows.  A remote-open
#: round averages under 2 words per call; 64 is a large coalesced round.
FLEET_BATCH_SIZES = (1, 2, 8, 64)

#: Fleet rows whose batch time ``--tiny`` gates at the scalar loop's:
#: the batch sizes the open loop sends.
FLEET_GATED_ROWS = ("fleet_b1", "fleet_b2")


def _page_words(code, word_bits, pages, words_per_page, weight):
    """Encoded words for `pages` pages with `weight` errors per word."""
    rng = np.random.default_rng(1234 + weight)
    data_bits = word_bits - code.n_parity
    datas = [
        rng.integers(0, 2, data_bits).astype(np.uint8)
        for _ in range(pages * words_per_page)
    ]
    coded = code.encode_many(datas)
    for word in coded:
        positions = rng.choice(word.size, size=weight, replace=False)
        word[positions] ^= 1
    return datas, coded


def _fleet_words(code):
    """Fleet-shaped received words: encoded slot words carrying
    ``FLEET_ERRORS`` raw errors each, with a ``FLEET_RANDOM_SHARE`` of
    them replaced by random bits."""
    rng = np.random.default_rng(FLEET_WORD_BITS)
    data_bits = FLEET_WORD_BITS - code.n_parity
    words = code.encode_many([
        rng.integers(0, 2, data_bits).astype(np.uint8)
        for _ in range(FLEET_WORDS)
    ])
    low, high = FLEET_ERRORS
    for word in words:
        errors = int(rng.integers(low, high + 1))
        word[rng.choice(word.size, size=errors, replace=False)] ^= 1
    misses = rng.choice(
        FLEET_WORDS, size=round(FLEET_RANDOM_SHARE * FLEET_WORDS),
        replace=False,
    )
    for index in misses:
        words[index] = rng.integers(0, 2, FLEET_WORD_BITS).astype(np.uint8)
    return words


def _scalar_decode_all(code, words):
    """The scalar loop with per-word failure capture (the baseline the
    batch ``on_error="return"`` path replaces)."""
    results = []
    for word in words:
        try:
            results.append(code.decode(word))
        except EccError as error:
            results.append(error)
    return results


def _assert_agreement(code, words):
    """Batch results bit-identical to scalar: data, codeword, corrected
    counts, error positions, and the failure set with its messages."""
    scalar = _scalar_decode_all(code, words)
    batch = code.decode_many(words, on_error="return")
    for index, (expected, got) in enumerate(zip(scalar, batch)):
        if isinstance(expected, EccError):
            assert isinstance(got, EccError), (
                f"word {index}: batch decoded a word the scalar "
                f"decoder rejects"
            )
            assert str(got) == str(expected)
            assert got.batch_index == index
        else:
            assert not isinstance(got, EccError), (
                f"word {index}: batch rejected a word the scalar "
                f"decoder corrects: {got}"
            )
            assert np.array_equal(got.data, expected.data)
            assert got.corrected_errors == expected.corrected_errors
            assert np.array_equal(got.codeword, expected.codeword)
            assert np.array_equal(
                np.asarray(got.error_positions),
                np.asarray(expected.error_positions),
            )


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def collect(params) -> dict:
    code = get_code(*CODE_PARAMS)
    repeats = params["repeats"]
    shape = (
        params["word_bits"], params["pages"], params["words_per_page"],
    )
    datas, clean = _page_words(code, *shape, weight=0)
    _, dirty = _page_words(code, *shape, weight=code.t)

    benchmarks = {}

    def record(name, scalar_fn, batch_fn, calls=1):
        """Best-of-`repeats` times, per call when one run makes
        `calls` batch calls."""
        scalar_s = _time(scalar_fn, repeats) / calls
        batch_s = _time(batch_fn, repeats) / calls
        benchmarks[name] = {
            "scalar_s": round(scalar_s, 6),
            "batch_s": round(batch_s, 6),
            "speedup": round(scalar_s / batch_s, 2),
        }

    record(
        "encode",
        lambda: [code.encode(d) for d in datas],
        lambda: code.encode_many(datas),
    )
    record(
        "decode_clean",
        lambda: [code.decode(w) for w in clean],
        lambda: code.decode_many(clean),
    )
    record(
        "decode_dirty",
        lambda: [code.decode(w) for w in dirty],
        lambda: code.decode_many(dirty),
    )
    _assert_agreement(code, clean)
    _assert_agreement(code, dirty)

    # Error-weight sweep: light (weight 1), half-capacity, at capacity,
    # and beyond capacity (weight t+1, where words are *expected* to
    # fail and both sides run in failure-capture mode).
    for weight in sorted({1, max(1, code.t // 2), code.t, code.t + 1}):
        _, words = _page_words(code, *shape, weight=weight)
        record(
            f"decode_dirty_w{weight}",
            lambda words=words: _scalar_decode_all(code, words),
            lambda words=words: code.decode_many(
                words, on_error="return"
            ),
        )
        _assert_agreement(code, words)

    fleet_code = get_code(*FLEET_CODE_PARAMS)
    fleet = _fleet_words(fleet_code)
    for size in FLEET_BATCH_SIZES:
        batches = [
            fleet[start:start + size]
            for start in range(0, len(fleet), size)
        ]
        record(
            f"fleet_b{size}",
            lambda batches=batches: [
                _scalar_decode_all(fleet_code, batch) for batch in batches
            ],
            lambda batches=batches: [
                fleet_code.decode_many(batch, on_error="return")
                for batch in batches
            ],
            calls=len(batches),
        )
        for batch in batches:
            _assert_agreement(fleet_code, batch)

    return {
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "code": {
            "m": CODE_PARAMS[0], "t": CODE_PARAMS[1],
            "n": code.n, "n_parity": code.n_parity,
        },
        "workload": {k: params[k] for k in
                     ("words_per_page", "word_bits", "pages", "repeats")},
        "fleet_workload": {
            "m": FLEET_CODE_PARAMS[0], "t": FLEET_CODE_PARAMS[1],
            "word_bits": FLEET_WORD_BITS, "words": FLEET_WORDS,
            "random_share": FLEET_RANDOM_SHARE,
            "errors": list(FLEET_ERRORS),
            "batch_sizes": list(FLEET_BATCH_SIZES),
        },
        "benchmarks": benchmarks,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    output = Path(argv[0]) if argv else DEFAULT_OUTPUT
    results = collect(TINY if tiny else FULL)
    if tiny:
        print("tiny workload: skipping speedup floors, not writing "
              f"{output.name}")
    else:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    for name, entry in results["benchmarks"].items():
        print(f"  {name}: scalar {entry['scalar_s']}s, "
              f"batch {entry['batch_s']}s, {entry['speedup']}x")
    if tiny:
        # Even without amortisation the batch dirty path must not lose
        # to the scalar loop — the dispatch overhead has to stay small.
        entry = results["benchmarks"]["decode_dirty"]
        assert entry["batch_s"] <= entry["scalar_s"], (
            f"tiny dirty batch ({entry['batch_s']}s) slower than scalar "
            f"({entry['scalar_s']}s)"
        )
        for name in FLEET_GATED_ROWS:
            entry = results["benchmarks"][name]
            assert entry["batch_s"] <= entry["scalar_s"], (
                f"{name}: batch ({entry['batch_s']}s) slower than the "
                f"scalar loop ({entry['scalar_s']}s)"
            )
        print("tiny smoke: batch dirty path agrees with scalar and is "
              "not slower; neither are fleet 1- and 2-word batches")
    else:
        for name, floor in SPEEDUP_FLOORS.items():
            speedup = results["benchmarks"][name]["speedup"]
            assert speedup >= floor, (
                f"{name}: {speedup}x is below the {floor}x acceptance bar"
            )
        print("speedup floors met: "
              + ", ".join(f"{k} >= {v}x" for k, v in SPEEDUP_FLOORS.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
