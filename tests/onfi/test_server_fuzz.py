"""Wire-level fuzzing of the command decoder.

The server's contract under hostile input: arbitrary, truncated or
reordered frames always produce a defined outcome — a well-formed
response carrying a decoded :class:`NandError`, or a clean hang-up on
broken framing — and never an unhandled exception, a hang, or chip
state the frame was not entitled to change.

``handle_frame`` is pure in the frame (no socket required), so the
dispatch layer fuzzes directly; the stream tests cover the framing
layer on top of it.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import CommandError, NandError
from repro.onfi import (
    FLAG_THRESHOLD,
    ChipServer,
    FrameReader,
    Op,
    Status,
    decode_error,
    pack_frame,
)
from repro.onfi.wire import OPS, STATUS_FAIL, encode

GEOMETRY = TEST_MODEL.geometry

FUZZ_SETTINGS = dict(max_examples=50, deadline=None)
STREAM_SETTINGS = dict(max_examples=25, deadline=None)

# Ops that touch chip state; each one's first field is at least 8 bytes
# wide, so payloads of 1..7 bytes are malformed for all of them.
MUTATING_OPS = [
    Op.ERASE,
    Op.PROGRAM,
    Op.PARTIAL_PROGRAM,
    Op.READ_LOCATIONS,
    Op.PROBE_LOCATIONS,
    Op.PROGRAM_LOCATIONS,
    Op.EMBED_LOCATIONS,
    Op.ADVANCE_TIME,
]

#: A well-formed IS_PROGRAMMED request: exactly two i64 fields.
IS_PROGRAMMED_0_0 = encode(OPS[Op.IS_PROGRAMMED].request, {"block": 0, "page": 0})


def fresh_server(seed=7):
    return ChipServer(FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed))


def parse_responses(blob: bytes):
    """Every byte the server wrote must parse back as clean frames."""
    reader = FrameReader(io.BytesIO(blob))
    frames = []
    while True:
        frame = reader.read_frame()
        if frame is None:
            return frames
        frames.append(frame)


@given(
    opcode=st.integers(0, 255),
    flags=st.integers(0, 255),
    tag=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=64),
)
@settings(**FUZZ_SETTINGS)
# A SHUTDOWN that fails to parse must still end the connection.
@example(opcode=0xAF, flags=0, tag=0, payload=b"\x00")
def test_handle_frame_never_raises(opcode, flags, tag, payload):
    server = fresh_server()
    status, out, keep = server.handle_frame(opcode, flags, tag, payload)
    assert 0 <= status <= 255
    assert isinstance(out, (bytes, memoryview))
    assert keep is (opcode != int(Op.SHUTDOWN))
    if status & STATUS_FAIL:
        assert isinstance(decode_error(out), (NandError, ValueError))
    # The server remains serviceable: READ_STATUS still answers.
    status, out, keep = server.handle_frame(
        int(Op.READ_STATUS), 0, tag, b""
    )
    assert not status & STATUS_FAIL and keep
    assert isinstance(Status.from_byte(out[0]), Status)


@given(
    op=st.sampled_from(MUTATING_OPS),
    payload=st.binary(min_size=1, max_size=7),
)
@settings(**FUZZ_SETTINGS)
def test_malformed_payloads_leave_chip_untouched(op, payload):
    server = fresh_server()
    chip = server.chip
    before = chip.probe_voltages(0, 0).copy()  # probing accounts a read
    counters = chip.counters.copy()
    clock = chip.clock
    status, out, keep = server.handle_frame(int(op), 0, 1, payload)
    assert status & STATUS_FAIL and keep
    assert isinstance(decode_error(out), (NandError, ValueError))
    assert chip.counters.diff(counters).total_ops == 0
    assert chip.clock == clock
    assert np.array_equal(chip.probe_voltages(0, 0), before)


def embed_frame(steps=10, sizes=(2,), cells=(3, 4)):
    """A well-formed EMBED_LOCATIONS request for pages 0, 1, ... of
    block 0, one per size."""
    return encode(OPS[Op.EMBED_LOCATIONS].request, {
        "target": 36.0, "steps": steps, "fraction": 0.6, "precision": 1.0,
        "count": len(sizes), "locations": [(0, p) for p in range(len(sizes))],
        "sizes": list(sizes), "cells": list(cells),
    })


@pytest.mark.parametrize(
    "payload, match",
    [
        (embed_frame(sizes=(-1, 3)), "negative cell-list size -1"),
        (embed_frame(sizes=(3,)), "sum to 3, got 2 cells"),
        (embed_frame(sizes=(1,)), "sum to 1, got 2 cells"),
        (embed_frame(steps=256), "256 above the 255-step frame limit"),
    ],
    ids=["negative-size", "sizes-over", "sizes-under", "steps-256"],
)
def test_embed_frame_limits_rejected_before_the_chip(payload, match):
    """Sizes that do not split the cell list, or more than 255 steps,
    fail the frame with CommandError and touch nothing."""
    server = fresh_server()
    chip = server.chip
    chip.program_page(0, 0, np.ones(GEOMETRY.cells_per_page, np.uint8))
    before = chip._block(0).voltages.copy()
    counters = chip.counters.copy()
    status, out, keep = server.handle_frame(
        int(Op.EMBED_LOCATIONS), 0, 1, payload
    )
    assert status & STATUS_FAIL and keep
    error = decode_error(out)
    assert type(error) is CommandError
    assert match in str(error)
    assert chip.counters == counters
    assert np.array_equal(chip._block(0).voltages, before)
    # The same frame within the limits runs.
    status, _, _ = server.handle_frame(
        int(Op.EMBED_LOCATIONS), 0, 2, embed_frame()
    )
    assert not status & STATUS_FAIL


def read_frame(level):
    """A READ_LOCATIONS request for page (0, 0) at its own level."""
    return encode(
        OPS[Op.READ_LOCATIONS].request,
        {"threshold": level, "locations": [(0, 0)]},
        FLAG_THRESHOLD,
    )


@pytest.mark.parametrize(
    "level", [float("nan"), -5.0, 256.0], ids=["nan", "minus-5", "256"]
)
def test_read_frame_threshold_checked_before_the_chip(level):
    """A READ_LOCATIONS frame's own level gets SET_READ_THRESHOLD's
    0-255 check: outside it (NaN included) the frame fails with
    CommandError, and no read or read disturb is charged."""
    server = fresh_server()
    chip = server.chip
    chip.program_page(0, 0, np.zeros(GEOMETRY.cells_per_page, np.uint8))
    exposure = chip._block(0).page_exposure.copy()
    counters = chip.counters.copy()
    status, out, keep = server.handle_frame(
        int(Op.READ_LOCATIONS), FLAG_THRESHOLD, 1, read_frame(level)
    )
    assert status & STATUS_FAIL and keep
    error = decode_error(out)
    assert type(error) is CommandError
    assert "outside 0-255" in str(error)
    assert chip.counters == counters
    assert np.array_equal(chip._block(0).page_exposure, exposure)
    # The edges of the range read.
    for tag, edge in enumerate((0.0, 255.0), start=2):
        status, _, _ = server.handle_frame(
            int(Op.READ_LOCATIONS), FLAG_THRESHOLD, tag, read_frame(edge)
        )
        assert not status & STATUS_FAIL
    assert chip.counters.diff(counters).reads == 2


@given(payloads=st.lists(st.binary(max_size=32), max_size=8))
@settings(**FUZZ_SETTINGS)
def test_trailing_payload_bytes_rejected(payloads):
    """Valid prefix + trailing junk is malformed, not silently ignored."""
    server = fresh_server()
    for junk in payloads:
        payload = IS_PROGRAMMED_0_0 + b"\xff" + junk
        status, out, _ = server.handle_frame(
            int(Op.IS_PROGRAMMED), 0, 0, payload
        )
        assert status & STATUS_FAIL
        assert isinstance(decode_error(out), NandError)


@given(data=st.data())
@settings(**STREAM_SETTINGS)
def test_arbitrary_streams_terminate_with_wellformed_output(data):
    """serve() on any byte stream: terminates, emits only clean frames."""
    chunks = data.draw(
        st.lists(
            st.one_of(
                st.binary(max_size=24),
                st.builds(
                    pack_frame,
                    st.integers(0, 255),
                    st.integers(0, 255),
                    st.integers(0, 0xFFFF),
                    st.binary(max_size=24),
                ),
            ),
            max_size=6,
        ),
        label="chunks",
    )
    server = fresh_server()
    out = io.BytesIO()
    server.serve(FrameReader(io.BytesIO(b"".join(chunks))), out)
    parse_responses(out.getvalue())  # raises if any response is mangled


@given(
    tags=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=10),
)
@settings(**FUZZ_SETTINGS)
def test_reordered_duplicate_tags_echo_in_request_order(tags):
    """Tags are opaque: arbitrary order and duplicates echo FIFO."""
    server = fresh_server()
    stream = b"".join(
        pack_frame(int(Op.READ_STATUS), 0, tag) for tag in tags
    )
    out = io.BytesIO()
    server.serve(FrameReader(io.BytesIO(stream)), out)
    responses = parse_responses(out.getvalue())
    assert [tag for _, _, tag, _ in responses] == tags
    assert all(opcode == int(Op.READ_STATUS) for opcode, _, _, _ in responses)


def test_truncated_stream_answers_complete_frames_then_hangs_up():
    good = pack_frame(int(Op.READ_STATUS), 0, 5)
    partial = pack_frame(int(Op.IS_PROGRAMMED), 0, 6, IS_PROGRAMMED_0_0)[:-3]
    server = fresh_server()
    out = io.BytesIO()
    server.serve(FrameReader(io.BytesIO(good + partial)), out)
    responses = parse_responses(out.getvalue())
    assert len(responses) == 1 and responses[0][2] == 5


def test_garbage_header_hangs_up_without_response():
    server = fresh_server()
    out = io.BytesIO()
    server.serve(FrameReader(io.BytesIO(b"\xff" * 11)), out)
    assert out.getvalue() == b""


def test_shutdown_frame_stops_serving():
    server = fresh_server()
    stream = pack_frame(int(Op.SHUTDOWN), 0, 1) + pack_frame(
        int(Op.READ_STATUS), 0, 2
    )
    out = io.BytesIO()
    server.serve(FrameReader(io.BytesIO(stream)), out)
    responses = parse_responses(out.getvalue())
    assert [tag for _, _, tag, _ in responses] == [1]
