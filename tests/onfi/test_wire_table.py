"""The opcode table: coverage, symmetry, constants and the byte layout.

Every payload layout is declared once in ``repro.onfi.wire.OPS`` and
interpreted by one encoder and one decoder at both ends, so these tests
pin the table itself: each opcode has one row, a handler and a client
method that sends it; every row round-trips; flag bits, error kinds and
struct formats are well-formed; and every surviving frame keeps the
exact bytes the hand-written packers produced before the table existed.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL
from repro.obs import wirefmt
from repro.onfi import ChipServer, RemoteChip, spawn_chip_server, wire
from repro.onfi.wire import (
    BLOB,
    ERROR_KINDS,
    F64,
    FLAG_THRESHOLD,
    HELLO_FLAGS_MASK,
    I64,
    I64S,
    LOCS,
    OPS,
    PAGES,
    U8,
    U64,
    Op,
    decode,
    decode_error,
    encode,
    encode_error,
)

from .conftest import SEED, page_bits

#: Page width used for PAGES fields in table-level tests.
CELLS = 8

#: Field names other fields take their element count from.
COUNT_NAMES = {
    field.count
    for spec in OPS.values()
    for field in spec.request + spec.response
    if isinstance(field.count, str)
}


def assert_same(decoded, values):
    assert decoded.keys() == values.keys()
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            assert decoded[name].shape == value.shape
            assert np.array_equal(decoded[name], value)
        else:
            assert decoded[name] == value


# ----------------------------------------------------------------------
# coverage


def test_every_op_has_one_row_a_handler_and_a_sender():
    geometry = TEST_MODEL.geometry
    assert len(OPS) == len(Op) and set(OPS) == set(Op)
    assert set(ChipServer._HANDLERS) == set(Op)
    # Posted ops are acknowledged, never answered with data.
    assert all(not spec.response for spec in OPS.values() if spec.posted)
    sock, handle = spawn_chip_server(
        geometry, TEST_MODEL.params, seed=SEED, backend="thread"
    )
    remote = RemoteChip(sock, geometry, TEST_MODEL.params)
    bits = page_bits(geometry)
    remote.program_page(0, 0, bits)
    remote.read_page(0, 0)
    remote.probe_voltages(0, 0)
    remote.erase_block(0)
    remote.partial_program(0, 1, [1, 2])
    remote.partial_program_via_reset(0, 2, bits)
    remote.set_read_threshold(60.0)
    remote.reset()
    remote.read_status()
    remote.advance_time(1.0)
    remote.is_page_programmed(0, 0)
    remote.block_pec(0)
    remote.obs_collect()
    remote.obs_reset()
    remote.close()
    handle.close()
    assert set(remote.sent_ops) == {int(op) for op in Op}


# ----------------------------------------------------------------------
# symmetry: decode(encode(x)) == x for every row, both directions

I64_VALUES = st.integers(-(2**63), 2**63 - 1)

STRATEGIES = {
    I64: lambda n: I64_VALUES,
    U64: lambda n: st.integers(0, 2**64 - 1),
    F64: lambda n: st.floats(allow_nan=False),
    U8: lambda n: st.integers(0, 255),
    I64S: lambda n: n.flatmap(
        lambda k: st.lists(I64_VALUES, min_size=k, max_size=k)
    ).map(lambda v: np.array(v, dtype=np.int64)),
    LOCS: lambda n: n.flatmap(
        lambda k: st.lists(
            st.tuples(I64_VALUES, I64_VALUES), min_size=k, max_size=k
        )
    ),
    PAGES: lambda n: n.flatmap(
        lambda k: st.binary(min_size=k * CELLS, max_size=k * CELLS)
    ).map(lambda b: np.frombuffer(b, np.uint8).reshape(-1, CELLS)),
    BLOB: lambda n: st.binary(max_size=32),
}


def draw_fields(data, fields, flags, context):
    """One value per field, consistent with flags, optionals and counts."""
    values = {}
    for field in fields:
        if field.flag and not flags & field.flag:
            values[field.name] = None
        elif field.optional and data.draw(st.booleans()):
            values[field.name] = None
        elif field.name in COUNT_NAMES and field.type == I64:
            values[field.name] = data.draw(st.integers(0, 3))
        else:
            count = field.count
            if isinstance(count, str):
                ref = {**context, **values}[count]
                count = ref if isinstance(ref, int) else len(ref)
            sizes = st.integers(0, 3) if count is None else st.just(count)
            values[field.name] = data.draw(STRATEGIES[field.type](sizes))
    return values


@given(data=st.data(), op=st.sampled_from(list(Op)))
@settings(max_examples=150, deadline=None)
def test_every_row_round_trips(data, op):
    spec = OPS[op]
    flags = sum(
        field.flag for field in spec.request
        if field.flag and data.draw(st.booleans())
    )
    request = draw_fields(data, spec.request, flags, {})
    response = draw_fields(data, spec.response, 0, request)
    payload = bytearray(encode(spec.request, request, flags))
    assert_same(decode(spec.request, payload, flags, CELLS), request)
    payload = bytearray(encode(spec.response, response))
    assert_same(
        decode(spec.response, payload, cells=CELLS, context=request),
        response,
    )


# ----------------------------------------------------------------------
# error kinds, flag bits, struct formats


@pytest.mark.parametrize("kind", ERROR_KINDS, ids=lambda k: k.__name__)
def test_every_error_kind_round_trips(kind):
    assert len(set(ERROR_KINDS)) == len(ERROR_KINDS)
    decoded = decode_error(encode_error(kind("bad thing")))
    assert type(decoded) is kind
    assert str(decoded) == "bad thing"


def is_power_of_two(value):
    return value > 0 and value & (value - 1) == 0


def test_flag_bits_are_distinct_powers_of_two():
    names = vars(wire)
    request_flags = [v for k, v in names.items() if k.startswith("FLAG_")]
    hello_bits = [
        v for k, v in names.items()
        if k.startswith("HELLO_") and k != "HELLO_FLAGS_MASK"
    ]
    for group in (request_flags, hello_bits):
        assert len(group) >= 2
        assert all(is_power_of_two(bit) and bit <= 0xFF for bit in group)
        assert len(set(group)) == len(group)
    assert HELLO_FLAGS_MASK == sum(hello_bits)  # distinct bits: sum == OR


@pytest.mark.parametrize("module", [wire, wirefmt], ids=lambda m: m.__name__)
def test_every_struct_sets_little_endian_byte_order(module):
    found = []
    for value in vars(module).values():
        items = value.values() if isinstance(value, dict) else [value]
        found += [s for s in items if isinstance(s, struct.Struct)]
    assert found
    assert all(s.format.startswith("<") for s in found)


# ----------------------------------------------------------------------
# golden bytes: the payloads the hand-written packers produced

BITS_1 = np.array([[1, 0, 0, 1, 1, 1, 0, 1]], dtype=np.uint8)
BITS_2 = np.array(
    [[0, 1, 1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 0, 0, 0, 0]], dtype=np.uint8
)
PAIRS = [(0, 1), (2, 3)]

#: op -> (request fields, request flags, request hex,
#:        response fields, response hex)
GOLDEN = {
    Op.ERASE: ({"block": 3}, 0, "0300000000000000", {}, ""),
    Op.READ_STATUS: ({}, 0, "", {"status": 0xE2}, "e2"),
    Op.PROGRAM: (
        {"block": 1, "page": 2, "bits": BITS_1}, 0,
        "0100000000000000" "0200000000000000" "0100000101010001", {}, "",
    ),
    Op.SET_READ_THRESHOLD: ({"level": 60.5}, 0, "0000000000404e40", {}, ""),
    Op.PARTIAL_PROGRAM: (
        {"block": 1, "page": 2, "fraction": 0.6, "precision": 0.8,
         "cells": np.array([3, 17, 5], dtype=np.int64)}, 0,
        "0100000000000000" "0200000000000000" "333333333333e33f"
        "9a9999999999e93f" "0300000000000000" "1100000000000000"
        "0500000000000000", {}, "",
    ),
    Op.RESET: ({"abort_after_us": 250.0}, 0, "0000000000406f40", {}, ""),
    Op.READ_LOCATIONS: (
        {"threshold": 77.5, "locations": PAIRS}, FLAG_THRESHOLD,
        "0000000000605340" "0000000000000000" "0100000000000000"
        "0200000000000000" "0300000000000000",
        {"bits": BITS_2}, "00010100010001010101010100000000",
    ),
    Op.PROBE_LOCATIONS: (
        {"locations": PAIRS}, 0,
        "0000000000000000" "0100000000000000" "0200000000000000"
        "0300000000000000",
        {"voltages": BITS_2 * 200}, "00c8c800c800c8c8c8c8c8c800000000",
    ),
    Op.PROGRAM_LOCATIONS: (
        {"count": 2, "locations": PAIRS, "bits": BITS_2}, 0,
        "0200000000000000" "0000000000000000" "0100000000000000"
        "0200000000000000" "0300000000000000"
        "00010100010001010101010100000000", {}, "",
    ),
    Op.HELLO: (
        {"capabilities": HELLO_FLAGS_MASK}, 0, "03",
        {"n_blocks": 4, "pages_per_block": 8, "cells_per_page": 8,
         "page_bytes": 1, "seed": 2**64 - 5, "clock": 12.5,
         "capabilities": HELLO_FLAGS_MASK},
        "0400000000000000" "0800000000000000" "0800000000000000"
        "0100000000000000" "fbffffffffffffff" "0000000000002940" "03",
    ),
    Op.ADVANCE_TIME: (
        {"seconds": 3600.0}, 0, "000000000020ac40",
        {"clock": 3612.5}, "000000000039ac40",
    ),
    Op.IS_PROGRAMMED: (
        {"block": 2, "page": 1}, 0, "0200000000000000" "0100000000000000",
        {"programmed": 1}, "01",
    ),
    Op.BLOCK_PEC: (
        {"block": 2}, 0, "0200000000000000", {"pec": 1500},
        "dc05000000000000",
    ),
    Op.OBS_COLLECT: (
        {"reset": 1}, 0, "01", {"snapshot": b"\x01snapshot"},
        "01736e617073686f74",
    ),
    Op.OBS_RESET: ({}, 0, "", {}, ""),
    Op.SHUTDOWN: ({}, 0, "", {}, ""),
}


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_golden_bytes(op):
    request, flags, request_hex, response, response_hex = GOLDEN[op]
    spec = OPS[op]
    payload = encode(spec.request, request, flags)
    assert bytes(payload).hex() == request_hex
    assert_same(decode(spec.request, payload, flags, CELLS), request)
    payload = encode(spec.response, response)
    assert bytes(payload).hex() == response_hex
    assert_same(
        decode(spec.response, payload, cells=CELLS, context=request),
        response,
    )
