"""Frame and payload codecs: symmetry, bounds, defined failures."""

import io

import numpy as np
import pytest

from repro.nand.errors import (
    AddressError,
    CommandError,
    NandError,
    ProgramError,
)
from repro.onfi import (
    MAX_PAYLOAD,
    MIN_LENGTH,
    FrameReader,
    Op,
    decode_error,
    encode_error,
    error_kind,
    pack_frame,
)
from repro.onfi.wire import (
    F64,
    I64,
    I64S,
    LOCS,
    PAGES,
    U64,
    Field,
    decode,
    encode,
)


def read_one(data: bytes):
    return FrameReader(io.BytesIO(data)).read_frame()


def test_frame_round_trip():
    frame = pack_frame(int(Op.READ_LOCATIONS), 0x02, 0xBEEF, b"payload")
    opcode, flags, tag, payload = read_one(frame)
    assert (opcode, flags, tag) == (int(Op.READ_LOCATIONS), 0x02, 0xBEEF)
    assert bytes(payload) == b"payload"


def test_empty_payload_frame_is_minimal():
    frame = pack_frame(int(Op.RESET), 0, 1)
    assert len(frame) == 4 + MIN_LENGTH
    opcode, _, _, payload = read_one(frame)
    assert opcode == int(Op.RESET) and bytes(payload) == b""


def test_clean_eof_returns_none():
    assert read_one(b"") is None


def test_truncated_header_raises():
    frame = pack_frame(int(Op.READ_LOCATIONS), 0, 1)
    with pytest.raises(CommandError):
        read_one(frame[:5])


def test_truncated_payload_raises():
    frame = pack_frame(int(Op.READ_LOCATIONS), 0, 1, b"abcdef")
    with pytest.raises(CommandError):
        read_one(frame[:-2])


def test_undersized_length_field_raises():
    bad = (MIN_LENGTH - 1).to_bytes(4, "little") + b"\x00\x00\x00\x00"
    with pytest.raises(CommandError):
        read_one(bad)


def test_oversized_length_field_raises():
    bad = (MIN_LENGTH + MAX_PAYLOAD + 1).to_bytes(4, "little")
    bad += b"\x00\x00\x00\x00"
    with pytest.raises(CommandError):
        read_one(bad)


def test_pack_frame_rejects_oversized_payload():
    class Huge(bytes):
        def __len__(self):
            return MAX_PAYLOAD + 1

    with pytest.raises(CommandError):
        pack_frame(0, 0, 0, Huge())


def test_multiple_frames_stream():
    stream = io.BytesIO(
        pack_frame(1, 0, 10, b"a") + pack_frame(2, 0, 11, b"bc")
    )
    reader = FrameReader(stream)
    assert reader.read_frame()[2] == 10
    assert reader.read_frame()[2] == 11
    assert reader.read_frame() is None


def test_scalar_codecs_round_trip():
    fields = (Field("a", I64), Field("b", I64), Field("c", U64),
              Field("d", F64))
    values = {"a": -5, "b": 2**62, "c": 2**64 - 1, "d": 2.5}
    payload = encode(fields, values)
    assert len(payload) == 32
    assert decode(fields, payload) == values


def test_scalar_codecs_raise_on_truncation():
    with pytest.raises(CommandError):
        decode((Field("a", I64),), b"\x00" * 7)
    with pytest.raises(CommandError):
        decode((Field("a", I64), Field("b", F64)), b"\x00" * 10)
    with pytest.raises(CommandError):
        decode((Field("a", U64),), b"")


def test_i64_array_round_trip():
    values = np.array([-1, 0, 7, 2**40], dtype=np.int64)
    fields = (Field("cells", I64S),)
    payload = bytearray(encode(fields, {"cells": values}))
    assert np.array_equal(decode(fields, payload)["cells"], values)


def test_i64_array_rejects_ragged_tail():
    with pytest.raises(CommandError):
        decode((Field("cells", I64S),), b"\x00" * 9)


def test_i64_count_rejects_negative_and_short():
    fields = (Field("n", I64), Field("cells", I64S, count="n"))
    tail = encode(fields[1:], {"cells": np.arange(3)})
    decoded = decode(fields, encode(fields[:1], {"n": 3}) + tail)
    assert decoded["n"] == 3 and list(decoded["cells"]) == [0, 1, 2]
    with pytest.raises(CommandError):
        decode(fields, encode(fields[:1], {"n": 4}) + tail)
    with pytest.raises(CommandError):
        decode(fields, encode(fields[:1], {"n": -1}) + tail)


def test_u8_matrix_round_trip_is_writable():
    rows = np.arange(12, dtype=np.uint8).reshape(3, 4)
    fields = (Field("rows", PAGES),)
    payload = bytearray(encode(fields, {"rows": rows}))
    decoded = decode(fields, payload, cells=4)["rows"]
    assert np.array_equal(decoded, rows)
    decoded[0, 0] = 99  # zero-copy view over a bytearray stays writable
    assert decoded[0, 0] == 99


def test_u8_matrix_rejects_size_mismatch():
    with pytest.raises(CommandError):
        decode((Field("rows", PAGES),), b"\x00" * 11, cells=4)
    counted = (Field("n", I64), Field("rows", PAGES, count="n"))
    with pytest.raises(CommandError):
        decode(counted, encode(counted[:1], {"n": -3}) + b"\x00" * 12,
               cells=4)


def test_locations_round_trip_preserves_negatives():
    locations = [(0, 1), (-2, 5), (3, -9)]
    fields = (Field("locations", LOCS),)
    payload = bytearray(encode(fields, {"locations": locations}))
    assert decode(fields, payload)["locations"] == locations


def test_locations_reject_odd_element_count():
    payload = encode((Field("cells", I64S),), {"cells": np.arange(3)})
    with pytest.raises(CommandError):
        decode((Field("locations", LOCS),), payload)


@pytest.mark.parametrize(
    "exc",
    [
        NandError("base"),
        CommandError("bad frame"),
        AddressError("block -1 out of range"),
        ProgramError("page already programmed"),
        ValueError("fraction must be in (0, 2], got 3.0"),
    ],
)
def test_error_codec_preserves_type_and_message(exc):
    decoded = decode_error(encode_error(exc))
    assert type(decoded) is type(exc)
    assert str(decoded) == str(exc)


def test_error_kind_uses_most_specific_type():
    class CustomAddress(AddressError):
        pass

    assert error_kind(CustomAddress("x")) == error_kind(AddressError("x"))


def test_decode_error_defined_on_garbage():
    assert isinstance(decode_error(b""), NandError)
    assert isinstance(decode_error(bytes([250]) + b"zz"), NandError)
    decoded = decode_error(bytes([1]) + b"\xff\xfe")  # invalid UTF-8
    assert isinstance(decoded, CommandError)
