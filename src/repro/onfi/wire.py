"""Binary framing and the opcode table of the ONFI wire (DESIGN §13).

One frame = an 8-byte little-endian header plus a payload::

    <u32 length> <u8 opcode> <u8 flags/status> <u16 tag> <payload ...>

``length`` counts every byte *after* the length field (opcode + flags +
tag + payload), so it is at least :data:`MIN_LENGTH`.  The third header
byte is request *flags* on the way in and the real ONFI status byte
(:class:`Status`) on the way out; a response whose status has the FAIL
bit set carries an error payload (``u8 kind`` + UTF-8 message) instead
of data.  ``tag`` echoes verbatim so a pipelining client can match
responses to requests out of band.

Payload layouts are declared once, in :data:`OPS`, and interpreted by
one encoder and one decoder at both ends.  All addresses travel as
signed 64-bit integers — negative blocks and pages cross the wire
intact and are rejected by the *server's* chip with exactly the
in-process error type and message.  Cell bits and voltages travel as
raw ``uint8`` arrays via ``frombuffer``/memoryview; nothing on this wire
is pickled.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum, unique
from typing import (
    Any,
    BinaryIO,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..nand.errors import (
    AddressError,
    CommandError,
    EraseError,
    NandError,
    ProgramError,
    WearOutError,
)

#: ``<length u32> <opcode u8> <flags/status u8> <tag u16>``, little-endian.
HEADER = struct.Struct("<IBBH")

#: Bytes after the length field that are header, not payload.
MIN_LENGTH = 4

#: Payload ceiling — bounds server-side allocations against hostile or
#: corrupt length fields (a full location batch on the bench geometry is
#: a few MiB; 64 MiB leaves an order of magnitude of headroom).
MAX_PAYLOAD = 64 << 20

#: Step ceiling of one EMBED_LOCATIONS frame — bounds the chip work a
#: frame from outside the process can request (the same 0-255 range as
#: a SET_READ_THRESHOLD level).
MAX_EMBED_STEPS = 255


@unique
class Op(IntEnum):
    """Wire opcodes.

    The ONFI commands the paper's host needs keep their standard codes
    (PROGRAM 80h, ERASE 60h, READ_STATUS 70h, RESET FFh); the vendor
    ones (threshold shift, partial program) sit in the 0xC0 range, the
    location-list data plane in the 0xB0 vendor range and the
    host-side admin operations in 0xA0.
    """

    # -- ONFI / vendor commands -----------------------------------------
    ERASE = 0x60
    READ_STATUS = 0x70
    PROGRAM = 0x80
    SET_READ_THRESHOLD = 0xC5
    PARTIAL_PROGRAM = 0xC7
    RESET = 0xFF
    # -- location-list data plane (one frame per kernel call) -----------
    READ_LOCATIONS = 0xB3
    PROBE_LOCATIONS = 0xB4
    PROGRAM_LOCATIONS = 0xB5
    EMBED_LOCATIONS = 0xB6
    # -- admin -----------------------------------------------------------
    HELLO = 0xA0
    ADVANCE_TIME = 0xA1
    IS_PROGRAMMED = 0xA3
    BLOCK_PEC = 0xA4
    OBS_COLLECT = 0xA5
    SHUTDOWN = 0xAF


#: ONFI 5.x status-register bit positions (Table "Status field
#: definition"): FAIL is the last-operation failure flag, FAILC the
#: previous-operation flag it rolls into on the next command, ARDY/RDY
#: the array/controller ready pair, and WP_n is *active low* — the bit
#: is set when the die is writable.
STATUS_FAIL = 0x01
STATUS_FAILC = 0x02
STATUS_ARDY = 0x20
STATUS_RDY = 0x40
STATUS_WP_N = 0x80


@dataclass(frozen=True, slots=True)
class Status:
    """One decoded ONFI status byte: a response header's third byte and
    the READ_STATUS (70h) payload.

    Encodes and decodes the real register layout:
    ``Status.from_byte(s.to_byte()) == s`` for every field combination,
    and the undefined/reserved bits are never set.
    """

    ready: bool = True
    array_ready: bool = True
    failed: bool = False
    failed_previous: bool = False
    write_protected: bool = False

    def to_byte(self) -> int:
        """Pack into the ONFI SR[7:0] layout (reserved bits zero)."""
        value = 0
        if self.failed:
            value |= STATUS_FAIL
        if self.failed_previous:
            value |= STATUS_FAILC
        if self.array_ready:
            value |= STATUS_ARDY
        if self.ready:
            value |= STATUS_RDY
        if not self.write_protected:
            value |= STATUS_WP_N
        return value

    @classmethod
    def from_byte(cls, value: int) -> "Status":
        """Decode a status byte; reserved bits are ignored."""
        if not 0 <= value <= 0xFF:
            raise CommandError(f"status byte {value} outside 0-255")
        return cls(
            ready=bool(value & STATUS_RDY),
            array_ready=bool(value & STATUS_ARDY),
            failed=bool(value & STATUS_FAIL),
            failed_previous=bool(value & STATUS_FAILC),
            write_protected=not value & STATUS_WP_N,
        )

    def rolled(self, failed: bool) -> "Status":
        """The register after one more operation completes.

        FAIL tracks the operation that just finished; the old FAIL value
        rolls into FAILC (the ONFI cached-op semantics).  Ready bits are
        set — the simulator completes synchronously — and write protect
        is sticky.
        """
        return Status(
            ready=True,
            array_ready=True,
            failed=failed,
            failed_previous=self.failed,
            write_protected=self.write_protected,
        )


#: Request flag: hold this PROGRAM open so a following RESET can abort
#: it early (the paper's partial-program sequence, §1/§6.1).
FLAG_PARTIAL = 0x01

#: Request flag: the payload starts with an explicit f64 read threshold
#: (the vendor reference-shift applied to this operation only).
FLAG_THRESHOLD = 0x02

#: Request flag: the payload starts with a trace-parent prefix (u16
#: length + UTF-8 span name) naming the client-side span this frame's
#: server-side spans should stitch under.  Only ever set while
#: observability is enabled and a client span is open — with
#: ``REPRO_OBS=0`` the flag stays clear and the frame carries zero extra
#: bytes.  The prefix precedes a FLAG_THRESHOLD prefix when both are set.
FLAG_TRACE = 0x04

#: Error payload kinds — ``u8`` codes mapping wire errors back onto the
#: exact exception type the in-process chip raises.
ERROR_KINDS: Tuple[type, ...] = (
    NandError,
    CommandError,
    AddressError,
    ProgramError,
    EraseError,
    WearOutError,
    ValueError,
)
_KIND_BY_TYPE = {exc: code for code, exc in enumerate(ERROR_KINDS)}


def error_kind(exc: BaseException) -> int:
    """The wire code of an exception (most specific type wins)."""
    for klass in type(exc).__mro__:
        code = _KIND_BY_TYPE.get(klass)
        if code is not None:
            return code
    return 0


def encode_error(exc: BaseException) -> bytes:
    """Pack an exception as an error payload (kind + UTF-8 message)."""
    return bytes([error_kind(exc)]) + str(exc).encode("utf-8")


def decode_error(payload: bytes) -> Exception:
    """Rebuild the in-process exception an error payload describes."""
    if not payload:
        return NandError("malformed error frame (empty payload)")
    kind = payload[0]
    message = payload[1:].decode("utf-8", errors="replace")
    if kind >= len(ERROR_KINDS):
        return NandError(message)
    return ERROR_KINDS[kind](message)


def _header(opcode: int, flags_or_status: int, tag: int, payload) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise CommandError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame cap"
        )
    return HEADER.pack(
        MIN_LENGTH + len(payload), opcode & 0xFF, flags_or_status & 0xFF,
        tag & 0xFFFF,
    )


def pack_frame(
    opcode: int, flags_or_status: int, tag: int, payload: bytes = b""
) -> bytes:
    """Serialise one frame (header + payload)."""
    return _header(opcode, flags_or_status, tag, payload) + payload


def write_frame(
    wfile, opcode: int, flags_or_status: int, tag: int, payload=b""
) -> None:
    """Write one frame as header + payload without concatenating them.

    The scatter write keeps multi-megabyte batch payloads out of an
    intermediate ``header + payload`` copy; callers flush when the
    exchange needs the frame on the wire.
    """
    wfile.write(_header(opcode, flags_or_status, tag, payload))
    if payload:
        wfile.write(payload)


class FrameReader:
    """Incremental frame decoder over a readable binary stream.

    ``read_frame`` returns ``None`` on a clean end-of-stream at a frame
    boundary (the peer hung up between commands) and raises
    :class:`~repro.nand.errors.CommandError` when the stream ends inside
    a frame or the length field is out of bounds — truncation is always
    a *defined* failure, never a hang or a partial decode.
    """

    __slots__ = ("stream",)

    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream

    def _read_exact(self, n: int) -> Optional[bytearray]:
        """Read exactly `n` bytes into a fresh writable buffer.

        Returns ``None`` on immediate EOF (nothing read), raises on a
        short read.  The buffer is a ``bytearray`` so ndarray payloads
        can be viewed writable via ``np.frombuffer`` without a copy;
        ``readinto`` fills it straight from the stream when available.
        """
        buffer = bytearray(n)
        view = memoryview(buffer)
        readinto = getattr(self.stream, "readinto", None)
        got = 0
        while got < n:
            if readinto is not None:
                count = readinto(view[got:])
            else:
                chunk = self.stream.read(n - got)
                count = len(chunk) if chunk else 0
                if count:
                    view[got:got + count] = chunk
            if not count:
                if got == 0:
                    return None
                raise CommandError(
                    f"stream truncated: wanted {n} bytes, got {got}"
                )
            got += count
        return buffer

    def read_frame(self) -> Optional[Tuple[int, int, int, bytearray]]:
        """The next ``(opcode, flags_or_status, tag, payload)`` frame."""
        header = self._read_exact(HEADER.size)
        if header is None:
            return None
        length, opcode, flags, tag = HEADER.unpack(bytes(header))
        if length < MIN_LENGTH:
            raise CommandError(
                f"frame length {length} below the {MIN_LENGTH}-byte "
                f"header minimum"
            )
        if length - MIN_LENGTH > MAX_PAYLOAD:
            raise CommandError(
                f"frame length {length} exceeds the "
                f"{MAX_PAYLOAD}-byte payload cap"
            )
        payload = self._read_exact(length - MIN_LENGTH)
        if payload is None and length > MIN_LENGTH:
            raise CommandError(
                f"stream truncated: frame promised "
                f"{length - MIN_LENGTH} payload bytes, got none"
            )
        return opcode, flags, tag, payload if payload is not None else bytearray()


# ----------------------------------------------------------------------
# the opcode table
#
# Every payload layout lives in :data:`OPS` and nowhere else: the client
# and the server both run :func:`encode` and :func:`decode` over the same
# rows, so request/response symmetry holds by construction.

#: Field types.  Scalars are fixed-width little-endian values; array
#: types take ``count`` elements, or the rest of the payload when the
#: field has no count.
I64, U64, F64, U8 = "i64", "u64", "f64", "u8"
I64S = "i64s"  #: flat i64 array
LOCS = "locs"  #: ``[(block, page)]`` as interleaved i64 pairs
PAGES = "pages"  #: ``(rows, cells_per_page)`` uint8 matrix
BLOB = "blob"  #: the rest of the payload, raw bytes

_SCALARS = {
    I64: struct.Struct("<q"),
    U64: struct.Struct("<Q"),
    F64: struct.Struct("<d"),
    U8: struct.Struct("<B"),
}
_I64_ARRAY = np.dtype("<i8")


@dataclass(frozen=True)
class Field:
    """One payload field: a name, a type and when it is present."""

    name: str
    type: str
    #: Present only when this request flag is set (else decodes to None).
    flag: int = 0
    #: May be absent at the end of the payload (``None`` when absent).
    optional: bool = False
    #: Array length: an int, the name of an earlier (or request) field
    #: holding it or listing the elements, or None for the payload rest.
    count: Union[None, int, str] = None


@dataclass(frozen=True)
class OpSpec:
    """One opcode's row: its payload layouts and how it is issued."""

    request: Tuple[Field, ...] = ()
    response: Tuple[Field, ...] = ()
    #: Ack-only: the client pipelines it, the server answers no payload.
    posted: bool = False
    #: Completes a chip operation, so the status register rolls after
    #: it; host-side queries leave the register untouched.
    rolls: bool = True


#: HELLO answers the served geometry under ChipGeometry's own names.
GEOMETRY_FIELDS = ("n_blocks", "pages_per_block", "cells_per_page", "page_bytes")

_LOCATIONS = Field("locations", LOCS)

OPS: Dict[Op, OpSpec] = {
    Op.ERASE: OpSpec((Field("block", I64),), posted=True),
    Op.READ_STATUS: OpSpec(response=(Field("status", U8),), rolls=False),
    Op.PROGRAM: OpSpec(
        (Field("block", I64), Field("page", I64),
         Field("bits", PAGES, count=1)),
        posted=True,
    ),
    Op.SET_READ_THRESHOLD: OpSpec(
        (Field("level", F64, optional=True),), posted=True
    ),
    Op.PARTIAL_PROGRAM: OpSpec(
        (Field("block", I64), Field("page", I64), Field("fraction", F64),
         Field("precision", F64), Field("cells", I64S)),
        posted=True,
    ),
    Op.RESET: OpSpec((Field("abort_after_us", F64, optional=True),), posted=True),
    Op.READ_LOCATIONS: OpSpec(
        (Field("threshold", F64, flag=FLAG_THRESHOLD), _LOCATIONS),
        (Field("bits", PAGES, count="locations"),),
    ),
    Op.PROBE_LOCATIONS: OpSpec(
        (_LOCATIONS,), (Field("voltages", PAGES, count="locations"),)
    ),
    Op.PROGRAM_LOCATIONS: OpSpec(
        (Field("count", I64), Field("locations", LOCS, count="count"),
         Field("bits", PAGES, count="count")),
        posted=True,
    ),
    # Algorithm 1 on the device: `sizes` splits the flat `cells` list
    # into one zero-cell list per location.
    Op.EMBED_LOCATIONS: OpSpec(
        (Field("target", F64), Field("steps", I64), Field("fraction", F64),
         Field("precision", F64), Field("count", I64),
         Field("locations", LOCS, count="count"),
         Field("sizes", I64S, count="count"), Field("cells", I64S)),
        (Field("steps_used", I64S, count="count"),
         Field("cells_left", I64S, count="count")),
    ),
    Op.HELLO: OpSpec(
        response=(*(Field(name, I64) for name in GEOMETRY_FIELDS),
                  Field("seed", U64), Field("clock", F64)),
        rolls=False,
    ),
    Op.ADVANCE_TIME: OpSpec((Field("seconds", F64),), (Field("clock", F64),)),
    Op.IS_PROGRAMMED: OpSpec(
        (Field("block", I64), Field("page", I64)),
        (Field("programmed", U8),),
    ),
    Op.BLOCK_PEC: OpSpec((Field("block", I64),), (Field("pec", I64),)),
    Op.OBS_COLLECT: OpSpec(
        (Field("reset", U8, optional=True),),
        (Field("snapshot", BLOB),),
        rolls=False,
    ),
    Op.SHUTDOWN: OpSpec(rolls=False),
}


def _present(field: Field, flags: int) -> bool:
    return not field.flag or bool(flags & field.flag)


def encode(
    fields: Sequence[Field], values: Mapping[str, Any], flags: int = 0
) -> Union[bytes, memoryview]:
    """Pack ``values`` (by field name) into one payload.

    A lone ``PAGES`` field comes back as a memoryview, so multi-megabyte
    batch responses reach :func:`write_frame` without a copy.
    """
    parts: List[Union[bytes, memoryview]] = []
    for field in fields:
        value = values.get(field.name)
        if not _present(field, flags) or (field.optional and value is None):
            continue
        scalar = _SCALARS.get(field.type)
        if scalar is not None:
            parts.append(scalar.pack(value))
        elif field.type in (I64S, LOCS):
            array = np.asarray(value)
            if array.size and array.dtype.kind not in "iu":
                # Never truncate: 1.9 is no cell, page or list size.
                raise CommandError(
                    f"{field.name} must hold integers, got {array.dtype}"
                )
            parts.append(array.astype(_I64_ARRAY, copy=False).tobytes())
        elif field.type == PAGES:
            array = np.ascontiguousarray(value, dtype=np.uint8)
            parts.append(memoryview(array.ravel()))
        else:
            parts.append(bytes(value))
    return parts[0] if len(parts) == 1 else b"".join(parts)


def decode(
    fields: Sequence[Field],
    payload,
    flags: int = 0,
    cells: int = 0,
    context: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Parse a whole payload into one value per field.

    `cells` is the page width of ``PAGES`` fields; `context` resolves
    counts that name request fields (a response's row count).  Any
    shortfall, bad count or trailing byte raises
    :class:`~repro.nand.errors.CommandError` before a caller acts on it.
    Arrays are zero-copy views, writable over a ``bytearray`` payload.
    """
    known = dict(context or {})
    out: Dict[str, Any] = {}
    offset = 0
    for field in fields:
        if not _present(field, flags) or (
            field.optional and offset == len(payload)
        ):
            out[field.name] = None
            continue
        value, offset = _take(field, payload, offset, cells, known)
        out[field.name] = known[field.name] = value
    if offset != len(payload):
        raise CommandError(f"{len(payload) - offset} trailing payload bytes")
    return out


def _take(field: Field, payload, offset: int, cells: int, known) -> Tuple[Any, int]:
    size = len(payload)
    scalar = _SCALARS.get(field.type)
    if scalar is not None:
        if offset + scalar.size > size:
            raise CommandError(
                f"payload truncated: wanted {field.type} {field.name!r} at "
                f"offset {offset}, have {size} bytes"
            )
        return scalar.unpack_from(payload, offset)[0], offset + scalar.size
    if field.type == BLOB:
        return bytes(payload[offset:]), size
    width = {I64S: 8, LOCS: 16, PAGES: cells}[field.type]
    count = field.count
    if isinstance(count, str):
        count = known[count] if isinstance(known[count], int) else len(known[count])
    rest = size - offset
    if count is None:
        if rest % width:
            raise CommandError(
                f"payload tail of {rest} bytes is not whole "
                f"{width}-byte {field.name}"
            )
        count = rest // width
    elif count < 0:
        raise CommandError(f"negative {field.name} count {count}")
    elif count * width > rest:
        raise CommandError(
            f"payload truncated: wanted {count} {field.name} of {width} "
            f"bytes at offset {offset}, have {size} bytes"
        )
    end = offset + count * width
    if field.type == PAGES:
        matrix = np.frombuffer(payload, np.uint8, count * cells, offset)
        return matrix.reshape(count, cells), end
    flat = np.frombuffer(payload, _I64_ARRAY, count * width // 8, offset)
    if field.type == LOCS:
        return [(int(block), int(page)) for block, page in flat.reshape(-1, 2)], end
    return flat, end


# ----------------------------------------------------------------------
# trace-parent prefix (FLAG_TRACE), stripped before the table applies

_U16 = struct.Struct("<H")

#: Span names are short dotted paths; a length beyond this is corruption.
MAX_TRACE_PARENT = 1 << 12


def pack_trace_parent(name: str) -> bytes:
    """Encode a trace-parent prefix: u16 length + UTF-8 span name."""
    raw = name.encode("utf-8")
    if len(raw) > MAX_TRACE_PARENT:
        raise CommandError(
            f"trace parent of {len(raw)} bytes exceeds the "
            f"{MAX_TRACE_PARENT}-byte cap"
        )
    return _U16.pack(len(raw)) + raw


def take_trace_parent(payload, offset: int) -> Tuple[str, int]:
    """Decode a trace-parent prefix; returns (name, next offset)."""
    if offset + 2 > len(payload):
        raise CommandError(
            f"payload truncated: wanted trace-parent length at offset "
            f"{offset}, have {len(payload)} bytes"
        )
    (size,) = _U16.unpack_from(payload, offset)
    offset += 2
    if size > MAX_TRACE_PARENT:
        raise CommandError(
            f"trace parent of {size} bytes exceeds the "
            f"{MAX_TRACE_PARENT}-byte cap"
        )
    end = offset + size
    if end > len(payload):
        raise CommandError(
            f"payload truncated: trace parent promised {size} bytes, "
            f"have {len(payload) - offset}"
        )
    name = bytes(payload[offset:end]).decode("utf-8", errors="replace")
    return name, end


