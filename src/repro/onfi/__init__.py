"""ONFI wire transport: chips as out-of-process device servers.

The host/tester split of the paper's §6.1 made literal, and the repo's
one ONFI command model: a :class:`ChipServer` owns one
:class:`~repro.nand.chip.FlashChip`, its :class:`Status` register and
its read-reference shift, and serves the binary frame protocol of
:mod:`repro.onfi.wire`; a :class:`RemoteChip` client exposes the same
batch API as the in-process chip — bit-identically — over a socket,
socketpair or pipe, so the fleet and hiding layers run unchanged
against remote silicon.  See DESIGN.md §13 for the frame layout,
opcodes, status-byte semantics and pipelining rules.
"""

from .client import MAX_OUTSTANDING, RemoteChip
from .server import (
    ChipServer,
    ServerHandle,
    serve_listener,
    serve_socket,
    spawn_chip_server,
)
from .wire import (
    ERROR_KINDS,
    FLAG_PARTIAL,
    FLAG_THRESHOLD,
    FLAG_TRACE,
    HEADER,
    MAX_PAYLOAD,
    MIN_LENGTH,
    FrameReader,
    Op,
    Status,
    decode_error,
    encode_error,
    error_kind,
    pack_frame,
    pack_trace_parent,
    take_trace_parent,
    write_frame,
)

__all__ = [
    "ChipServer",
    "ERROR_KINDS",
    "FLAG_PARTIAL",
    "FLAG_THRESHOLD",
    "FLAG_TRACE",
    "FrameReader",
    "HEADER",
    "MAX_OUTSTANDING",
    "MAX_PAYLOAD",
    "MIN_LENGTH",
    "Op",
    "RemoteChip",
    "ServerHandle",
    "Status",
    "decode_error",
    "encode_error",
    "error_kind",
    "pack_frame",
    "pack_trace_parent",
    "serve_listener",
    "serve_socket",
    "spawn_chip_server",
    "take_trace_parent",
    "write_frame",
]
