"""RemoteChip: the FlashChip data plane over a wire connection.

The host half of the device-server split.  A :class:`RemoteChip` speaks
the frame protocol of :mod:`repro.onfi.wire` to a
:class:`~repro.onfi.server.ChipServer` and exposes the same surface the
fleet and hiding layers use on an in-process
:class:`~repro.nand.chip.FlashChip` — the same location kernels plus the
shared :class:`~repro.nand.chip.PageOps` page and block forms, with the
same results bit for bit and the same error types and messages.

Two properties make the transport cheap and exact:

* **Coalesced framing** — every location-list kernel call is one frame
  each way, with ndarray payloads shipped as raw bytes (no pickling, no
  per-page round trips), so framing cost amortises over the batch.
* **Pipelining** — acknowledgement-only operations (programs, erases,
  partial programs, threshold sets, resets) are always posted without
  waiting; responses are matched by echoed tags at the next
  synchronising call.  The server executes frames strictly in order, so
  posting changes only when a failure is seen, never the chip state it
  leaves.  A posted operation's failure surfaces at the next sync point
  with the original exception type and message (earliest failure
  first).

Every payload is packed and parsed by the opcode table
(:data:`repro.onfi.wire.OPS`).  Programs run the *pure* in-process
checks client-side (:func:`~repro.nand.chip.check_locations`,
:func:`~repro.nand.chip.stack_payloads`) before posting, so they fail
at the call with the in-process error text; reads, probes and embeds
leave their location checks to the served chip, whose status register
records a bad address as a device's would.  The cell forms of reads
and probes check their cell lists client-side
(:func:`~repro.nand.chip.check_cell_lists`, which the in-process chip
also runs first), send the full-page frame and slice the answer; pulses
and embeds reject a non-integer or multi-dimensional cell list before
encoding it (:func:`~repro.nand.chip.cell_array`, the in-process
command's first check too).
Everything stateful is judged by the real chip on the server.
"""

from __future__ import annotations

import os
import socket
from collections import deque
from contextlib import suppress
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..nand.chip import (
    OpCounters,
    PageOps,
    as_bits,
    cell_array,
    check_cell_lists,
    check_locations,
    integer_locations,
    stack_payloads,
)
from ..nand.errors import CommandError
from ..nand.geometry import ChipGeometry, check_integer
from ..nand.params import ChipParams
from ..obs.metrics import ObsSnapshot, is_enabled as _obs_enabled
from ..obs.trace import current_span_name
from ..obs.wirefmt import decode_snapshot
from .wire import (
    FLAG_PARTIAL,
    FLAG_THRESHOLD,
    FLAG_TRACE,
    GEOMETRY_FIELDS,
    OPS,
    FrameReader,
    Op,
    Status,
    decode,
    decode_error,
    encode,
    pack_trace_parent,
    write_frame,
)

#: Posted (unacknowledged) operations in flight before a forced drain.
#: Ack responses are 8 bytes, so the server can never block writing
#: this many — which is what keeps pipelined writes deadlock-free.
MAX_OUTSTANDING = 512


class RemoteChip(PageOps):
    """A flash chip living behind a :mod:`repro.onfi` wire connection."""

    def __init__(
        self,
        transport,
        geometry: ChipGeometry,
        params: Optional[ChipParams] = None,
    ) -> None:
        """Connect over `transport` (a socket or an ``(rfile, wfile)``
        stream pair) and verify the served chip matches `geometry`.
        """
        self.geometry = geometry
        self.params = params if params is not None else ChipParams()
        self._sock: Optional[socket.socket] = None
        if isinstance(transport, socket.socket):
            self._sock = transport
            self._rfile = transport.makefile("rb")
            self._wfile = transport.makefile("wb")
        else:
            self._rfile, self._wfile = transport
        self._reader = FrameReader(self._rfile)
        # The initial tag is random so a desynchronised or replayed
        # stream is detected on the first response (TCP-ISN style).
        # It frames transport bookkeeping only and never reaches the
        # chip, so determinism of results is unaffected.
        self._tag = int.from_bytes(os.urandom(2), "little")  # repro: noqa[DET001] — wire tag seed is transport bookkeeping, never a chip input
        self._outstanding: Deque[Tuple[int, Op]] = deque()
        self._deferred: List[Exception] = []
        self._closed = False
        #: Request frames sent, by opcode — transport accounting only
        #: (tests assert the disabled-obs path adds zero frames).
        self.sent_ops: Dict[int, int] = {}
        self._hello()

    # ------------------------------------------------------------------
    # transport plumbing

    def _next_tag(self) -> int:
        self._tag = (self._tag + 1) & 0xFFFF
        return self._tag

    def _read_matching(self, want_tag: int, want_op: Op):
        """Read one response and verify it answers (`want_tag`, op)."""
        frame = self._reader.read_frame()
        if frame is None:
            raise CommandError("server closed the connection mid-exchange")
        opcode, status_byte, tag, payload = frame
        if tag != want_tag or opcode != int(want_op):
            raise CommandError(
                f"response desync: expected tag {want_tag} opcode "
                f"0x{int(want_op):02X}, got tag {tag} opcode 0x{opcode:02X}"
            )
        return Status.from_byte(status_byte), payload

    def _drain_acks(self) -> None:
        """Collect responses for every posted operation, deferring
        failures in arrival (= issue) order."""
        while self._outstanding:
            tag, op = self._outstanding.popleft()
            status, payload = self._read_matching(tag, op)
            if status.failed:
                self._deferred.append(decode_error(bytes(payload)))

    def _raise_deferred(self) -> None:
        if self._deferred:
            error = self._deferred[0]
            self._deferred = []
            raise error

    def _wrap_trace(self, flags: int, payload: bytes) -> Tuple[int, bytes]:
        """Prefix the frame with the current span name, if one is open.

        Zero bytes and zero branches beyond one flag check when
        observability is disabled — the wire image of a disabled-obs run
        is byte-identical to one without this feature.
        """
        if _obs_enabled():
            parent = current_span_name()
            if parent is not None:
                return flags | FLAG_TRACE, pack_trace_parent(parent) + payload
        return flags, payload

    def _send(self, op: Op, flags: int, payload) -> int:
        """Write one request frame (unflushed); returns its tag."""
        flags, payload = self._wrap_trace(flags, payload)
        tag = self._next_tag()
        self.sent_ops[int(op)] = self.sent_ops.get(int(op), 0) + 1
        write_frame(self._wfile, int(op), flags, tag, payload)
        return tag

    def _post(self, op: Op, flags: int = 0, payload: bytes = b"") -> None:
        """Issue an ack-only operation without waiting for its answer."""
        if len(self._outstanding) >= MAX_OUTSTANDING:
            self.drain()
        self._outstanding.append((self._send(op, flags, payload), op))

    def _call(self, op: Op, flags: int = 0, payload: bytes = b""):
        """Issue an operation and wait for its response (a sync point).

        Flushes the pipeline first; failures of earlier posted
        operations take precedence over this call's own outcome.
        """
        tag = self._send(op, flags, payload)
        self._wfile.flush()
        self._drain_acks()
        status, response = self._read_matching(tag, op)
        error: Optional[Exception] = None
        if status.failed:
            error = decode_error(bytes(response))
        self._raise_deferred()
        if error is not None:
            raise error
        return status, response

    def drain(self) -> None:
        """Synchronise: flush posted operations and surface any failure."""
        self._wfile.flush()
        self._drain_acks()
        self._raise_deferred()

    def _request(self, op: Op, flags: int = 0, **fields: Any) -> Dict[str, Any]:
        """Send `op` with `fields` laid out by the opcode table.

        Posted ops are pipelined and answer nothing; the rest wait and
        return their decoded response fields (a response count such as
        a read's row count resolves against the request fields).
        """
        spec = OPS[op]
        payload = encode(spec.request, fields, flags)
        if spec.posted:
            self._post(op, flags, payload)
            return {}
        _, response = self._call(op, flags, payload)
        return decode(
            spec.response,
            response,
            cells=self.geometry.cells_per_page,
            context=fields,
        )

    def _hello(self) -> None:
        hello = self._request(Op.HELLO)
        self.seed, self.clock = hello["seed"], hello["clock"]
        served = tuple(hello[name] for name in GEOMETRY_FIELDS)
        expected = tuple(getattr(self.geometry, n) for n in GEOMETRY_FIELDS)
        if served != expected:
            raise CommandError(
                f"server chip geometry {served} does not match the "
                f"client's {expected} "
                f"(blocks, pages/block, cells/page, bytes/page)"
            )

    def close(self, shutdown: bool = True) -> None:
        """Drain the pipeline, optionally SHUTDOWN the server, hang up."""
        if self._closed:
            return
        self._closed = True
        try:
            if shutdown:
                self._request(Op.SHUTDOWN)
            else:
                self.drain()
        finally:
            for stream in (self._wfile, self._rfile, self._sock):
                if stream is not None:
                    with suppress(OSError):
                        stream.close()

    def __enter__(self) -> "RemoteChip":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Suppress SHUTDOWN on an error path: the connection may be
        # mid-desync and the server's exit is the handle's job anyway.
        self.close(shutdown=exc_type is None)

    # ------------------------------------------------------------------
    # FlashChip surface — location kernels and ONFI commands

    def read_locations(
        self,
        locations: Sequence[Tuple[int, int]],
        threshold: Optional[float] = None,
        cells: Optional[Sequence] = None,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        flags = 0 if threshold is None else FLAG_THRESHOLD
        return self._rows(
            Op.READ_LOCATIONS, "bits", locations, cells, flags,
            threshold=threshold,
        )

    def probe_voltages_locations(
        self,
        locations: Sequence[Tuple[int, int]],
        cells: Optional[Sequence] = None,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        return self._rows(Op.PROBE_LOCATIONS, "voltages", locations, cells)

    def _rows(
        self,
        op: Op,
        field: str,
        locations: Sequence[Tuple[int, int]],
        cells: Optional[Sequence],
        flags: int = 0,
        **fields: Any,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """A whole-page read or probe frame; with `cells`, checked first,
        the list of its rows indexed by them."""
        locations = list(locations)
        lists = None if cells is None else check_cell_lists(
            self.geometry, cells, len(locations)
        )
        pairs = integer_locations(locations)
        rows = self._request(op, flags, locations=pairs, **fields)[field]
        return rows if lists is None else [
            row[index] for row, index in zip(rows, lists)
        ]

    def program_locations(
        self, locations: Sequence[Tuple[int, int]], data: Iterable
    ) -> None:
        pairs = check_locations(self.geometry, locations)
        bits = stack_payloads(self.geometry, data, len(pairs))
        self._request(
            Op.PROGRAM_LOCATIONS, count=len(pairs), locations=pairs, bits=bits
        )

    def embed_locations(
        self,
        items: Sequence[Tuple[int, int, Any]],
        target: float,
        steps: int,
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> List[Tuple[int, int]]:
        """Algorithm 1's loop on the served chip: one EMBED_LOCATIONS
        round trip, however many probe and pulse steps it runs."""
        items = list(items)
        lists = [
            cell_array(cells, f"embed_locations item {i} cells")
            for i, (_, _, cells) in enumerate(items)
        ]
        pairs = integer_locations([item[:2] for item in items])
        answer = self._request(
            Op.EMBED_LOCATIONS,
            target=target,
            steps=steps,
            fraction=fraction,
            precision=precision,
            count=len(pairs),
            locations=pairs,
            sizes=[cells.size for cells in lists],
            cells=np.concatenate(lists) if lists else [],
        )
        return [
            (int(used), int(left))
            for used, left in zip(answer["steps_used"], answer["cells_left"])
        ]

    def erase_block(self, block: int) -> None:
        check_integer("block", block)
        self._request(Op.ERASE, block=block)

    def partial_program(
        self,
        block: int,
        page: int,
        cells: Sequence[int],
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> None:
        cells = cell_array(cells, "partial_program cells")
        integer_locations([(block, page)])
        self._request(
            Op.PARTIAL_PROGRAM,
            block=block,
            page=page,
            fraction=fraction,
            precision=precision,
            cells=cells,
        )

    def partial_program_via_reset(
        self, block: int, page: int, data, abort_after_us: float = 600.0
    ) -> None:
        """The §6.1 host sequence on the wire: a PROGRAM of `data` held
        open (FLAG_PARTIAL) and aborted by RESET after `abort_after_us`
        microseconds, charging the pattern's '0' cells partially: the
        same charge as :meth:`partial_program` of those cells with
        ``fraction = abort_after_us / t_pp``, where ``t_pp`` is the
        served chip's ``costs.t_partial_program`` (600 us by default).
        """
        bits = as_bits(self.geometry, data)
        self._request(Op.PROGRAM, FLAG_PARTIAL, block=block, page=page, bits=bits)
        self._request(Op.RESET, abort_after_us=abort_after_us)

    def set_read_threshold(self, level: Optional[float]) -> None:
        """Set the server-side read reference shift (until a RESET)."""
        self._request(Op.SET_READ_THRESHOLD, level=level)

    def reset(self) -> None:
        """Plain RESET: clears volatile server state (threshold, SR)."""
        self._request(Op.RESET)

    def read_status(self) -> Status:
        """READ_STATUS: the server's ONFI status register, decoded.

        The register byte arrives in the payload — the response header's
        FAIL bit reports only whether the query frame itself failed.
        """
        return Status.from_byte(self._request(Op.READ_STATUS)["status"])

    # ------------------------------------------------------------------
    # FlashChip surface — clock, counters, queries

    def advance_time(self, seconds: float) -> None:
        self.clock = self._request(Op.ADVANCE_TIME, seconds=seconds)["clock"]

    def obs_collect(self, reset: bool = False) -> ObsSnapshot:
        """Harvest the server's telemetry registry as an ObsSnapshot.

        Counters, gauges, histograms, profile and spans are whatever the
        server recorded since its last reset; ``op_counters`` are always
        the chip's cumulative totals.  ``reset=True`` clears the
        registry (not the op counters) after the snapshot — the fleet's
        per-round delta harvest.  The snapshot travels as the JSON
        document of :mod:`repro.obs.wirefmt`, whose floats round-trip
        exactly, so it is bit-identical to one taken in the server's
        process.
        """
        answer = self._request(Op.OBS_COLLECT, reset=1 if reset else None)
        try:
            return decode_snapshot(answer["snapshot"])
        except ValueError as exc:
            raise CommandError(
                f"OBS_COLLECT payload undecodable: {exc}"
            ) from exc

    @property
    def counters(self) -> OpCounters:
        """The server chip's cumulative op counters (f64-exact).

        Rides the generic OBS_COLLECT snapshot encoding — new
        ``OpCounters`` fields transport without touching this client.
        """
        ops: Optional[OpCounters] = self.obs_collect().op_counters
        if ops is None:
            raise CommandError("OBS_COLLECT answered no op counters")
        return ops

    def is_page_programmed(self, block: int, page: int) -> bool:
        integer_locations([(block, page)])
        answer = self._request(Op.IS_PROGRAMMED, block=block, page=page)
        return bool(answer["programmed"])

    def block_pec(self, block: int) -> int:
        check_integer("block", block)
        return self._request(Op.BLOCK_PEC, block=block)["pec"]
