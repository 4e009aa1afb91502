"""ChipServer: one :class:`~repro.nand.chip.FlashChip` behind the wire.

The device half of the §6.1 host/tester boundary: a server owns a chip
and serves the frame protocol of :mod:`repro.onfi.wire` over any byte
stream (socket, socketpair, pipe, or an in-memory stream for tests).
Dispatch is strictly sequential per connection — frames execute in
arrival order, which is what makes client-side pipelining semantically
identical to synchronous calls — and every malformed frame yields a
*defined* error response: the connection only drops on header-level
corruption, where the stream offset itself is no longer trustworthy.

Payloads are parsed and answered through the opcode table
(:data:`repro.onfi.wire.OPS`).  The ONFI status register and the read
threshold live on an :class:`~repro.nand.onfi.OnfiBus` over the chip:
the register rolls after every chip operation exactly as the in-process
bus rolls it, and host-side queries leave it untouched.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from contextlib import nullcontext, suppress
from dataclasses import replace
from typing import BinaryIO, Dict, Optional, Tuple

import numpy as np

from ..nand.chip import FlashChip
from ..nand.errors import CommandError, NandError
from ..nand.geometry import ChipGeometry
from ..nand.onfi import STATUS_FAIL, OnfiBus, partial_program_fraction
from ..nand.params import ChipParams
from ..obs.metrics import (
    Registry,
    is_enabled as _obs_enabled,
    pop_registry,
    push_registry,
    set_enabled,
)
from ..obs.trace import adopt_parent, span
from ..obs.wirefmt import encode_snapshot
from .wire import (
    FLAG_PARTIAL,
    FLAG_TRACE,
    GEOMETRY_FIELDS,
    HELLO_FLAGS_MASK,
    OPS,
    FrameReader,
    Op,
    decode,
    encode,
    encode_error,
    take_trace_parent,
    write_frame,
)


class ChipServer:
    """Serve one flash chip to one connection at a time."""

    def __init__(self, chip: FlashChip, proc_label: str = "") -> None:
        self.chip = chip
        #: The ONFI status register and the volatile read-reference
        #: shift (the SET_READ_THRESHOLD state), shared with OnfiBus.
        self.bus = OnfiBus(chip)
        #: A PROGRAM held open by FLAG_PARTIAL, waiting for its RESET:
        #: ``(block, page, bits)``.
        self._pending: Optional[Tuple[int, int, np.ndarray]] = None
        #: This server's private telemetry domain.  Pushed around every
        #: frame dispatch (when observability is enabled), so server-side
        #: spans and metrics accumulate here — isolated from the caller's
        #: registries on the thread backend, and harvestable over the
        #: wire via OBS_COLLECT on both backends.  ``proc_label`` stamps
        #: recorded spans for multi-process trace stitching.
        self.registry = Registry(proc_label=proc_label)

    # ------------------------------------------------------------------
    # frame dispatch (pure in the frame; fuzzable without a socket)

    def handle_frame(
        self, opcode: int, flags: int, tag: int, payload
    ) -> Tuple[int, bytes, bool]:
        """Execute one frame -> ``(status_byte, payload, keep_serving)``.

        Any malformed opcode/flags/payload — and any chip-level failure —
        produces an error payload under a FAIL status byte; nothing a
        frame contains can raise out of here short of an internal bug,
        so a connection survives arbitrary garbage *frames* (only broken
        *framing* closes it, in :meth:`serve`).  SHUTDOWN ends the
        connection whether or not its frame parses.
        """
        try:
            op: Optional[Op] = Op(opcode)
        except ValueError:
            op = None
        rolls = op is None or OPS[op].rolls
        keep = op is not Op.SHUTDOWN
        try:
            if op is None:
                raise CommandError(f"unknown opcode 0x{opcode:02X}")
            if self._pending is not None and op is not Op.RESET:
                # Any command other than the closing RESET aborts the
                # held PROGRAM before any charge is injected.
                self._pending = None
                raise CommandError(
                    f"a PROGRAM is held open for RESET; opcode "
                    f"0x{opcode:02X} aborts it uncharged"
                )
            trace_parent: Optional[str] = None
            if flags & FLAG_TRACE:
                # Zero-copy strip: the table sees only the op's payload.
                trace_parent, o = take_trace_parent(payload, 0)
                payload = memoryview(payload)[o:]
                flags &= ~FLAG_TRACE
            if _obs_enabled():
                # Route this frame's spans/metrics into the server's
                # private registry, parented under the client's span
                # when the frame carried a trace-parent prefix.  Queries
                # stay span-free: an OBS_COLLECT span would always close
                # *after* the snapshot it serves and leak into the next
                # harvest.
                push_registry(self.registry)
                try:
                    parent = (
                        nullcontext() if trace_parent is None
                        else adopt_parent(trace_parent)
                    )
                    frame_span = (
                        span(f"onfi.{op.name.lower()}") if rolls
                        else nullcontext()
                    )
                    with parent, frame_span:
                        out, status_byte = self._dispatch(op, flags, payload)
                finally:
                    pop_registry()
            else:
                out, status_byte = self._dispatch(op, flags, payload)
        except (NandError, ValueError) as exc:
            if rolls:
                self.bus.record_outcome(failed=True)
            return self.bus.status.to_byte() | STATUS_FAIL, encode_error(exc), keep
        if status_byte is None:
            if rolls:
                self.bus.record_outcome(failed=False)
            # Header FAIL always means *this frame* failed; a query
            # reports the register's own FAIL via READ_STATUS's payload,
            # never via the response header.
            status_byte = self.bus.status.to_byte() & ~STATUS_FAIL
        return status_byte, out, keep

    def _dispatch(
        self, op: Op, flags: int, payload
    ) -> Tuple[bytes, Optional[int]]:
        """Decode the whole payload, run the handler, encode its answer."""
        spec = OPS[op]
        fields = decode(
            spec.request, payload, flags, self.chip.geometry.cells_per_page
        )
        result = self._HANDLERS[op](self, flags, **fields)
        if spec.posted:
            return b"", None if result is None else result.to_byte()
        return encode(spec.response, result or {}), None

    def serve(self, reader: FrameReader, wfile: BinaryIO) -> None:
        """Serve frames until clean EOF, SHUTDOWN or broken framing."""
        while True:
            try:
                frame = reader.read_frame()
            except CommandError:
                # Header-level corruption: the stream offset is
                # undefined, so hanging up is the only safe answer.
                return
            if frame is None:
                return
            opcode, flags, tag, payload = frame
            status, out, keep = self.handle_frame(opcode, flags, tag, payload)
            write_frame(wfile, opcode, status, tag, out)
            wfile.flush()
            if not keep:
                return

    # ------------------------------------------------------------------
    # handlers: (flags, **request fields) -> response fields
    #
    # Synchronous handlers return their response fields by name.  Posted
    # handlers answer no payload; they return None to roll the register
    # for a successful operation, or the Status to report instead (busy,
    # fresh reset).

    def _op_erase(self, flags, block):
        self.chip.erase_block(block)

    def _op_read_status(self, flags):
        # The register byte travels in the payload: the response header
        # FAIL bit is reserved for this frame's own outcome.
        return {"status": self.bus.status.to_byte()}

    def _op_program(self, flags, block, page, bits):
        if flags & FLAG_PARTIAL:
            # Held open: charge is only injected when RESET arrives with
            # an abort time.  The device reports busy (RDY/ARDY clear);
            # FAIL stays clear — the frame itself was accepted.
            self._pending = (block, page, bits)
            return replace(
                self.bus.status, ready=False, array_ready=False, failed=False
            )
        self.chip.program_locations([(block, page)], bits)
        return None

    def _op_set_read_threshold(self, flags, level):
        self.bus.read_threshold = level

    def _op_partial_program(self, flags, block, page, fraction, precision, cells):
        self.chip.partial_program(
            block, page, cells, fraction=fraction, precision=precision
        )

    def _op_reset(self, flags, abort_after_us):
        if abort_after_us is None:
            # Plain RESET: volatile settings and the status register
            # clear; a held PROGRAM is aborted uncharged.
            self._pending = None
            self.bus.reset()
            return self.bus.status
        if self._pending is None:
            raise CommandError(
                "RESET carries an abort time but no PROGRAM is held open"
            )
        block, page, bits = self._pending
        self._pending = None
        fraction = partial_program_fraction(self.chip, abort_after_us)
        # The held PROGRAM pattern charges its '0' cells — aborted at
        # `abort_after_us`, exactly OnfiBus.partial_program's mapping.
        cells = np.flatnonzero(bits == 0)
        self.chip.partial_program(block, page, cells, fraction=fraction)
        return None

    def _op_read_locations(self, flags, threshold, locations):
        if threshold is None:
            threshold = self.bus.read_threshold
        return {"bits": self.chip.read_locations(locations, threshold)}

    def _op_probe_locations(self, flags, locations):
        return {"voltages": self.chip.probe_voltages_locations(locations)}

    def _op_program_locations(self, flags, count, locations, bits):
        self.chip.program_locations(locations, bits)

    def _op_hello(self, flags, capabilities):
        geometry = self.chip.geometry
        answer = {name: getattr(geometry, name) for name in GEOMETRY_FIELDS}
        # Echo the accepted capabilities; an absent byte is a legacy
        # client with no obs/trace.
        answer.update(
            seed=self.chip.seed,
            clock=self.chip.clock,
            capabilities=(capabilities or 0) & HELLO_FLAGS_MASK,
        )
        return answer

    def _op_advance_time(self, flags, seconds):
        self.chip.advance_time(seconds)
        return {"clock": self.chip.clock}

    def _op_obs_collect(self, flags, reset):
        # A nonzero `reset` clears the registry after the snapshot
        # (delta-harvest mode, used by the fleet's per-round collection).
        # The snapshot's op_counters are always the chip's *cumulative*
        # totals: they are core chip state, not registry state, so
        # OBS_COLLECT answers them even with REPRO_OBS=0 and a reset
        # never rewinds them.
        snapshot = self.registry.snapshot()
        snapshot.op_counters = self.chip.counters.copy()
        out = encode_snapshot(snapshot)
        if reset:
            self.registry.reset()
        return {"snapshot": out}

    def _op_obs_reset(self, flags):
        self.registry.reset()

    def _op_is_programmed(self, flags, block, page):
        return {"programmed": int(self.chip.is_page_programmed(block, page))}

    def _op_block_pec(self, flags, block):
        return {"pec": self.chip.block_pec(block)}

    def _op_shutdown(self, flags):
        return None

    _HANDLERS: Dict[Op, object] = {
        Op.ERASE: _op_erase,
        Op.READ_STATUS: _op_read_status,
        Op.PROGRAM: _op_program,
        Op.SET_READ_THRESHOLD: _op_set_read_threshold,
        Op.PARTIAL_PROGRAM: _op_partial_program,
        Op.RESET: _op_reset,
        Op.READ_LOCATIONS: _op_read_locations,
        Op.PROBE_LOCATIONS: _op_probe_locations,
        Op.PROGRAM_LOCATIONS: _op_program_locations,
        Op.HELLO: _op_hello,
        Op.ADVANCE_TIME: _op_advance_time,
        Op.IS_PROGRAMMED: _op_is_programmed,
        Op.BLOCK_PEC: _op_block_pec,
        Op.OBS_COLLECT: _op_obs_collect,
        Op.OBS_RESET: _op_obs_reset,
        Op.SHUTDOWN: _op_shutdown,
    }


# ----------------------------------------------------------------------
# transports


def serve_stream(
    chip: FlashChip,
    rfile: BinaryIO,
    wfile: BinaryIO,
    proc_label: str = "",
) -> None:
    """Serve one connection given buffered read/write streams."""
    ChipServer(chip, proc_label=proc_label).serve(FrameReader(rfile), wfile)


def serve_socket(
    chip: FlashChip, sock: socket.socket, proc_label: str = ""
) -> None:
    """Serve one connected socket until the peer hangs up or SHUTDOWN."""
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    try:
        serve_stream(chip, rfile, wfile, proc_label=proc_label)
    except (BrokenPipeError, ConnectionResetError, OSError):
        pass  # the peer vanished mid-response; nothing left to answer
    finally:
        for stream in (wfile, rfile):
            with suppress(OSError):
                stream.close()


def serve_listener(
    chip: FlashChip, listener: socket.socket, once: bool = False
) -> None:
    """Accept-and-serve loop for ``repro-stash onfi-serve``.

    One connection at a time — the protocol is stateful per connection
    (status register, held PROGRAM), and the chip itself is single-die.
    ``once`` serves a single connection and returns (testable with an
    ephemeral port).
    """
    while True:
        conn, _ = listener.accept()
        try:
            serve_socket(chip, conn)
        finally:
            with suppress(OSError):
                conn.close()
        if once:
            return


class ServerHandle:
    """Lifecycle handle for a spawned chip server (thread or process)."""

    def __init__(self, worker, chip: Optional[FlashChip] = None) -> None:
        self._worker = worker
        #: The served chip — only available on the thread backend, where
        #: it shares the caller's address space (used by bit-identity
        #: tests to inspect server-side state directly).
        self.chip = chip

    def close(self, timeout: float = 10.0) -> None:
        """Wait for the server to exit; force-stop a stuck process."""
        self._worker.join(timeout)
        if isinstance(self._worker, multiprocessing.process.BaseProcess):
            if self._worker.is_alive():
                self._worker.terminate()
                self._worker.join(timeout)
            self._worker.close()


def _serve_child(
    conn: socket.socket,
    geometry: ChipGeometry,
    params: Optional[ChipParams],
    seed: int,
    obs_enabled: bool,
    proc_label: str,
) -> None:
    """Process entry point: build the chip in the child and serve.

    The parent's observability state is applied explicitly: fork
    inherits the environment, but a parent that toggled recording
    programmatically (``obs.set_enabled``) after a spawn-incompatible
    env read would otherwise desynchronise.  Safe because this process
    exists only to serve this chip.
    """
    set_enabled(obs_enabled)
    chip = FlashChip(geometry, params, seed=seed)
    serve_socket(chip, conn, proc_label=proc_label)


def spawn_chip_server(
    geometry: ChipGeometry,
    params: Optional[ChipParams] = None,
    seed: int = 0,
    backend: str = "process",
    proc_label: Optional[str] = None,
) -> Tuple[socket.socket, ServerHandle]:
    """Start a chip server on one end of a socketpair.

    Returns the client end (hand it to
    :class:`~repro.onfi.client.RemoteChip`) and a :class:`ServerHandle`.
    ``backend="process"`` forks a dedicated server process — the route
    past the GIL for multi-shard fleets; ``backend="thread"`` serves
    from a daemon thread in-process (no extra core, but the handle
    exposes the chip for white-box tests).
    """
    if backend not in ("process", "thread"):
        raise ValueError(f"unknown server backend {backend!r}")
    if proc_label is None:
        proc_label = f"chip:{seed}"
    client_end, server_end = socket.socketpair()
    if backend == "thread":
        chip = FlashChip(geometry, params, seed=seed)
        worker = threading.Thread(
            target=serve_socket,
            args=(chip, server_end),
            kwargs={"proc_label": proc_label},
            daemon=True,
        )
        worker.start()
        return client_end, ServerHandle(worker, chip=chip)
    context = multiprocessing.get_context("fork")
    worker = context.Process(
        target=_serve_child,
        args=(server_end, geometry, params, seed, _obs_enabled(), proc_label),
        daemon=True,
    )
    worker.start()
    server_end.close()  # the child holds its own duplicate
    return client_end, ServerHandle(worker)
