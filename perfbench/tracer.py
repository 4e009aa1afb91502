"""Per-layer self-time tracing, done from outside the program.

A traced run patches the public entry points of each ``repro.*`` layer
with timing wrappers (:data:`LAYER_TARGETS`), runs the workload, then
puts the original functions back.  Each wrapper counts its calls and
its *self* time: the call's duration minus the time spent in wrapped
calls it made.  Layers nest (``embed_prepared`` calls the chip,
``select_cells`` draws from the keystream, ``decode_pages_keyed`` calls
``decode_many``), so self time is what keeps one second from being
counted in two layers.  On one thread the self times of every wrapper
plus the unattributed remainder add up to the traced wall time.

Functions that a caller imported by name (``select_cells``,
``pack_slot``, ``unpack_slot``) are patched in the caller's module,
where the call looks them up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Extra per-call quantities: ``count(args, result) -> {label: amount}``.
CountFn = Callable[[tuple, Any], Dict[str, float]]

_MISSING = object()


def _keystream_bytes(args: tuple, result: Any) -> Dict[str, float]:
    return {"bytes": len(result)}


def _round_size(args: tuple, result: Any) -> Dict[str, float]:
    return {"requests": len(args[2])}


def _pp_steps(args: tuple, result: Any) -> Dict[str, float]:
    return {"pp_steps": sum(steps for steps, _ in result)}


def _decode_outcomes(args: tuple, result: Any) -> Dict[str, float]:
    return {"pages": len(result), "failed": sum(blob is None for blob in result)}


def _words(args: tuple, result: Any) -> Dict[str, float]:
    return {"words": len(args[1])}


#: Chip operations traced on :class:`~repro.nand.chip.FlashChip`.
NAND_OPS = (
    "partial_program",
    "probe_voltages_locations",
    "read_locations",
    "program_locations",
    "erase_block",
    "program_pages",
    "probe_voltages_batch",
    "read_pages",
)

#: Client-side wire operations traced on :class:`~repro.onfi.RemoteChip`;
#: each one's time is the wire round trip plus the server's work.
ONFI_OPS = (
    "partial_program",
    "probe_voltages_locations",
    "read_locations",
    "program_locations",
    "erase_block",
    "is_page_programmed",
    "obs_collect",
)

#: ``(module, class or None, attribute, metric prefix, extra counts)``.
LAYER_TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[CountFn]], ...] = (
    ("repro.fleet.service", "FleetService", "execute_round",
     "fleet.execute_round", _round_size),
    ("repro.fleet.service", None, "select_cells", "hiding.select_cells", None),
    ("repro.experiments.fig6", None, "select_cells", "hiding.select_cells", None),
    ("repro.crypto.prng", "KeyedPrng", "bytes", "crypto.keystream",
     _keystream_bytes),
    ("repro.hiding.vthi", "VtHi", "embed_prepared", "hiding.embed_prepared",
     _pp_steps),
    ("repro.hiding.payload", "PayloadCodec", "decode_pages_keyed",
     "ecc.decode_pages", _decode_outcomes),
    ("repro.hiding.payload", "PayloadCodec", "encode_pages_keyed",
     "ecc.encode_pages", None),
    ("repro.ecc.bch", "BchCode", "decode_many", "ecc.bch.decode_many", _words),
    ("repro.ecc.bch", "BchCode", "encode_many", "ecc.bch.encode_many", _words),
    ("repro.fleet.service", None, "pack_slot", "stego.pack_slot", None),
    ("repro.fleet.service", None, "unpack_slot", "stego.unpack_slot", None),
    ("repro.experiments.fig6", None, "_config_unit",
     "experiments.config_unit", None),
    ("repro.experiments.fig6", None, "measure_ber_curves",
     "experiments.measure_ber_curves", None),
    ("repro.parallel", "ParallelRunner", "map", "parallel.map", None),
    *(("repro.nand.chip", "FlashChip", op, f"nand.{op}", None)
      for op in NAND_OPS),
    *(("repro.onfi.client", "RemoteChip", op, f"onfi.{op}", None)
      for op in ONFI_OPS),
    # Waiting for the acks of pipelined (posted) operations.
    ("repro.onfi.client", "RemoteChip", "_drain_acks", "onfi.drain", None),
)


class Tracer:
    """Accumulates call counts and self times of wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``"<name>.<label>"`` -> summed extra per-call quantities.
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, fn: Callable[..., Any], name: str, count: Optional[CountFn] = None
    ) -> Callable[..., Any]:
        """`fn`, recording its calls and self time under `name`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            stack.append(0.0)  # time spent in wrapped children
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[name] += elapsed - children
                    tracer.calls[name] += 1
            if count is not None:
                extra = count(args, result)
                with tracer._lock:
                    for label, amount in extra.items():
                        tracer.counts[f"{name}.{label}"] += amount
            return result

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, count: Optional[CountFn] = None
    ) -> None:
        """Replace ``owner.attr`` (a module or class) with a wrapper."""
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attr!r}: not a plain function")
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextlib.contextmanager
    def installed(
        self,
        targets: Sequence[
            Tuple[str, Optional[str], str, str, Optional[CountFn]]
        ] = LAYER_TARGETS,
    ) -> Iterator["Tracer"]:
        """Patch `targets` for the duration of the block."""
        try:
            for module_name, class_name, attr, name, count in targets:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                self.patch(owner, attr, name, count)
            yield self
        finally:
            self.restore()

    def attributed_s(self) -> float:
        """Total self time over every wrapped name."""
        return sum(self.self_s.values())
