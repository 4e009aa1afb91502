"""The OBS_COLLECT snapshot document: an :class:`ObsSnapshot` as JSON.

The ONFI transport moved chips out of process; this codec is how
their telemetry comes back.  A server-side registry snapshot — counters,
gauges, histograms, the chip's ``OpCounters``, the span self-time
profile and the raw span ring — is written as one compact stdlib
:mod:`json` document, shipped in an ``OBS_COLLECT`` response frame, and
decoded into an equal snapshot on the client::

    {"version": 2, "counters": {name: x}, "gauges": {name: x},
     "histograms": [[name, count, total, min, max], ...],
     "op_counters": {field: value} | null,
     "profile": [[name, count, total_s, self_s, min_s, max_s], ...],
     "spans": [span object, ...], "wall_s": x}

Exactness is the contract.  :mod:`json` writes every float as its
shortest round-tripping ``repr`` (``Infinity``/``-Infinity`` for the
histogram sentinels) and reads it back with ``float()``, so every
non-NaN double — ``-0.0`` and subnormals included — decodes bit for bit.
That is what lets ``repro.fleet`` fold remote snapshots and land on
exactly the same fleet totals as in-process mode.  Counters, gauges and
histogram/profile statistics travel as floats, as they always have on
this wire; ``OpCounters`` travel by field name with their own int or
float values, so new counter fields transport without touching this
module.  A span is the object :func:`~repro.obs.trace.span_to_json`
maps, the same one a JSONL trace line holds.

Malformed input — a wrong version, bad JSON, the wrong shape or type
anywhere, an op-counter field set other than ``OpCounters``' — raises
:class:`ValueError` (the ONFI layer maps that to a wire error frame), as
does encoding a span whose attrs are not JSON-able.  The frame cap
(:data:`repro.onfi.wire.MAX_PAYLOAD`) bounds the document's size.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple

from .metrics import HistStats, ObsSnapshot, ProfileEntry
from .trace import json_value, span_from_json, span_to_json

#: Format version; bump on any layout change.
OBS_WIRE_VERSION = 2

_KEYS = frozenset((
    "version", "counters", "gauges", "histograms", "op_counters",
    "profile", "spans", "wall_s",
))

#: Row types after the name: HistStats' and ProfileEntry's fields.
_HIST_ROW = (str, int, float, float, float)
_PROFILE_ROW = (str, int, float, float, float, float)


def encode_snapshot(snapshot: ObsSnapshot) -> bytes:
    """Serialise a snapshot to the versioned JSON document."""
    ops = snapshot.op_counters
    document = {
        "version": OBS_WIRE_VERSION,
        "counters": {k: float(v) for k, v in snapshot.counters.items()},
        "gauges": {k: float(v) for k, v in snapshot.gauges.items()},
        "histograms": [
            [name, h.count, float(h.total), float(h.min), float(h.max)]
            for name, h in snapshot.histograms.items()
        ],
        "op_counters": None if ops is None else {
            spec.name: getattr(ops, spec.name)
            for spec in dataclasses.fields(ops)
        },
        "profile": [
            [name, e.count, float(e.total_s), float(e.self_s),
             float(e.min_s), float(e.max_s)]
            for name, e in snapshot.profile.items()
        ],
        "spans": [span_to_json(record) for record in snapshot.spans],
        "wall_s": float(snapshot.wall_s),
    }
    try:
        text = json.dumps(document, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"obs snapshot not JSON-able: {exc}") from exc
    return text.encode("ascii")


def decode_snapshot(payload: bytes) -> ObsSnapshot:
    """Decode :func:`encode_snapshot` output; :class:`ValueError` on junk."""
    try:
        return _snapshot(json.loads(payload))
    except (OverflowError, RecursionError) as exc:
        # A float field holding a huge JSON integer; absurd nesting.
        raise ValueError(f"obs wire document undecodable: {exc!r}") from exc


def _snapshot(document: Any) -> ObsSnapshot:
    if type(document) is not dict:
        raise ValueError("obs wire document must be a JSON object")
    version = document.get("version")
    if type(version) is not int or version != OBS_WIRE_VERSION:
        raise ValueError(
            f"obs wire version {version!r} unsupported "
            f"(expected {OBS_WIRE_VERSION})"
        )
    if document.keys() != _KEYS:
        raise ValueError(
            f"obs wire document keys {sorted(document)} != {sorted(_KEYS)}"
        )
    histograms: Dict[str, HistStats] = {}
    for row in _rows(document["histograms"], _HIST_ROW, "histogram row"):
        histograms[row[0]] = HistStats(*row[1:])
    profile: Dict[str, ProfileEntry] = {}
    for row in _rows(document["profile"], _PROFILE_ROW, "profile row"):
        profile[row[0]] = ProfileEntry(*row[1:])
    spans = json_value(document["spans"], list, "spans")
    return ObsSnapshot(
        counters=_floats(document["counters"], "counters"),
        gauges=_floats(document["gauges"], "gauges"),
        histograms=histograms,
        op_counters=_op_counters(document["op_counters"]),
        profile=profile,
        spans=[span_from_json(obj) for obj in spans],
        wall_s=json_value(document["wall_s"], float, "wall_s"),
    )


def _floats(value: Any, what: str) -> Dict[str, float]:
    values = json_value(value, dict, what)
    return {name: json_value(x, float, what) for name, x in values.items()}


def _rows(
    value: Any, kinds: Tuple[type, ...], what: str
) -> List[List[Any]]:
    rows: List[List[Any]] = []
    for row in json_value(value, list, what + "s"):
        if type(row) is not list or len(row) != len(kinds):
            raise ValueError(f"a {what} must be a list of {len(kinds)} items")
        rows.append([json_value(x, k, what) for x, k in zip(row, kinds)])
    return rows


def _op_counters(value: Any) -> Any:
    values = json_value(value, dict, "op_counters", nullable=True)
    if values is None:
        return None
    # Imported lazily: repro.nand imports repro.obs for its handles, so a
    # module-level import here would be circular.
    from ..nand.chip import OpCounters

    expected = {spec.name for spec in dataclasses.fields(OpCounters)}
    if values.keys() != expected:
        raise ValueError(
            "op counter fields mismatch: "
            f"got {sorted(values)}, expected {sorted(expected)}"
        )
    for name, x in values.items():
        if type(x) not in (int, float):
            raise ValueError(f"op counter field {name!r} is not a number")
    return OpCounters(**values)
