"""Structured span tracing: nested timed spans with attributes.

``span("vthi.embed", pages=n)`` opens a timed span; spans nest on a
per-thread stack, record self-time (duration minus time spent in child
spans), and land in the current registry's ring buffer at exit.  The
registry folds every finished span into an aggregated per-name profile
(:class:`~repro.obs.metrics.ProfileEntry`), so ring eviction bounds
memory without losing the self-time report.

Span names are dotted ``layer.operation`` paths (``bch.decode_many``,
``ftl.gc.collect``, ``stego.mount``); attributes are small JSON-able
scalars (page counts, word counts, backend names).  A span is usable as
a context manager or as a decorator::

    with span("vthi.embed", pages=len(pages)):
        ...

    @span("ftl.gc.collect")
    def _collect_inner(...): ...

Exception safety: the span closes (and records, flagged with the
exception type) even when the body raises.  When observability is
disabled every ``span(...)`` call returns a shared no-op object.

Traces export as JSONL (one span per line) and round-trip losslessly
through :func:`export_jsonl` / :func:`load_jsonl`.  A line is the span's
JSON object from :func:`span_to_json`, the same object the OBS_COLLECT
snapshot document (:mod:`repro.obs.wirefmt`) carries per span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field, fields
from types import TracebackType
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Type, Union

from .metrics import get_registry, is_enabled

_TLS = threading.local()


def _stack() -> List["Span"]:
    stack: Optional[List["Span"]] = getattr(_TLS, "spans", None)
    if stack is None:
        stack = _TLS.spans = []
    return stack


@dataclass(slots=True)
class SpanRecord:
    """One finished span, as stored in the ring buffer and the JSONL."""

    name: str
    start_s: float  # perf_counter timestamp at entry (process-relative)
    duration_s: float
    self_s: float  # duration minus time spent inside child spans
    depth: int  # nesting depth at entry (0 = top level)
    parent: Optional[str] = None  # enclosing span's name, if any
    attrs: Dict[str, Union[int, float, str, bool, None]] = field(
        default_factory=dict
    )
    error: Optional[str] = None  # exception type name if the body raised
    proc: str = ""  # recording process/chip label ("" = the local process)


class _NoopSpan:
    """Shared do-nothing stand-in when observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False

    def __call__(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn


_NOOP = _NoopSpan()


class Span:
    """An open (or reusable-as-decorator) span."""

    __slots__ = ("name", "attrs", "_start", "_child_s")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "Span":
        self._child_s = 0.0
        _stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        duration = time.perf_counter() - self._start
        stack = _stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent._child_s += duration
        get_registry().record_span(
            SpanRecord(
                name=self.name,
                start_s=self._start,
                duration_s=duration,
                self_s=duration - self._child_s,
                depth=len(stack),
                parent=parent.name if parent is not None else None,
                attrs=self.attrs,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        )
        return False

    def __call__(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Decorator form: each call runs inside a fresh span."""
        name, attrs = self.name, self.attrs

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not is_enabled():
                return fn(*args, **kwargs)
            with Span(name, dict(attrs)):
                return fn(*args, **kwargs)

        return wrapper


def current_span_name() -> Optional[str]:
    """The innermost open span's name on this thread, if any.

    The ONFI client uses this to stamp a trace-parent prefix on request
    frames so server-side spans stitch under the caller's span.
    """
    stack = _stack()
    return stack[-1].name if stack else None


class _AdoptedParent:
    """A stack entry standing in for a span owned by another process.

    Pushing one makes subsequent spans on this thread report the remote
    span's name as their ``parent`` (and nest one level deeper) without
    recording any span itself — the real span already lives in the
    client's trace.
    """

    __slots__ = ("name", "attrs", "_start", "_child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = {}
        self._start = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "_AdoptedParent":
        _stack().append(self)  # type: ignore[arg-type]
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        _stack().pop()
        return False


def adopt_parent(name: str) -> Union[_AdoptedParent, _NoopSpan]:
    """Parent this thread's next spans under an external span ``name``.

    Context manager used by :class:`~repro.onfi.server.ChipServer` when a
    request frame carries a trace-parent prefix.  No-op when
    observability is disabled.
    """
    if not is_enabled():
        return _NOOP
    return _AdoptedParent(name)


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Open a named span (context manager) or build a decorator.

    Attributes become the span record's ``attrs`` — keep them small,
    JSON-serialisable scalars.  Returns a shared no-op when
    observability is disabled, so hot call sites pay one flag check.
    """
    if not is_enabled():
        return _NOOP
    return Span(name, attrs)


# ----------------------------------------------------------------------
# JSON mapping, JSONL export / import


def json_value(
    value: Any, kind: type, what: str, nullable: bool = False
) -> Any:
    """`value`, taken from a decoded JSON document, checked to be `kind`.

    A float field also takes a JSON integer (as ``float(value)``); a
    bool is never a number.  ``None`` passes only when `nullable`.
    Anything else raises :class:`ValueError` naming `what`.
    """
    if type(value) is kind or (nullable and value is None):
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise ValueError(
        f"{what} must be {'null or ' if nullable else ''}{kind.__name__}, "
        f"got {type(value).__name__}"
    )


_SPAN_KEYS = frozenset(spec.name for spec in fields(SpanRecord))


def span_to_json(record: SpanRecord) -> Dict[str, Any]:
    """One span as a JSON object (a JSONL line, a snapshot-document row)."""
    return {
        "name": record.name,
        "start_s": record.start_s,
        "duration_s": record.duration_s,
        "self_s": record.self_s,
        "depth": record.depth,
        "parent": record.parent,
        "attrs": record.attrs,
        "error": record.error,
        "proc": record.proc,
    }


def span_from_json(obj: Any) -> SpanRecord:
    """The span a :func:`span_to_json` object describes.

    Raises :class:`ValueError` unless `obj` has exactly the record's
    keys, each holding a value of the field's type.
    """
    if type(obj) is not dict or obj.keys() != _SPAN_KEYS:
        raise ValueError(
            f"a span must be an object with keys {sorted(_SPAN_KEYS)}"
        )
    return SpanRecord(
        name=json_value(obj["name"], str, "span name"),
        start_s=json_value(obj["start_s"], float, "span start_s"),
        duration_s=json_value(obj["duration_s"], float, "span duration_s"),
        self_s=json_value(obj["self_s"], float, "span self_s"),
        depth=json_value(obj["depth"], int, "span depth"),
        parent=json_value(obj["parent"], str, "span parent", nullable=True),
        attrs=json_value(obj["attrs"], dict, "span attrs"),
        error=json_value(obj["error"], str, "span error", nullable=True),
        proc=json_value(obj["proc"], str, "span proc"),
    )


def export_jsonl(
    spans: Iterable[SpanRecord], destination: Union[str, IO[str]]
) -> int:
    """Write spans as JSONL (one object per line); returns the count."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return _write_jsonl(spans, handle)
    return _write_jsonl(spans, destination)


def _write_jsonl(spans: Iterable[SpanRecord], handle: IO[str]) -> int:
    count = 0
    for record in spans:
        handle.write(json.dumps(span_to_json(record), sort_keys=True))
        handle.write("\n")
        count += 1
    return count


def load_jsonl(source: Union[str, IO[str]]) -> List[SpanRecord]:
    """Read a JSONL trace back into :class:`SpanRecord` objects.

    A line that is not a span object raises :class:`ValueError`.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_jsonl(handle)
    return _read_jsonl(source)


def _read_jsonl(handle: IO[str]) -> List[SpanRecord]:
    records: List[SpanRecord] = []
    for line in handle:
        line = line.strip()
        if line:
            records.append(span_from_json(json.loads(line)))
    return records
