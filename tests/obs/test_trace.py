"""Span tracer: nesting, self-time, exception safety, JSONL round-trip."""

from __future__ import annotations

import io
import time

import pytest

import repro.obs as obs
from repro.obs.trace import _NOOP, _stack


def _recorded(col):
    return {record.name: record for record in col.snapshot.spans}


class TestNesting:
    def test_parent_child_depth_and_parent_name(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        spans = _recorded(col)
        assert spans["inner"].depth == 1
        assert spans["inner"].parent == "outer"
        assert spans["outer"].depth == 0
        assert spans["outer"].parent is None

    def test_children_record_before_parents(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        assert [r.name for r in col.snapshot.spans] == ["inner", "outer"]

    def test_self_time_excludes_children(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.02)
        spans = _recorded(col)
        assert spans["inner"].self_s == pytest.approx(
            spans["inner"].duration_s
        )
        assert spans["outer"].self_s == pytest.approx(
            spans["outer"].duration_s - spans["inner"].duration_s
        )
        assert spans["outer"].self_s < spans["inner"].duration_s

    def test_attrs_are_stored(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("vthi.embed", pages=4, backend="serial"):
                pass
        assert _recorded(col)["vthi.embed"].attrs == {
            "pages": 4, "backend": "serial",
        }

    def test_siblings_accumulate_into_parent_child_time(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer"):
                with obs.span("a"):
                    pass
                with obs.span("b"):
                    pass
        spans = _recorded(col)
        assert spans["outer"].self_s == pytest.approx(
            spans["outer"].duration_s
            - spans["a"].duration_s
            - spans["b"].duration_s
        )


class TestExceptionSafety:
    def test_span_closes_and_flags_error_on_raise(self, enabled):
        with obs.collect(absorb=False) as col:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        record = _recorded(col)["doomed"]
        assert record.error == "ValueError"
        assert not _stack(), "span stack must unwind after a raise"

    def test_exception_does_not_corrupt_outer_span(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer"):
                with pytest.raises(ValueError):
                    with obs.span("inner"):
                        raise ValueError
        spans = _recorded(col)
        assert spans["inner"].error == "ValueError"
        assert spans["outer"].error is None
        assert spans["inner"].parent == "outer"

    def test_clean_span_has_no_error(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("fine"):
                pass
        assert _recorded(col)["fine"].error is None


class TestDecorator:
    def test_decorated_function_records_per_call(self, enabled):
        @obs.span("worker.step", kind="test")
        def step(x):
            return x + 1

        with obs.collect(absorb=False) as col:
            assert step(1) == 2
            assert step(2) == 3
        entry = col.snapshot.profile["worker.step"]
        assert entry.count == 2

    def test_decorated_function_noop_when_disabled(self, enabled):
        @obs.span("worker.step")
        def step(x):
            return x * 2

        obs.set_enabled(False)
        assert step(21) == 42  # still callable, records nothing


class TestDisabled:
    def test_span_returns_shared_noop(self, disabled):
        assert obs.span("anything", pages=9) is _NOOP
        assert obs.span("other") is _NOOP

    def test_noop_span_records_nothing(self, disabled):
        registry = obs.Registry()
        obs.push_registry(registry)
        try:
            with obs.span("ghost"):
                pass
        finally:
            obs.pop_registry()
        assert not registry.spans
        assert not registry.profile


class TestProfileAndRing:
    def test_profile_aggregates_by_name(self, enabled):
        with obs.collect(absorb=False) as col:
            for _ in range(5):
                with obs.span("repeated"):
                    pass
        entry = col.snapshot.profile["repeated"]
        assert entry.count == 5
        assert entry.total_s >= entry.self_s >= 0
        assert entry.min_s <= entry.max_s

    def test_ring_eviction_keeps_profile_complete(self, enabled):
        obs.set_enabled(True)
        registry = obs.Registry()
        recorded = obs.DEFAULT_SPAN_CAPACITY + 50
        obs.push_registry(registry)
        try:
            for _ in range(recorded):
                with obs.span("hot"):
                    pass
        finally:
            obs.pop_registry()
        snapshot = registry.snapshot()
        # ring bounded
        assert len(snapshot.spans) == obs.DEFAULT_SPAN_CAPACITY
        assert snapshot.profile["hot"].count == recorded  # profile complete


class TestJsonl:
    def test_round_trip_through_a_stream(self, enabled):
        with obs.collect(absorb=False) as col:
            with obs.span("outer", pages=3):
                with pytest.raises(RuntimeError):
                    with obs.span("inner", word="x"):
                        raise RuntimeError
        buffer = io.StringIO()
        count = obs.export_jsonl(col.snapshot.spans, buffer)
        assert count == len(col.snapshot.spans) == 2
        buffer.seek(0)
        loaded = obs.load_jsonl(buffer)
        assert loaded == col.snapshot.spans

    def test_round_trip_through_a_file(self, enabled, tmp_path):
        with obs.collect(absorb=False) as col:
            with obs.span("alpha", n=1):
                pass
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(col.snapshot.spans, str(path))
        assert obs.load_jsonl(str(path)) == col.snapshot.spans

    def test_empty_trace_exports_empty_file(self, enabled, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert obs.export_jsonl([], str(path)) == 0
        assert obs.load_jsonl(str(path)) == []
