"""The JSON ObsSnapshot document: exact round-trips, hostile inputs.

``encode_snapshot``/``decode_snapshot`` carry telemetry over the ONFI
wire (OBS_COLLECT), so the bar is the transport's own: every float is
IEEE-754 bit-exact after a round trip, every field survives, and
malformed bytes — or a well-formed document of the wrong shape — raise
``ValueError`` instead of corrupting state.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.chip import OpCounters
from repro.obs import OBS_WIRE_VERSION, decode_snapshot, encode_snapshot
from repro.obs.metrics import HistStats, ObsSnapshot, ProfileEntry
from repro.obs.trace import SpanRecord

SETTINGS = dict(max_examples=25, deadline=None)

#: Floats that stress the codec: subnormals, huge, tiny, negative zero.
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0,
    max_size=24,
)


def snapshot_strategy() -> st.SearchStrategy[ObsSnapshot]:
    scalar_maps = st.dictionaries(names, finite_floats, max_size=4)
    hists = st.dictionaries(
        names,
        st.builds(
            HistStats,
            count=st.integers(0, 2**40),
            total=finite_floats,
            min=finite_floats,
            max=finite_floats,
        ),
        max_size=3,
    )
    profiles = st.dictionaries(
        names,
        st.builds(
            ProfileEntry,
            count=st.integers(0, 2**40),
            total_s=finite_floats,
            self_s=finite_floats,
            min_s=finite_floats,
            max_s=finite_floats,
        ),
        max_size=3,
    )
    attrs = st.dictionaries(
        names,
        st.one_of(
            st.integers(-(2**31), 2**31),
            finite_floats,
            names,
            st.booleans(),
            st.none(),
        ),
        max_size=3,
    )
    spans = st.lists(
        st.builds(
            SpanRecord,
            name=names,
            start_s=finite_floats,
            duration_s=finite_floats,
            self_s=finite_floats,
            depth=st.integers(0, 63),
            parent=st.one_of(st.none(), names),
            attrs=attrs,
            error=st.one_of(st.none(), names),
            proc=names,
        ),
        max_size=3,
    )
    op_counters = st.one_of(
        st.none(),
        st.builds(
            OpCounters,
            reads=st.integers(0, 2**40),
            programs=st.integers(0, 2**40),
            erases=st.integers(0, 2**40),
            partial_programs=st.integers(0, 2**40),
            busy_time_s=finite_floats,
            energy_j=finite_floats,
        ),
    )
    return st.builds(
        ObsSnapshot,
        counters=scalar_maps,
        gauges=scalar_maps,
        histograms=hists,
        op_counters=op_counters,
        profile=profiles,
        spans=spans,
        wall_s=finite_floats,
    )


def assert_bit_identical(a: ObsSnapshot, b: ObsSnapshot) -> None:
    """Field-by-field equality with -0.0/0.0 and float identity exact."""

    def key(x: float) -> bytes:
        import struct

        return struct.pack("<d", x)

    assert {n: key(v) for n, v in a.counters.items()} == {
        n: key(v) for n, v in b.counters.items()
    }
    assert {n: key(v) for n, v in a.gauges.items()} == {
        n: key(v) for n, v in b.gauges.items()
    }
    assert set(a.histograms) == set(b.histograms)
    for name, hist in a.histograms.items():
        other = b.histograms[name]
        assert hist.count == other.count
        assert key(hist.total) == key(other.total)
        assert key(hist.min) == key(other.min)
        assert key(hist.max) == key(other.max)
    assert (a.op_counters is None) == (b.op_counters is None)
    if a.op_counters is not None:
        assert a.op_counters == b.op_counters
        assert key(a.op_counters.busy_time_s) == key(
            b.op_counters.busy_time_s
        )
    assert set(a.profile) == set(b.profile)
    for name, entry in a.profile.items():
        other = b.profile[name]
        assert entry.count == other.count
        assert key(entry.total_s) == key(other.total_s)
        assert key(entry.self_s) == key(other.self_s)
    assert len(a.spans) == len(b.spans)
    for left, right in zip(a.spans, b.spans):
        assert left.name == right.name
        assert left.parent == right.parent
        assert left.proc == right.proc
        assert left.depth == right.depth
        assert left.error == right.error
        assert key(left.duration_s) == key(right.duration_s)
    assert key(a.wall_s) == key(b.wall_s)


class TestRoundTrip:
    def test_empty_snapshot(self):
        out = decode_snapshot(encode_snapshot(ObsSnapshot()))
        assert out.counters == {}
        assert out.op_counters is None
        assert out.spans == []

    def test_known_values_survive_exactly(self):
        snapshot = ObsSnapshot(
            counters={
                "chip.reads": 3.0, "x": 0.1 + 0.2,
                "up": math.inf, "down": -math.inf,
            },
            gauges={"depth": -0.0},
            histograms={"lat": HistStats(2, 1e-9, 1e-9, 1.0)},
            op_counters=OpCounters(1, 2, 3, 4, 0.125, 5e-324),
            profile={"p": ProfileEntry(1, -0.0, -0.0, -0.0, -0.0)},
            spans=[SpanRecord("s", 1.5, 5e-324, 5e-324, 0)],
            wall_s=math.pi,
        )
        out = decode_snapshot(encode_snapshot(snapshot))
        assert_bit_identical(snapshot, out)

    @settings(**SETTINGS)
    @given(snapshot=snapshot_strategy())
    def test_arbitrary_snapshots_round_trip(self, snapshot):
        assert_bit_identical(
            snapshot, decode_snapshot(encode_snapshot(snapshot))
        )

    def test_counters_and_gauges_decode_as_floats(self):
        snapshot = ObsSnapshot(counters={"n": 3}, gauges={"g": 7})
        out = decode_snapshot(encode_snapshot(snapshot))
        assert type(out.counters["n"]) is float and out.counters["n"] == 3
        assert type(out.gauges["g"]) is float and out.gauges["g"] == 7

    def test_infinite_histogram_sentinels_survive(self):
        # A never-observed histogram carries +inf/-inf min/max.
        snapshot = ObsSnapshot(histograms={"empty": HistStats()})
        out = decode_snapshot(encode_snapshot(snapshot))
        assert out.histograms["empty"].min == float("inf")
        assert out.histograms["empty"].max == float("-inf")


def reencoded(snapshot: ObsSnapshot, edit) -> bytes:
    """`snapshot`'s document after `edit` mutates it in place."""
    document = json.loads(encode_snapshot(snapshot))
    edit(document)
    return json.dumps(document).encode()


OPS_SNAPSHOT = ObsSnapshot(
    counters={"a": 1.0},
    histograms={"h": HistStats(1, 2.0, 2.0, 2.0)},
    op_counters=OpCounters(1, 1, 1, 1, 0.5, 0.25),
    profile={"p": ProfileEntry(1, 1.0, 1.0, 1.0, 1.0)},
    spans=[SpanRecord("s", 0.0, 1.0, 1.0, 0)],
)


class TestHostileBytes:
    def test_wrong_version_rejected(self):
        blob = reencoded(
            ObsSnapshot(),
            lambda doc: doc.update(version=OBS_WIRE_VERSION + 1),
        )
        with pytest.raises(ValueError, match="version"):
            decode_snapshot(blob)

    def test_truncation_rejected_everywhere(self):
        blob = encode_snapshot(OPS_SNAPSHOT)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_snapshot(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = encode_snapshot(ObsSnapshot())
        with pytest.raises(ValueError):
            decode_snapshot(blob + b"\x00")

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(max_size=64))
    def test_random_bytes_never_crash_differently(self, junk):
        try:
            decode_snapshot(junk)
        except ValueError:
            pass  # the only acceptable failure mode


#: Edits that leave valid JSON of the wrong shape.
WRONG_SHAPES = {
    "missing-key": lambda doc: doc.pop("spans"),
    "extra-key": lambda doc: doc.update(extra=1),
    "counters-as-list": lambda doc: doc.update(counters=[]),
    "string-counter": lambda doc: doc["counters"].update(a="1.0"),
    "bool-counter": lambda doc: doc["counters"].update(a=True),
    "short-histogram-row": lambda doc: doc["histograms"][0].pop(),
    "profile-as-object": lambda doc: doc.update(profile={"p": [1, 1.0]}),
    "float-span-depth": lambda doc: doc["spans"][0].update(depth=0.5),
    "span-missing-proc": lambda doc: doc["spans"][0].pop("proc"),
    "null-wall": lambda doc: doc.update(wall_s=None),
    "bool-op-counter": lambda doc: doc["op_counters"].update(reads=True),
    "string-op-counter": lambda doc: doc["op_counters"].update(reads="1"),
    "unknown-op-counter": lambda doc: doc["op_counters"].update(frobs=1),
    "missing-op-counter": lambda doc: doc["op_counters"].pop("reads"),
}


class TestWrongShape:
    """Valid JSON that is not a snapshot document raises ValueError."""

    @pytest.mark.parametrize(
        "edit", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES)
    )
    def test_wrong_shape_rejected(self, edit):
        blob = reencoded(OPS_SNAPSHOT, edit)
        with pytest.raises(ValueError):
            decode_snapshot(blob)

    @pytest.mark.parametrize("document", [[], "snapshot", 2, None])
    def test_non_object_document_rejected(self, document):
        with pytest.raises(ValueError, match="object"):
            decode_snapshot(json.dumps(document).encode())

    def test_huge_integer_in_a_float_field_rejected(self):
        blob = reencoded(
            OPS_SNAPSHOT, lambda doc: doc.update(wall_s=10**400)
        )
        with pytest.raises(ValueError):
            decode_snapshot(blob)

    def test_deep_nesting_rejected(self):
        depth = 100_000
        with pytest.raises(ValueError):
            decode_snapshot(b"[" * depth + b"]" * depth)

    def test_attrs_that_are_not_json_able_fail_to_encode(self):
        snapshot = ObsSnapshot(
            spans=[SpanRecord("s", 0.0, 1.0, 1.0, 0, attrs={"x": object()})]
        )
        with pytest.raises(ValueError, match="JSON"):
            encode_snapshot(snapshot)
