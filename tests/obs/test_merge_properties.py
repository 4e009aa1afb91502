"""``merge_snapshots`` algebra, property-tested.

The fleet's exactness story leans on specific algebraic facts:

* integer-valued counters merge associatively (the remote path folds
  per-round deltas; the in-process path interleaves increments — both
  must reach the same totals);
* float counters are order-sensitive *only* up to float addition —
  merging in one fixed order is what the fleet's fold guarantees, and
  permuting snapshots may legitimately change low bits (documented);
* histogram merge equals recomputing the stats over the pooled samples;
* gauges are last-writer-wins, so order matters by design;
* a merge keeps the newest ``DEFAULT_SPAN_CAPACITY`` spans, exactly as
  a registry's ring does on absorb.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_SPAN_CAPACITY,
    HistStats,
    ObsSnapshot,
    ProfileEntry,
    Registry,
    merge_snapshots,
)
from repro.obs.trace import SpanRecord

SETTINGS = dict(max_examples=40, deadline=None)

names = st.sampled_from(["a", "b", "c.d"])

int_valued = st.dictionaries(
    names, st.integers(-(2**50), 2**50).map(float), max_size=3
)


def int_snapshots(max_size: int = 4):
    return st.lists(
        st.builds(ObsSnapshot, counters=int_valued, gauges=int_valued),
        max_size=max_size,
    )


# Integer-valued samples: float addition over them is exact (well below
# 2**53), so pooling and sub-sum merging agree bit-for-bit.  With
# general floats the *totals* legitimately differ in low bits — merge
# sums sub-sums, pooling adds sequentially — which is exactly why the
# fleet pins one fold order instead of claiming permutability.
samples_strategy = st.dictionaries(
    names,
    st.lists(
        st.integers(-(2**30), 2**30).map(float),
        max_size=6,
    ),
    max_size=3,
)


def hist_snapshot(samples_by_name) -> ObsSnapshot:
    snapshot = ObsSnapshot()
    for name, samples in samples_by_name.items():
        hist = HistStats()
        for value in samples:
            hist.observe(value)
        snapshot.histograms[name] = hist
    return snapshot


class TestCounterAlgebra:
    @settings(**SETTINGS)
    @given(snaps=int_snapshots(), split=st.integers(0, 4))
    def test_integer_counters_merge_associatively(self, snaps, split):
        split = min(split, len(snaps))
        flat = merge_snapshots(snaps)
        grouped = merge_snapshots(
            [
                merge_snapshots(snaps[:split]),
                merge_snapshots(snaps[split:]),
            ]
        )
        assert flat.counters == grouped.counters

    @settings(**SETTINGS)
    @given(snaps=int_snapshots())
    def test_integer_counters_are_order_insensitive(self, snaps):
        forward = merge_snapshots(snaps).counters
        backward = merge_snapshots(list(reversed(snaps))).counters
        assert forward == backward

    def test_empty_merge_is_identity(self):
        empty = merge_snapshots([])
        assert (empty.counters, empty.gauges, empty.histograms) == (
            {}, {}, {}
        )
        one = ObsSnapshot(counters={"a": 2.0})
        assert merge_snapshots([empty, one]).counters == {"a": 2.0}
        assert merge_snapshots([one, empty]).counters == {"a": 2.0}


class TestGaugeOrder:
    @settings(**SETTINGS)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=1,
                           max_size=5))
    def test_gauges_are_last_writer_wins(self, values):
        snaps = [ObsSnapshot(gauges={"g": v}) for v in values]
        assert merge_snapshots(snaps).gauges["g"] == values[-1]

    def test_gauge_order_sensitivity_is_real(self):
        # The documented asymmetry: reversing the fold changes gauges.
        first = ObsSnapshot(gauges={"g": 1.0})
        second = ObsSnapshot(gauges={"g": 2.0})
        assert merge_snapshots([first, second]).gauges["g"] == 2.0
        assert merge_snapshots([second, first]).gauges["g"] == 1.0


class TestHistogramPooling:
    @settings(**SETTINGS)
    @given(groups=st.lists(samples_strategy, max_size=4))
    def test_merge_equals_pooled_recomputation(self, groups):
        merged = merge_snapshots(
            [hist_snapshot(group) for group in groups]
        )
        pooled_samples: dict = {}
        for group in groups:
            for name, samples in group.items():
                pooled_samples.setdefault(name, []).extend(samples)
        pooled = hist_snapshot(pooled_samples)
        assert set(merged.histograms) == set(pooled.histograms)
        for name, hist in merged.histograms.items():
            expected = pooled.histograms[name]
            assert hist.count == expected.count
            assert hist.min == expected.min
            assert hist.max == expected.max
            # exact because the samples are integer-valued (see above)
            assert hist.total == expected.total

    def test_float_totals_depend_on_fold_shape(self):
        # The documented limit of the pooling property: with general
        # floats, merging sub-sums need not equal sequential addition.
        big, tiny = 2.0**53, 1.0
        merged = merge_snapshots(
            [hist_snapshot({"h": [big]}), hist_snapshot({"h": [tiny, tiny]})]
        )
        pooled = hist_snapshot({"h": [big, tiny, tiny]})
        assert merged.histograms["h"].total == big + 2.0
        assert pooled.histograms["h"].total == big  # absorbed one by one
        assert merged.histograms["h"].count == pooled.histograms["h"].count

    def test_merge_does_not_alias_inputs(self):
        source = hist_snapshot({"h": [1.0, 2.0]})
        merged = merge_snapshots([source])
        merged.histograms["h"].observe(99.0)
        assert source.histograms["h"].count == 2
        assert source.histograms["h"].max == 2.0


class TestSpanRing:
    @staticmethod
    def spanned(tag: str, n_spans: int) -> ObsSnapshot:
        return ObsSnapshot(
            counters={"n": 1.0},
            histograms={"h": HistStats(1, 2.0, 2.0, 2.0)},
            profile={"s": ProfileEntry(n_spans, 1.0, 1.0, 0.0, 1.0)},
            spans=[
                SpanRecord(f"{tag}{i}", float(i), 0.0, 0.0, 0)
                for i in range(n_spans)
            ],
        )

    def test_merge_and_absorb_keep_the_newest_spans(self):
        cap = DEFAULT_SPAN_CAPACITY
        for second_size in (cap, cap // 2):
            first = self.spanned("a", cap)
            second = self.spanned("b", second_size)
            newest = (first.spans + second.spans)[-cap:]
            merged = merge_snapshots([first, second])
            assert merged.spans == newest
            registry = Registry()
            registry.absorb(first)
            registry.absorb(second)
            absorbed = registry.snapshot()
            assert absorbed.spans == newest
            # Only the raw span rows are bounded.
            for snapshot in (merged, absorbed):
                assert snapshot.counters == {"n": 2.0}
                assert snapshot.histograms == {
                    "h": HistStats(2, 4.0, 2.0, 2.0)
                }
                assert snapshot.profile["s"].count == cap + second_size
        # The inputs are left alone.
        assert len(first.spans) == cap and len(second.spans) == second_size
