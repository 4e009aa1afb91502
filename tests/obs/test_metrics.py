"""Metrics registry: handles, scoping, op-counter capture."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.nand import TEST_MODEL, FlashChip
from repro.nand.chip import OpCounters
from repro.perf.energy import (
    snapshot_energy_difference,
    snapshot_time_difference,
)


class TestHandles:
    def test_handles_are_cached_by_name(self):
        assert obs.counter("x.y") is obs.counter("x.y")
        assert obs.gauge("x.y") is obs.gauge("x.y")
        assert obs.histogram("x.y") is obs.histogram("x.y")
        assert obs.counter("x.y") is not obs.counter("x.z")

    def test_counter_accumulates(self, enabled):
        with obs.collect(absorb=False) as col:
            obs.counter("t.count").inc()
            obs.counter("t.count").inc(4)
        assert col.snapshot.counters["t.count"] == 5

    def test_gauge_is_last_writer_wins(self, enabled):
        with obs.collect(absorb=False) as col:
            obs.gauge("t.gauge").set(3)
            obs.gauge("t.gauge").set(7)
        assert col.snapshot.gauges["t.gauge"] == 7

    def test_histogram_summarises(self, enabled):
        with obs.collect(absorb=False) as col:
            for value in (1, 2, 9):
                obs.histogram("t.hist").observe(value)
        hist = col.snapshot.histograms["t.hist"]
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 12, 1, 9)
        assert hist.mean == 4

    def test_disabled_updates_are_noops(self, disabled):
        registry = obs.Registry()
        obs.push_registry(registry)
        try:
            obs.counter("t.off").inc(100)
            obs.gauge("t.off").set(1)
            obs.histogram("t.off").observe(1)
        finally:
            obs.pop_registry()
        assert not registry.counters
        assert not registry.gauges
        assert not registry.histograms


class TestScoping:
    def test_inner_scope_captures_in_isolation(self, enabled):
        with obs.collect(absorb=False) as outer:
            obs.counter("t.scoped").inc(1)
            with obs.collect(absorb=False) as inner:
                obs.counter("t.scoped").inc(10)
        assert inner.snapshot.counters["t.scoped"] == 10
        assert outer.snapshot.counters["t.scoped"] == 1

    def test_absorbing_scope_rolls_up(self, enabled):
        with obs.collect(absorb=False) as outer:
            obs.counter("t.rollup").inc(1)
            with obs.collect() as inner:  # absorb=True default
                obs.counter("t.rollup").inc(10)
        assert inner.snapshot.counters["t.rollup"] == 10
        assert outer.snapshot.counters["t.rollup"] == 11

    def test_wall_time_is_measured_even_disabled(self, disabled):
        with obs.collect(absorb=False) as col:
            pass
        assert col.snapshot.wall_s >= 0
        assert col.snapshot.counters == {}


class TestOpCounterCapture:
    def test_chip_created_in_scope_reaches_snapshot(self, enabled):
        with obs.collect(absorb=False) as col:
            chip = FlashChip(
                TEST_MODEL.geometry, TEST_MODEL.params, seed=7
            )
            chip.read_page(0, 0)
            chip.read_page(0, 1)
        ops = col.snapshot.op_counters
        assert ops is not None
        assert ops.reads == 2
        assert col.snapshot.counters["chip.reads"] == 2

    def test_two_chips_sum(self, enabled):
        with obs.collect(absorb=False) as col:
            for seed in (1, 2):
                chip = FlashChip(
                    TEST_MODEL.geometry, TEST_MODEL.params, seed=seed
                )
                chip.read_page(0, 0)
        assert col.snapshot.op_counters.reads == 2

    def test_snapshot_reads_live_values(self, enabled):
        with obs.collect(absorb=False):
            chip = FlashChip(
                TEST_MODEL.geometry, TEST_MODEL.params, seed=3
            )
            registry = obs.get_registry()
            before = registry.snapshot().op_counters.reads
            chip.read_page(0, 0)
            after = registry.snapshot().op_counters.reads
        assert (before, after) == (0, 1)


class TestOpCountersAlgebra:
    """Satellite: ``OpCounters`` addition/diff/copy helpers."""

    def _ops(self, **kwargs):
        ops = OpCounters()
        for name, value in kwargs.items():
            setattr(ops, name, value)
        return ops

    def test_add_is_field_wise(self):
        a = self._ops(reads=2, programs=1, busy_time_s=0.5, energy_j=1.25)
        b = self._ops(reads=3, erases=4, busy_time_s=0.25)
        total = a + b
        assert total.reads == 5
        assert total.programs == 1
        assert total.erases == 4
        assert total.busy_time_s == 0.75
        assert total.energy_j == 1.25

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            OpCounters() + 3

    def test_copy_is_independent(self):
        a = self._ops(reads=2)
        b = a.copy()
        b.reads += 10
        assert a.reads == 2

    def test_total_ops(self):
        ops = self._ops(reads=1, programs=2, erases=3, partial_programs=4)
        assert ops.total_ops == 10

    def test_diff_inverts_add(self):
        before = self._ops(reads=2, busy_time_s=0.5)
        delta = self._ops(reads=3, partial_programs=7, busy_time_s=0.125)
        after = before + delta
        assert after.diff(before) == delta

    def test_energy_and_time_snapshot_differences(self):
        before = self._ops(energy_j=1.0, busy_time_s=0.5)
        after = self._ops(energy_j=1.75, busy_time_s=0.625)
        assert snapshot_energy_difference(before, after) == 0.75
        assert snapshot_time_difference(before, after) == 0.125


class TestMergeSnapshots:
    def _snapshot(self, value, gauge, reads):
        ops = OpCounters()
        ops.reads = reads
        snap = obs.ObsSnapshot()
        snap.counters["t.merge"] = value
        snap.gauges["t.g"] = gauge
        snap.op_counters = ops
        return snap

    def test_merge_sums_counters_and_ops(self):
        merged = obs.merge_snapshots(
            [self._snapshot(1.5, 10, 2), self._snapshot(2.25, 20, 3)]
        )
        assert merged.counters["t.merge"] == 3.75
        assert merged.op_counters.reads == 5

    def test_merge_gauges_last_writer_wins_in_order(self):
        merged = obs.merge_snapshots(
            [self._snapshot(0, 10, 0), self._snapshot(0, 20, 0)]
        )
        assert merged.gauges["t.g"] == 20

    def test_merge_is_deterministic_for_fixed_order(self):
        snaps = [self._snapshot(0.1, 1, 1), self._snapshot(0.2, 2, 2)]
        a = obs.merge_snapshots(snaps)
        b = obs.merge_snapshots(snaps)
        assert a.deterministic_view() == b.deterministic_view()

    def test_merge_does_not_mutate_inputs(self):
        first = self._snapshot(1, 1, 1)
        obs.merge_snapshots([first, self._snapshot(2, 2, 2)])
        assert first.counters["t.merge"] == 1
        assert first.op_counters.reads == 1
