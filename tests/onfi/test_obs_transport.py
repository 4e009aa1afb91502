"""Telemetry over the wire: OBS_COLLECT/OBS_RESET, traces, exactness.

The tentpole invariants of the cross-process telemetry layer:

* ``OBS_COLLECT`` harvests the server's registry bit-exactly, and
  always answers the chip's cumulative ``OpCounters`` (the
  ``RemoteChip.counters`` path) — reset never rewinds them;
* trace-parent propagation stitches server-side spans under the client
  span with a process label, and costs zero wire bytes when
  observability is disabled;
* a remote-shard fleet's merged observability totals equal the
  in-process fleet's **exactly** (float equality, not approximately)
  across server backends and shard-worker counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    WorkloadConfig,
    generate_requests,
)
from repro.nand import TEST_MODEL, FlashChip
from repro.onfi import Op, RemoteChip, spawn_chip_server

from .conftest import SEED, page_bits

SETTINGS = dict(max_examples=4, deadline=None)

GEOMETRY = TEST_MODEL.geometry


@pytest.fixture(autouse=True)
def restore_obs_flag():
    was = obs.is_enabled()
    yield
    obs.set_enabled(was)


def remote_chip(backend="thread", seed=SEED, proc_label=None):
    sock, handle = spawn_chip_server(
        GEOMETRY, TEST_MODEL.params, seed=seed, backend=backend,
        proc_label=proc_label,
    )
    chip = RemoteChip(sock, GEOMETRY, TEST_MODEL.params)

    def cleanup():
        chip.close()
        handle.close()

    return chip, cleanup


class TestObsCollect:
    def test_counters_ride_obs_collect(self):
        obs.set_enabled(True)
        local = FlashChip(GEOMETRY, TEST_MODEL.params, seed=SEED)
        remote, cleanup = remote_chip()
        try:
            bits = page_bits(GEOMETRY, 3)
            for chip in (local, remote):
                chip.program_page(0, 0, bits)
                chip.read_page(0, 0)
                chip.erase_block(1)
            assert remote.counters == local.counters
            # and the frame that carried them was OBS_COLLECT
            assert remote.sent_ops.get(int(Op.OBS_COLLECT), 0) == 1
        finally:
            cleanup()

    def test_reset_is_delta_harvest_but_counters_are_cumulative(self):
        obs.set_enabled(True)
        remote, cleanup = remote_chip()
        try:
            bits = page_bits(GEOMETRY, 4)
            remote.program_page(0, 0, bits)
            first = remote.obs_collect(reset=True)
            assert first.counters.get("chip.programs") == 1.0
            assert first.op_counters.programs == 1
            remote.read_page(0, 0)
            second = remote.obs_collect(reset=True)
            # registry metrics: only the delta since the reset
            assert "chip.programs" not in second.counters
            assert second.counters.get("chip.reads") == 1.0
            # chip OpCounters: cumulative, immune to registry resets
            assert second.op_counters.programs == 1
            assert second.op_counters.reads == 1
        finally:
            cleanup()

    def test_obs_reset_clears_server_registry(self):
        obs.set_enabled(True)
        remote, cleanup = remote_chip()
        try:
            remote.program_page(0, 0, page_bits(GEOMETRY, 5))
            remote.obs_reset()
            harvest = remote.obs_collect()
            assert harvest.counters == {}
            assert harvest.spans == []
            assert harvest.op_counters.programs == 1  # still cumulative
        finally:
            cleanup()

    def test_collect_works_with_obs_disabled(self):
        # The counters path must keep working under REPRO_OBS=0: op
        # counters are core chip state, not telemetry.
        obs.set_enabled(False)
        remote, cleanup = remote_chip()
        try:
            remote.program_page(0, 0, page_bits(GEOMETRY, 6))
            snapshot = remote.obs_collect()
            assert snapshot.op_counters.programs == 1
            assert snapshot.counters == {}  # nothing recorded server-side
        finally:
            cleanup()


class TestTracePropagation:
    def test_server_spans_adopt_the_client_parent(self):
        obs.set_enabled(True)
        with obs.collect(absorb=False) as col:
            remote, cleanup = remote_chip(
                backend="process", proc_label="chip:test"
            )
            try:
                with obs.span("client.op"):
                    remote.program_page(0, 0, page_bits(GEOMETRY, 7))
                obs.get_registry().absorb(remote.obs_collect(reset=True))
            finally:
                cleanup()
        spans = {s.name: s for s in col.snapshot.spans}
        # program_page travels as a one-location PROGRAM_LOCATIONS frame.
        server_span = spans["onfi.program_locations"]
        assert server_span.parent == "client.op"
        assert server_span.proc == "chip:test"
        tree = obs.render_trace_tree(col.snapshot.spans)
        assert "client.op" in tree
        assert "onfi.program_locations [chip:test]" in tree

    def test_no_parent_adoption_outside_client_spans(self):
        obs.set_enabled(True)
        remote, cleanup = remote_chip(proc_label="chip:test")
        try:
            remote.program_page(0, 0, page_bits(GEOMETRY, 8))
            harvest = remote.obs_collect(reset=True)
        finally:
            cleanup()
        spans = {s.name: s for s in harvest.spans}
        assert spans["onfi.program_locations"].parent is None

    def test_trace_prefix_is_zero_bytes_when_disabled(self):
        obs.set_enabled(False)
        remote, cleanup = remote_chip()
        try:
            # HELLO still negotiates the capability...
            assert remote.server_flags != 0
            # ...but the wrapper must never touch the payload.
            flags, payload = remote._wrap_trace(0, b"abc")
            assert (flags, payload) == (0, b"abc")
        finally:
            cleanup()


def fleet_requests(tenants, seed):
    workload = WorkloadConfig(
        tenants=tenants, ops_per_tenant=4, seed=seed
    )
    return generate_requests(workload)


def fleet_totals(tenants, seed, remote, backend="thread", workers=None):
    with FleetService(FleetConfig(
        tenants=tenants, n_shards=2, seed=seed,
        remote=remote, remote_backend=backend,
    )) as service:
        for request in fleet_requests(tenants, seed):
            service.submit(request)
        service.drain(CoalescingScheduler(), shard_workers=workers)
        return service.fleet_snapshot()


def exact_view(snapshot):
    """The deterministic fields, with floats compared identically."""
    ops = snapshot.op_counters
    return (
        snapshot.counters,
        snapshot.gauges,
        {name: (h.count, h.total, h.min, h.max)
         for name, h in snapshot.histograms.items()},
        None if ops is None else (
            ops.reads, ops.programs, ops.erases, ops.partial_programs,
            ops.busy_time_s, ops.energy_j,
        ),
    )


class TestRemoteFleetExactness:
    @settings(**SETTINGS)
    @given(
        tenants=st.integers(4, 8),
        seed=st.integers(0, 2**16),
        backend=st.sampled_from(["thread", "process"]),
        workers=st.sampled_from([None, 1, 3]),
    )
    def test_remote_totals_equal_in_process_exactly(
        self, tenants, seed, backend, workers
    ):
        obs.set_enabled(True)
        local = fleet_totals(tenants, seed, remote=False)
        remote = fleet_totals(
            tenants, seed, remote=True, backend=backend, workers=workers
        )
        assert exact_view(remote) == exact_view(local)

    def test_disabled_remote_fleet_sends_zero_obs_frames(self):
        obs.set_enabled(False)
        with FleetService(FleetConfig(
            tenants=4, n_shards=2, seed=9,
            remote=True, remote_backend="thread",
        )) as service:
            for request in fleet_requests(4, 9):
                service.submit(request)
            responses = service.drain(CoalescingScheduler())
            assert responses
            for shard in service.shards:
                sent = shard.chip.sent_ops
                assert sent.get(int(Op.OBS_COLLECT), 0) == 0
                assert sent.get(int(Op.OBS_RESET), 0) == 0
