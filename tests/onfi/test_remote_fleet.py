"""Fleet shards behind the wire: remote mode is bit-identical.

`repro.fleet` must run over :class:`RemoteChip` unchanged — same
responses, same observability totals, same chip op counters — whether
shards live in-process, behind a thread server, or behind a process
server drained by a worker pool.
"""

import multiprocessing
from collections import Counter

import pytest

from repro import obs
from repro.fleet import (
    FLEET_HIDING,
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    NaiveScheduler,
    WorkloadConfig,
    generate_requests,
)
from repro.hiding import VtHi
from repro.nand.errors import CommandError
from repro.onfi import Op

SEED = 23


@pytest.fixture
def obs_on():
    was = obs.is_enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(was)


def run_fleet(scheduler, *, remote=False, backend="process", workers=None):
    workload = WorkloadConfig(tenants=3, ops_per_tenant=6, seed=SEED)
    config = FleetConfig(
        tenants=3,
        n_shards=2,
        seed=SEED,
        remote=remote,
        remote_backend=backend,
    )
    with FleetService(config) as service:
        for request in generate_requests(workload):
            service.submit(request)
        responses = service.drain(scheduler, shard_workers=workers)
        snapshot = service.fleet_snapshot()
    views = sorted(r.deterministic_view() for r in responses)
    return views, snapshot.op_counters


@pytest.mark.parametrize("scheduler_cls", [CoalescingScheduler, NaiveScheduler])
def test_remote_thread_fleet_matches_in_process(scheduler_cls):
    local_views, local_counters = run_fleet(scheduler_cls())
    remote_views, remote_counters = run_fleet(
        scheduler_cls(), remote=True, backend="thread"
    )
    assert remote_views == local_views
    assert remote_counters == local_counters


def test_remote_process_fleet_with_worker_pool_matches_in_process():
    local_views, local_counters = run_fleet(CoalescingScheduler())
    remote_views, remote_counters = run_fleet(
        CoalescingScheduler(), remote=True, backend="process", workers=2
    )
    assert remote_views == local_views
    assert remote_counters == local_counters


def test_threaded_drain_matches_sequential_drain():
    sequential, seq_counters = run_fleet(
        CoalescingScheduler(), remote=True, backend="thread"
    )
    threaded, thr_counters = run_fleet(
        CoalescingScheduler(), remote=True, backend="thread", workers=2
    )
    assert threaded == sequential
    assert thr_counters == seq_counters


def test_close_is_idempotent_and_reentrant():
    config = FleetConfig(
        tenants=2, n_shards=2, seed=SEED, remote=True, remote_backend="thread"
    )
    service = FleetService(config)
    service.close()
    service.close()  # second close is a no-op


def test_coalesced_drain_sends_one_frame_per_embed_call(obs_on, monkeypatch):
    """Algorithm 1 runs on the device and telemetry waits for the totals:
    a drain sends one EMBED_LOCATIONS per non-empty ``embed_prepared``
    call and no probe, pulse, programmed-check or OBS_COLLECT frame."""
    embeds = Counter()
    embed_prepared = VtHi.embed_prepared

    def spy(self, items):
        if items:
            embeds[id(self)] += 1
        return embed_prepared(self, items)

    monkeypatch.setattr(VtHi, "embed_prepared", spy)
    config = FleetConfig(
        tenants=6, n_shards=2, seed=SEED, remote=True, remote_backend="thread"
    )
    workload = WorkloadConfig(tenants=6, ops_per_tenant=6, seed=SEED)
    with FleetService(config) as service:
        for request in generate_requests(workload):
            service.submit(request)
        before = [Counter(shard.chip.sent_ops) for shard in service.shards]
        service.drain(CoalescingScheduler())
        sent = [
            Counter(shard.chip.sent_ops) - start
            for shard, start in zip(service.shards, before)
        ]
        for shard, frames in zip(service.shards, sent):
            assert embeds[id(shard.vthi)] > 0
            assert frames[int(Op.EMBED_LOCATIONS)] == embeds[id(shard.vthi)]
            for op in (Op.PROBE_LOCATIONS, Op.PARTIAL_PROGRAM,
                       Op.IS_PROGRAMMED, Op.OBS_COLLECT):
                assert frames[int(op)] == 0, op.name
        harvested = [shard.chip.sent_ops[int(Op.OBS_COLLECT)]
                     for shard in service.shards]
        service.fleet_snapshot()
        for shard, count in zip(service.shards, harvested):
            assert shard.chip.sent_ops[int(Op.OBS_COLLECT)] > count


def test_constructor_that_raises_leaves_no_server_running():
    """The slot-size check runs before any server is spawned."""
    children = set(multiprocessing.active_children())
    hiding = FLEET_HIDING.replace(bits_per_page=200, ecc_m=10, ecc_t=10)
    with pytest.raises(ValueError, match="12 bytes per slot"):
        FleetService(FleetConfig(
            tenants=4, n_shards=2, seed=SEED, remote=True, hiding=hiding
        ))
    assert set(multiprocessing.active_children()) == children


def test_failed_provisioning_closes_spawned_servers(monkeypatch):
    children = set(multiprocessing.active_children())

    def fail(self):
        raise RuntimeError("provisioning failed")

    monkeypatch.setattr(FleetService, "_provision", fail)
    with pytest.raises(RuntimeError, match="provisioning failed"):
        FleetService(FleetConfig(
            tenants=4, n_shards=2, seed=SEED, remote=True
        ))
    assert set(multiprocessing.active_children()) == children


def test_close_shuts_every_shard_down_when_one_server_died():
    """A dead shard's error surfaces, but only after every other shard
    was harvested, shut down and joined."""
    children = set(multiprocessing.active_children())
    service = FleetService(FleetConfig(
        tenants=4, n_shards=2, seed=SEED, remote=True, remote_backend="process"
    ))
    victim = service._server_handles[0]._worker
    victim.kill()
    victim.join()
    with pytest.raises((OSError, CommandError)):
        service.close()
    assert service._server_handles == []
    assert set(multiprocessing.active_children()) == children
    service.close()  # second close is a no-op


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError):
        FleetConfig(tenants=2, n_shards=1, seed=0, remote=True,
                    remote_backend="carrier-pigeon")
