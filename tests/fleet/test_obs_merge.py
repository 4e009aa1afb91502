"""Fleet observability totals are exact, ordered folds — never samples.

``FleetService`` folds each (round, shard) snapshot into that shard's
running total as it arrives, and ``fleet_snapshot`` merges the shard
totals in ascending shard order.  So fleet totals must equal a manual
one-at-a-time fold of the same snapshots float-for-float, and the
merged ``OpCounters`` must equal the ordered sum of the per-shard chip
counters.
"""

from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    Request,
    WorkloadConfig,
    generate_requests,
)
from repro.obs import merge_snapshots


def drained_service(tenants=6, n_shards=3, seed=21):
    service = FleetService(FleetConfig(
        tenants=tenants, n_shards=n_shards, seed=seed
    ))
    workload = WorkloadConfig(tenants=tenants, ops_per_tenant=5, seed=seed)
    for request in generate_requests(workload):
        assert service.submit(request)
    service.drain(CoalescingScheduler())
    return service


def recorded_service(monkeypatch):
    """A drained service and every (shard, snapshot) it folded, in order."""
    arrivals = []
    account = FleetService._account

    def spy(self, shard_id, snapshot):
        arrivals.append((shard_id, snapshot))
        account(self, shard_id, snapshot)

    monkeypatch.setattr(FleetService, "_account", spy)
    return drained_service(), arrivals


def snapshot_key(snapshot):
    """Every float-bearing field that must match bit-for-bit."""
    return (
        snapshot.counters,
        snapshot.gauges,
        {name: (h.count, h.total, h.min, h.max)
         for name, h in snapshot.histograms.items()},
        snapshot.op_counters,
        snapshot.profile,
        snapshot.spans,
        snapshot.wall_s,
    )


class TestAggregatorExactness:
    def test_totals_equal_manual_fold(self, monkeypatch):
        service, arrivals = recorded_service(monkeypatch)
        manual = {}
        for shard_id, snapshot in arrivals:
            manual[shard_id] = merge_snapshots(
                [manual.get(shard_id, merge_snapshots([])), snapshot]
            )
        for shard in service.shards:
            manual[shard.index].op_counters = shard.chip.counters.copy()
        fleet = merge_snapshots(manual[i] for i in sorted(manual))
        assert snapshot_key(service.fleet_snapshot()) == snapshot_key(fleet)

    def test_shard_totals_partition_the_entries(self, monkeypatch):
        service, arrivals = recorded_service(monkeypatch)
        # Provisioning plus one snapshot per (round, shard) with work.
        assert sorted({sid for sid, _ in arrivals}) == [0, 1, 2]
        for shard_id, total in enumerate(service._shard_totals):
            own = [s for sid, s in arrivals if sid == shard_id]
            assert snapshot_key(total) == snapshot_key(merge_snapshots(own))
        # And the per-shard counter sums recompose the fleet counters.
        recomposed = {}
        for total in service._shard_totals:
            for name, value in total.counters.items():
                recomposed[name] = recomposed.get(name, 0) + value
        assert recomposed == service.fleet_snapshot().counters

    def test_fleet_snapshot_leaves_running_totals_alone(self):
        service = drained_service()
        before = [snapshot_key(t) for t in service._shard_totals]
        first = service.fleet_snapshot()
        assert first.op_counters is not None
        assert [snapshot_key(t) for t in service._shard_totals] == before
        assert all(t.op_counters is None for t in service._shard_totals)
        assert snapshot_key(service.fleet_snapshot()) == snapshot_key(first)

    def test_fleet_op_counters_equal_chip_sums(self):
        service = drained_service()
        totals = service.fleet_snapshot()
        summed = service.shards[0].chip.counters.copy()
        for shard in service.shards[1:]:
            summed = summed + shard.chip.counters
        assert totals.op_counters.reads == summed.reads
        assert totals.op_counters.programs == summed.programs
        assert totals.op_counters.erases == summed.erases
        assert totals.op_counters.partial_programs == summed.partial_programs
        # float fields too: merge folds shards in the same order
        assert totals.op_counters.busy_time_s == summed.busy_time_s
        assert totals.op_counters.energy_j == summed.energy_j

    def test_scoped_counters_match_chip_counters(self):
        # The per-round collect scopes see every chip op the drain ran:
        # chip.* counters in the aggregated totals equal the lifetime
        # chip OpCounters (provisioning is recorded through a scope too).
        service = drained_service()
        totals = service.fleet_snapshot()
        assert totals.counters["chip.reads"] == totals.op_counters.reads
        assert totals.counters["chip.programs"] == totals.op_counters.programs
        assert totals.counters["chip.erases"] == totals.op_counters.erases
        assert (
            totals.counters["chip.partial_programs"]
            == totals.op_counters.partial_programs
        )


class TestRequestAccounting:
    def test_fleet_counters_count_requests_and_rounds(self):
        service = FleetService(FleetConfig(tenants=4, n_shards=2, seed=1))
        for tenant in range(4):
            service.submit(Request(tenant, "write", 0, b"x"))
            service.submit(Request(tenant, "mount"))
        service.drain(CoalescingScheduler())
        totals = service.fleet_snapshot()
        assert totals.counters["fleet.requests"] == 8.0
        # 2 rounds x 2 shards with every tenant active
        assert totals.counters["fleet.shard_rounds"] == 4.0
        assert totals.histograms["fleet.round_size"].count == 4
        assert totals.histograms["fleet.round_size"].total == 8.0
