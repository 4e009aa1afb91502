"""The SLO layer: round stamps, percentiles, report rendering.

Round latencies are *virtual time*: pure functions of the workload and
queue configuration, identical across schedulers (naive and coalesced
form the same rounds) and across runs — the property that makes the
``fleet --report`` table reproducible where wall-clock never is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.fleet import (
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    NaiveScheduler,
    Request,
    WorkloadConfig,
    generate_requests,
    latency_samples,
    percentile,
    render_slo_table,
    slo_rows,
)
from repro.fleet.slo import SLO_PERCENTILES


def drained_responses(scheduler, tenants=6, seed=3, ops=5):
    service = FleetService(FleetConfig(
        tenants=tenants, n_shards=2, seed=seed
    ))
    workload = WorkloadConfig(
        tenants=tenants, ops_per_tenant=ops, seed=seed
    )
    for request in generate_requests(workload):
        assert service.submit(request)
    return service.drain(scheduler)


class TestPercentile:
    def test_nearest_rank_basics(self):
        samples = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(samples, 50) == 5
        assert percentile(samples, 99) == 10
        assert percentile(samples, 100) == 10
        assert percentile([7], 50) == 7

    def test_order_independent(self):
        assert percentile([9, 1, 5], 50) == percentile([5, 9, 1], 50)

    @pytest.mark.parametrize(
        "n,rank", [(1_000, 999), (2_000, 1_998), (10_000, 9_990)]
    )
    def test_p999_rank_is_exact(self, n, rank):
        """p99.9 of 1..n is the sample of rank ceil(0.999 n); the float
        product 99.9 / 100.0 * n lands one rank higher at these n."""
        assert percentile(list(range(1, n + 1)), 99.9) == rank

    @given(
        n=st.integers(1, 20_000),
        pct=st.sampled_from(SLO_PERCENTILES),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_nearest_rank(self, n, pct):
        """The smallest rank r with r / n >= pct / 100, in integers."""
        tenths = round(pct * 10)
        rank = min(r for r in range(1, n + 1) if 1000 * r >= tenths * n)
        assert percentile(list(range(n, 0, -1)), pct) == rank

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestRoundStamps:
    def test_every_drained_response_is_stamped(self):
        responses = drained_responses(CoalescingScheduler())
        assert responses
        for response in responses:
            assert response.round_index >= 0
            assert response.submitted_round >= 0
            assert response.latency_rounds >= 1

    def test_stamps_identical_across_schedulers(self):
        naive = drained_responses(NaiveScheduler())
        coalesced = drained_responses(CoalescingScheduler())
        def stamps(responses):
            return sorted(
                (r.tenant, r.lba, r.kind, r.round_index,
                 r.submitted_round)
                for r in responses
            )

        assert stamps(naive) == stamps(coalesced)

    def test_stamps_identical_across_runs(self):
        first = drained_responses(CoalescingScheduler(), seed=11)
        second = drained_responses(CoalescingScheduler(), seed=11)
        assert [
            (r.tenant, r.round_index, r.submitted_round) for r in first
        ] == [
            (r.tenant, r.round_index, r.submitted_round) for r in second
        ]

    def test_queue_backlog_shows_up_as_latency(self):
        # One tenant, several queued ops: the k-th op waits k rounds.
        service = FleetService(FleetConfig(tenants=1, n_shards=1, seed=0))
        for _ in range(3):
            assert service.submit(Request(0, "mount"))
        responses = service.drain(CoalescingScheduler())
        assert [r.latency_rounds for r in responses] == [1, 2, 3]

    def test_out_of_drain_execution_carries_sentinel(self):
        service = FleetService(FleetConfig(tenants=2, n_shards=1, seed=0))
        assert service.submit(Request(0, "write", 0, b"hi"))
        service.drain(CoalescingScheduler())
        # mount_directory runs execute_round outside a drain
        service.mount_directory(0)
        assert service.submit(Request(0, "read", 0))
        responses = service.drain(CoalescingScheduler())
        assert all(r.latency_rounds >= 1 for r in responses)

    def test_latency_rounds_sentinel_without_stamps(self):
        from repro.fleet import Response

        assert Response(0, "read", 0, "ok").latency_rounds == -1


class TestSloReport:
    def test_rows_cover_every_kind_present(self):
        responses = drained_responses(CoalescingScheduler())
        rows = slo_rows({"coalesced": responses})
        kinds = {row.kind for row in rows}
        assert kinds == set(latency_samples(responses))
        for row in rows:
            assert row.scheduler == "coalesced"
            assert 1 <= row.p50 <= row.p99 <= row.p999
            assert row.count > 0

    def test_table_renders_all_schedulers(self):
        naive = drained_responses(NaiveScheduler())
        coalesced = drained_responses(CoalescingScheduler())
        table = render_slo_table(
            {"naive": naive, "coalesced": coalesced}
        )
        assert "naive" in table and "coalesced" in table
        assert "p99.9" in table

    def test_empty_input_renders_placeholder(self):
        assert "no stamped responses" in render_slo_table({})


class TestSloMetrics:
    def test_latency_histograms_land_in_fleet_totals(self):
        obs_was = obs.is_enabled()
        obs.set_enabled(True)
        try:
            service = FleetService(FleetConfig(
                tenants=4, n_shards=2, seed=5
            ))
            workload = WorkloadConfig(
                tenants=4, ops_per_tenant=3, seed=5
            )
            # Admission counters record at submit() time — in the
            # *caller's* scope, not the per-round collect scopes.
            with obs.collect(absorb=False) as sub:
                for request in generate_requests(workload):
                    assert service.submit(request)
            responses = service.drain(CoalescingScheduler())
            totals = service.fleet_snapshot()
            assert sub.snapshot.counters["fleet.admitted"] == len(responses)
            assert "fleet.queue_depth" in totals.gauges
        finally:
            obs.set_enabled(obs_was)

    def test_wider_fleet_caches_no_new_metric_handles(self):
        """Fleet metrics are per fleet, not per tenant: after a 4-tenant
        drain, a 12-tenant one adds no handle to the process-wide cache,
        where a per-tenant handle would live as long as the process."""
        from repro.obs import metrics

        def drain(tenants):
            service = FleetService(FleetConfig(
                tenants=tenants, n_shards=2, seed=5
            ))
            workload = WorkloadConfig(
                tenants=tenants, ops_per_tenant=3, seed=5
            )
            for request in generate_requests(workload):
                assert service.submit(request)
            service.drain(CoalescingScheduler())

        obs_was = obs.is_enabled()
        obs.set_enabled(True)
        try:
            drain(4)
            cached = set(metrics._HANDLES)
            drain(12)
            assert set(metrics._HANDLES) == cached
        finally:
            obs.set_enabled(obs_was)
