"""Fleet service semantics: round-trips, statuses, rebuild, admission."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    AdmissionError,
    CoalescingScheduler,
    FleetConfig,
    FleetService,
    Request,
    RequestQueue,
)


def small_service(**overrides):
    params = dict(tenants=4, n_shards=2, seed=5)
    params.update(overrides)
    return FleetService(FleetConfig(**params))


def drain(service):
    return service.drain(CoalescingScheduler())


class TestRoundTrips:
    def test_write_then_read(self):
        service = small_service()
        assert service.submit(Request(0, "write", 0, b"attack at dawn"))
        assert service.submit(Request(0, "read", 0))
        responses = drain(service)
        assert [r.status for r in responses] == ["ok", "ok"]
        assert responses[1].payload == b"attack at dawn"

    def test_overwrite_serves_latest(self):
        service = small_service()
        for payload in (b"first", b"second", b"third"):
            service.submit(Request(1, "write", 0, payload))
        service.submit(Request(1, "read", 0))
        responses = drain(service)
        assert responses[-1].payload == b"third"

    def test_tenants_are_isolated(self):
        service = small_service()
        service.submit(Request(0, "write", 0, b"tenant zero"))
        service.submit(Request(1, "write", 0, b"tenant one"))
        service.submit(Request(0, "read", 0))
        service.submit(Request(1, "read", 0))
        responses = {
            (r.tenant, r.kind): r for r in drain(service)
        }
        assert responses[(0, "read")].payload == b"tenant zero"
        assert responses[(1, "read")].payload == b"tenant one"


class TestStatuses:
    def test_read_missing_lba(self):
        service = small_service()
        service.submit(Request(2, "read", 1))
        (response,) = drain(service)
        assert response.status == "not_found"
        assert response.payload == b""

    def test_write_too_large(self):
        service = small_service()
        oversize = b"x" * (service.slot_payload_bytes + 1)
        service.submit(Request(0, "write", 0, oversize))
        (response,) = drain(service)
        assert response.status == "too_large"

    def test_volume_full_on_distinct_lbas(self):
        service = small_service()
        slots = len(service._host_pages)
        for lba in range(slots + 1):
            service.submit(Request(0, "write", lba, b"v"))
        responses = drain(service)
        assert [r.status for r in responses] == ["ok"] * slots + ["full"]


class TestRebuild:
    def test_overwrites_trigger_rebuild_and_preserve_others(self):
        service = small_service()
        ts = service.tenants[0]
        slots = len(service._host_pages)
        # Fill every slot, then overwrite lba 0 until a rebuild must fire.
        for lba in range(slots):
            service.submit(Request(0, "write", lba, b"keep %d" % lba))
        for round_ in range(3):
            service.submit(Request(0, "write", 0, b"round %d" % round_))
        drain(service)
        assert ts.epoch >= 1
        # Every other lba survived the erase cycles.
        for lba in range(slots):
            service.submit(Request(0, "read", lba))
        responses = drain(service)
        got = {r.lba: r.payload for r in responses}
        assert got[0] == b"round 2"
        for lba in range(1, slots):
            assert got[lba] == b"keep %d" % lba

    def test_uncorrectable_slot_is_dropped_not_fatal(self):
        # Under a deliberately feeble code (t=2) a slot whose page took
        # more raw errors than that fails its rebuild decode; the
        # service must drop the dead slot, count it, and keep serving —
        # identically under both schedulers (the decode result is
        # scheduler-independent).
        from repro.fleet import FLEET_HIDING, NaiveScheduler

        def run(scheduler):
            service = small_service(
                tenants=2, n_shards=1,
                hiding=FLEET_HIDING.replace(ecc_t=2),
            )
            slots = len(service._host_pages)
            for lba in range(slots):
                service.submit(Request(0, "write", lba, b"v%d" % lba))
            service.drain(scheduler)
            # Charge every other cell that reads as a hidden '1' on lba
            # 1's page: ~160 wrong bits against t=2.  (Charging every
            # hidden cell would leave the all-zero codeword.)
            ts = service.tenants[0]
            page = ts.slots[1][0]
            cells = service._selection(ts, page)
            shard = service.shards[ts.shard]
            (hidden,) = shard.chip.read_locations(
                [(ts.block, page)], threshold=shard.vthi.config.threshold,
                cells=[cells],
            )
            shard.vthi.embed_prepared(
                [(ts.block, page, cells[hidden == 1][::2])]
            )
            service.submit(Request(0, "write", 0, b"again"))  # rebuild
            service.drain(scheduler)
            for lba in range(slots):
                service.submit(Request(0, "read", lba))
            statuses = [r.status for r in service.drain(scheduler)]
            lost = service.fleet_snapshot().counters.get(
                "fleet.lost_slots", 0
            )
            return statuses, lost

        statuses, lost = run(CoalescingScheduler())
        assert lost > 0
        assert "not_found" in statuses
        assert run(NaiveScheduler()) == (statuses, lost)

    def test_rebuild_is_scoped_to_the_tenant_block(self):
        service = small_service(tenants=2, n_shards=1)
        service.submit(Request(1, "write", 0, b"bystander"))
        drain(service)
        slots = len(service._host_pages)
        for i in range(slots + 2):
            service.submit(Request(0, "write", 0, b"w%d" % i))
        drain(service)
        assert service.tenants[0].epoch >= 1
        assert service.tenants[1].epoch == 0
        # the bystander on the same chip is untouched and still readable
        service.submit(Request(1, "read", 0))
        (response,) = drain(service)
        assert response.payload == b"bystander"


class TestMount:
    def test_directory_lists_live_slots(self):
        service = small_service()
        service.submit(Request(3, "write", 0, b"short"))
        service.submit(Request(3, "write", 1, b"longer one"))
        service.submit(Request(3, "write", 0, b"rewritten!"))
        service.submit(Request(3, "mount"))
        responses = drain(service)
        directory = responses[-1].directory
        assert directory == ((0, len(b"rewritten!")), (1, len(b"longer one")))

    def test_empty_volume_mounts_empty(self):
        service = small_service()
        service.submit(Request(2, "mount"))
        (response,) = drain(service)
        assert response.status == "ok"
        assert response.directory == ()

    def test_mount_directory_helper_matches_state(self):
        service = small_service()
        service.submit(Request(0, "write", 1, b"hello"))
        drain(service)
        assert service.mount_directory(0) == ((1, 5),)


class TestAdmission:
    def test_per_tenant_depth_bound(self):
        service = small_service(max_queue_per_tenant=2)
        assert service.submit(Request(0, "read", 0))
        assert service.submit(Request(0, "read", 0))
        assert not service.submit(Request(0, "read", 0))
        # other tenants are unaffected
        assert service.submit(Request(1, "read", 0))
        assert service.queue.stats.rejected == 1

    def test_queue_raises_for_direct_users(self):
        queue = RequestQueue(max_per_tenant=1)
        queue.submit(Request(0, "read", 0))
        with pytest.raises(AdmissionError, match="tenant 0"):
            queue.submit(Request(0, "read", 0))

    def test_round_cap_rotates_round_robin(self):
        queue = RequestQueue(max_round_requests=2)
        for tenant in (0, 1, 2):
            queue.submit(Request(tenant, "mount"))
            queue.submit(Request(tenant, "mount"))
        rounds = []
        while len(queue):
            rounds.append([r.tenant for r in queue.next_round()])
        assert rounds == [[0, 1], [2, 0], [1, 2]]

    def test_unknown_tenant_rejected(self):
        service = small_service()
        with pytest.raises(KeyError):
            service.submit(Request(99, "read", 0))

    @given(
        ops=st.lists(st.one_of(st.integers(0, 7), st.none()), max_size=80),
        max_per_tenant=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_queue(self, ops, max_per_tenant, cap):
        """Interleaved submits (an int: the tenant; rejections included)
        and rounds (None): admissions, rounds, round stamps and stats
        equal a queue that rescans every tenant, and ``len()`` is the
        sum of the tenants' depths throughout."""
        queue = RequestQueue(max_per_tenant, max_round_requests=cap)
        pending = {}  # tenant -> [(lba, submitted_round)]
        cursor, rounds, rejected = -1, 0, 0
        for lba, op in enumerate(ops):
            if op is None:
                got = [
                    (e.request.tenant, e.request.lba, e.submitted_round)
                    for e in queue.next_round_entries()
                ]
                active = sorted(t for t, q in pending.items() if q)
                order = [t for t in active if t > cursor]
                order += [t for t in active if t <= cursor]
                picked = order[: cap or len(order)]
                assert got == [(t, *pending[t].pop(0)) for t in picked]
                if picked:
                    cursor, rounds = picked[-1], rounds + 1
            elif len(pending.get(op, [])) < max_per_tenant:
                queue.submit(Request(op, "read", lba))
                pending.setdefault(op, []).append((lba, rounds))
            else:
                with pytest.raises(AdmissionError):
                    queue.submit(Request(op, "read", lba))
                rejected += 1
            depths = {t: queue.depth(t) for t in range(8)}
            assert depths == {t: len(pending.get(t, [])) for t in range(8)}
            assert len(queue) == sum(depths.values())
        submitted = len(ops) - ops.count(None) - rejected
        assert (queue.stats.submitted, queue.stats.rejected) == (
            submitted, rejected
        )
        assert queue.stats.rounds == rounds


class TestRoundInvariants:
    def test_two_requests_same_tenant_rejected(self):
        service = small_service()
        with pytest.raises(ValueError, match="one request per tenant"):
            service.execute_round(
                0, [Request(0, "read", 0), Request(0, "read", 1)]
            )

    def test_responses_in_request_order(self):
        service = small_service(tenants=4, n_shards=1)
        requests = [Request(t, "mount") for t in (3, 1, 0, 2)]
        responses = service.execute_round(0, requests)
        assert [r.tenant for r in responses] == [3, 1, 0, 2]

    def test_bad_request_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            Request(0, "erase")

    @pytest.mark.parametrize(
        "lba, payload", [(5, b""), (-1, b"x"), (2**32, b"x")]
    )
    def test_unrepresentable_write_rejected(self, lba, payload):
        # A zero-length slot is a deletion tombstone; the LBA is a u32.
        with pytest.raises(ValueError):
            Request(1, "write", lba, payload)

    def test_rejected_write_leaves_the_volume_alone(self):
        service = small_service()
        service.submit(Request(1, "write", 5, b"hello"))
        with pytest.raises(ValueError):
            service.submit(Request(1, "write", 5, b""))
        service.submit(Request(1, "read", 5))
        service.submit(Request(1, "mount"))
        _, read, mount = drain(service)
        assert (read.payload, mount.directory) == (b"hello", ((5, 5),))
