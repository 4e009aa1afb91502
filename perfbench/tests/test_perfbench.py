"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.checks import SilentCorruption, folded_auc, replay_check
from perfbench.tracer import LAYER_TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[2]

TINY_DRAIN = workloads.FleetWorkload(
    tenants=8, n_shards=2, ops_per_tenant=6, mix=(0.4, 0.4, 0.2),
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _owner(module_name, class_name):
    owner = importlib.import_module(module_name)
    return owner if class_name is None else getattr(owner, class_name)


def test_wrappers_restore_the_original_functions():
    before = [
        vars(_owner(module, cls)).get(attr)
        for module, cls, attr, _, _ in LAYER_TARGETS
    ]
    tracer = Tracer()
    with tracer.installed():
        patched = [
            vars(_owner(module, cls)).get(attr)
            for module, cls, attr, _, _ in LAYER_TARGETS
        ]
        assert all(p is not b for p, b in zip(patched, before))
    after = [
        vars(_owner(module, cls)).get(attr)
        for module, cls, attr, _, _ in LAYER_TARGETS
    ]
    assert all(a is b for a, b in zip(after, before))


def test_wrappers_restore_on_error_and_inherited_attributes():
    class Base:
        def op(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(()):
            tracer.patch(Child, "op", "child.op")
            assert Child().op() == "base"
            raise RuntimeError
    assert "op" not in vars(Child)
    assert Child().op() == "base"
    assert tracer.calls["child.op"] == 1


def test_self_times_plus_unattributed_sum_to_wall_time():
    clock = FakeClock()
    space = types.SimpleNamespace()

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 2.0
        space.inner()
        clock.now += 1.0

    space.inner, space.outer = inner, outer
    tracer = Tracer(clock=clock)
    start = clock()
    with tracer.installed(()):
        tracer.patch(space, "inner", "layer.inner")
        tracer.patch(space, "outer", "layer.outer")
        space.outer()
        clock.now += 4.0  # work outside every wrapped layer
        space.inner()
    wall = clock() - start
    assert tracer.self_s == {"layer.outer": 3.0, "layer.inner": 6.0}
    assert tracer.calls == {"layer.outer": 1, "layer.inner": 2}
    metrics = workloads.layer_metrics(tracer, 1, wall)
    assert metrics["unattributed_s"] == 4.0
    assert tracer.attributed_s() + metrics["unattributed_s"] == wall


def test_traced_tiny_fleet_closes_its_time_budget():
    tracer = Tracer()
    traced = workloads.fleet_pass(TINY_DRAIN, seed=3, tracer=tracer)
    metrics = workloads.layer_metrics(tracer, 1, traced.run_s)
    assert metrics["fleet.execute_round.calls"] > 0
    assert metrics["ecc.bch.decode_many.calls"] > 0
    assert metrics["unattributed_s"] + tracer.attributed_s() == pytest.approx(
        traced.run_s
    )
    assert 0.0 <= metrics["unattributed_pct"] < 10.0
    # Tracing changes no outcome.
    plain = workloads.fleet_pass(TINY_DRAIN, seed=3)
    assert workloads._deterministic(plain) == workloads._deterministic(traced)


def _tiny_requests_and_responses(seed=1):
    service = TINY_DRAIN.build(seed)
    requests = TINY_DRAIN.requests(seed)
    try:
        responses, *_ = workloads.closed_drain(service, requests, None)
    finally:
        service.close()
    return requests, responses


def test_replay_accepts_a_correct_run():
    requests, responses = _tiny_requests_and_responses()
    stats = replay_check(requests, responses)
    assert stats.attempted == len(requests)
    assert stats.failed == 0
    assert stats.reads > 0


def test_injected_wrong_payload_fails_the_check():
    requests, responses = _tiny_requests_and_responses()
    index = next(
        i for i, r in enumerate(responses)
        if r.kind == "read" and r.status == "ok"
    )
    forged = dataclasses.replace(
        responses[index], payload=responses[index].payload + b"!"
    )
    with pytest.raises(SilentCorruption):
        replay_check(requests, responses[:index] + [forged] + responses[index + 1:])


def test_wrong_mount_directory_fails_the_check():
    requests, responses = _tiny_requests_and_responses()
    index = next(
        i for i, r in enumerate(responses)
        if r.kind == "mount" and r.directory
    )
    (lba, length), *rest = responses[index].directory
    forged = dataclasses.replace(
        responses[index], directory=((lba, length + 1), *rest)
    )
    with pytest.raises(SilentCorruption):
        replay_check(requests, responses[:index] + [forged] + responses[index + 1:])


def test_lost_slot_is_a_typed_failure_not_corruption():
    requests, responses = _tiny_requests_and_responses()

    def last_touch(i):
        # No later answer of this tenant may still show the lost slot.
        r = responses[i]
        return not any(
            later.tenant == r.tenant and later.kind != "write"
            for later in responses[i + 1:]
        )

    index = next(
        i for i, r in enumerate(responses)
        if r.kind == "read" and r.status == "ok" and last_touch(i)
    )
    lost = dataclasses.replace(responses[index], status="not_found", payload=b"")
    stats = replay_check(requests, responses[:index] + [lost] + responses[index + 1:])
    assert stats.failed >= 1


def test_failed_read_then_mount_listing_the_lba_is_no_corruption():
    requests, responses = _tiny_requests_and_responses()

    def next_touch(i):
        # The tenant's next answer that is a mount or touches the LBA.
        r = responses[i]
        return next(
            (later for later in responses[i + 1:]
             if later.tenant == r.tenant
             and (later.kind == "mount" or later.lba == r.lba)),
            None,
        )

    index = next(
        i for i, r in enumerate(responses)
        if r.kind == "read" and r.status == "ok"
        and (touch := next_touch(i)) is not None
        and touch.kind == "mount" and r.lba in dict(touch.directory)
    )
    failed = dataclasses.replace(responses[index], status="error", payload=b"")
    stats = replay_check(requests, responses[:index] + [failed] + responses[index + 1:])
    assert stats.failed == 1


def test_detect_auc_is_symmetric_and_bounded():
    a = [0.1, 0.4, 0.35, 0.8, 0.8]
    b = [0.2, 0.8, 0.6, 0.9]
    assert folded_auc(a, b) == folded_auc(b, a)
    assert folded_auc([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert folded_auc([1.0, 2.0], [1.0, 2.0]) == 0.5
    assert 0.5 <= folded_auc(a, b) <= 1.0


def test_open_loop_reports_every_request():
    workload = dataclasses.replace(TINY_DRAIN, rate_per_s=400.0)
    result = workloads.fleet_pass(workload, seed=2)
    assert len(result.latencies_s) == result.requests
    assert len(result.late_s) == result.requests
    assert min(result.latencies_s) > 0.0
    assert result.replay.failed == 0
    # run_s is the busy time: the drains, not the arrival schedule.
    assert 0.0 < result.run_s < result.span_s
    assert result.run_s + result.idle_s <= result.span_s


def test_arrivals_derive_from_the_seed():
    assert workloads.arrival_times(5, 50, 100.0) == workloads.arrival_times(5, 50, 100.0)
    assert workloads.arrival_times(5, 50, 100.0) != workloads.arrival_times(6, 50, 100.0)


def test_tiny_fig6_sweep_serial_equals_traced():
    workload = workloads.Fig6Workload(max_steps=5, blocks_per_config=1, workers=1)
    plain = workload.sweep(0, "serial")
    tracer = Tracer()
    with tracer.installed():
        traced = workload.sweep(0, "serial")
    assert traced.rows() == plain.rows()
    assert tracer.calls["nand.partial_program"] > 0
    assert 0.0 <= workloads.pooled_ber(workload, [plain]) <= 1.0


def test_workload_names_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "drain-read",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_deadline_kills_the_worker_and_its_device_servers(monkeypatch):
    run._become_subreaper()  # orphaned servers are reaped here too
    monkeypatch.setattr(run, "DEADLINE_S", 4.0)
    records = run.run_worker("remote-open", seed=0, seconds=10, trace=0)
    assert records["timed_out"]
    assert records["planned"] == 300
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
