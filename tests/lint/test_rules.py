"""Per-rule fixtures: each rule has provable positives and negatives."""

import textwrap

import pytest

from .conftest import codes, lint


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip()


# ----------------------------------------------------------------------
# DET001 — nondeterministic sources


class TestDet001:
    def test_stdlib_random_in_experiments(self, project):
        root = project({
            "src/repro/experiments/bad.py": src(
                """
                import random

                def pick(rows):
                    return random.choice(rows)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert "random.choice" in findings[0].message
        assert findings[0].symbol == "pick"

    def test_global_np_random_in_nand(self, project):
        root = project({
            "src/repro/nand/bad.py": src(
                """
                import numpy as np

                def noise(n):
                    return np.random.rand(n)
                """
            ),
        })
        assert codes(lint(root)) == ["DET001"]

    def test_wall_clock_reachable_from_work_unit(self, project):
        # time.time() lives OUTSIDE the scope packages but is reachable
        # from a dispatched unit through the name-based call graph.
        root = project({
            "src/repro/util.py": src(
                """
                import time

                def stamp(x):
                    return x, time.time()
                """
            ),
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import run_units
                from repro.util import stamp

                def _unit(x):
                    return stamp(x)

                def run():
                    return run_units(_unit, [(1,), (2,)])
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert findings[0].path == "src/repro/util.py"

    def test_seeded_generator_is_fine(self, project):
        root = project({
            "src/repro/experiments/good.py": src(
                """
                import numpy as np

                def noise(seed, n):
                    return np.random.default_rng(seed).random(n)
                """
            ),
        })
        assert lint(root) == []

    def test_crypto_package_is_exempt(self, project):
        root = project({
            "src/repro/crypto/entropy.py": src(
                """
                import os

                def key_bytes():
                    return os.urandom(32)
                """
            ),
        })
        assert lint(root) == []

    def test_unreachable_wall_clock_not_flagged(self, project):
        root = project({
            "src/repro/util.py": src(
                """
                import time

                def stamp():
                    return time.time()
                """
            ),
        })
        assert lint(root) == []

    @pytest.mark.parametrize(
        "caller",
        [
            """
            def row(name):
                return {"name": name, "at": now()}
            """,
            """
            STAMP = now()
            """,
        ],
        ids=["function", "module-body"],
    )
    def test_helper_reached_from_scope_package(self, project, caller):
        # No dispatch reaches the caller, but a scope package's functions
        # and module bodies seed the row-producing set, so the helper
        # outside every scope package that feeds a row is covered.
        root = project({
            "src/repro/util.py": src(
                """
                import time

                def now():
                    return time.time()
                """
            ),
            "src/repro/experiments/report.py": (
                "from repro.util import now\n\n" + src(caller)
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert (findings[0].path, findings[0].line) == ("src/repro/util.py", 4)

    def test_module_level_draw_in_scope_package(self, project):
        root = project({
            "src/repro/nand/seeding.py": src(
                """
                import random

                SEED = random.random()
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert (findings[0].line, findings[0].symbol) == (3, "<module>")

    def test_discarded_draw_is_flagged(self, project):
        # The rule is flow-insensitive: entropy drawn in row-producing
        # code is a finding even when the value is never used.
        root = project({
            "src/repro/experiments/timing.py": src(
                """
                import time

                def run(rows):
                    started = time.time()
                    return sorted(rows)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert findings[0].symbol == "run"


# ----------------------------------------------------------------------
# DET002 — shared state mutated from parallel work units


class TestDet002:
    def test_module_dict_write_in_unit(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import run_units

                _CACHE = {}

                def _unit(x):
                    _CACHE[x] = x * 2
                    return x

                def run():
                    return run_units(_unit, [(1,), (2,)])
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET002"]
        assert "_CACHE" in findings[0].message

    def test_global_rebind_in_unit(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import ParallelRunner

                TOTAL = 0

                def _unit(x):
                    global TOTAL
                    TOTAL += x
                    return x

                def run(workers=None):
                    return ParallelRunner(workers).map(_unit, [(1,), (2,)])
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET002"]
        assert "TOTAL" in findings[0].message

    def test_mutator_method_on_module_list(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import run_units

                ROWS = []

                def _unit(x):
                    ROWS.append(x)
                    return x

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        assert codes(lint(root)) == ["DET002"]

    def test_local_shadow_is_fine(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import run_units

                def _unit(x):
                    rows = {}
                    rows[x] = x
                    return rows

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        assert lint(root) == []

    def test_unreachable_mutation_is_fine(self, project):
        root = project({
            "src/repro/cache.py": src(
                """
                _MEMO = {}

                def remember(k, v):
                    _MEMO[k] = v
                """
            ),
        })
        assert lint(root) == []

    def test_lock_guarded_memo_write_is_exempt(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                import threading

                from repro.parallel import run_units

                _LOCK = threading.Lock()
                _CACHE = {}

                def _unit(x):
                    with _LOCK:
                        _CACHE[x] = x * 2
                    return x

                def run():
                    return run_units(_unit, [(1,), (2,)])
                """
            ),
        })
        assert lint(root) == []

    def test_lock_guarded_write_of_entropy_is_flagged(self, project):
        # The lock exemption needs a function that draws no entropy.
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                import threading
                import time

                from repro.parallel import run_units

                _LOCK = threading.Lock()
                _CACHE = {}

                def _unit(x):
                    with _LOCK:
                        _CACHE[x] = time.time()
                    return x

                def run():
                    return run_units(_unit, [(1,), (2,)])
                """
            ),
        })
        findings = lint(root)
        assert sorted(codes(findings)) == ["DET001", "DET002"]
        assert {f.line for f in findings} == {11}


# ----------------------------------------------------------------------
# Fleet scheduler dispatch sites seed DET001/DET002 reachability


class TestFleetDispatch:
    def test_wall_clock_reachable_from_fleet_dispatch(self, project):
        # time.time() lives outside every scope package but is reachable
        # from a fleet engine dispatch (execute_round) in a module that
        # imports repro.fleet.
        root = project({
            "src/repro/clockutil.py": src(
                """
                import time

                def stamp(x):
                    return x, time.time()
                """
            ),
            "src/repro/fleet/service.py": src(
                """
                from repro.clockutil import stamp

                class FleetService:
                    def execute_round(self, shard_id, requests):
                        return [stamp(r) for r in requests]
                """
            ),
            "src/repro/driver.py": src(
                """
                from repro.fleet.service import FleetService

                def drive(requests):
                    return FleetService().execute_round(0, requests)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert findings[0].path == "src/repro/clockutil.py"

    def test_run_round_outside_fleet_not_a_dispatch(self, project):
        # The same method names in a module with no repro.fleet import
        # are not dispatch sites: the helper stays unreachable.
        root = project({
            "src/repro/clockutil.py": src(
                """
                import time

                def stamp(x):
                    return x, time.time()
                """
            ),
            "src/repro/other.py": src(
                """
                from repro.clockutil import stamp

                class Engine:
                    def run_round(self, requests):
                        return [stamp(r) for r in requests]

                def drive(requests):
                    return Engine().run_round(requests)
                """
            ),
        })
        assert lint(root) == []

    def test_shared_state_write_under_fleet_dispatch(self, project):
        root = project({
            "src/repro/fleet/service.py": src(
                """
                _ROUNDS = {}

                class FleetService:
                    def execute_round(self, shard_id, requests):
                        _ROUNDS[shard_id] = len(requests)
                        return requests

                def drive(svc):
                    return svc.execute_round(0, [])
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET002"]
        assert "_ROUNDS" in findings[0].message


# ----------------------------------------------------------------------
# ONFI wire dispatch sites seed DET001/DET002 reachability


class TestOnfiDispatch:
    def test_wall_clock_reachable_from_wire_dispatch(self, project):
        # time.time() lives outside every scope package but is reachable
        # from a server frame dispatch (handle_frame) in a module that
        # imports repro.onfi.
        root = project({
            "src/repro/clockutil.py": src(
                """
                import time

                def stamp(x):
                    return x, time.time()
                """
            ),
            "src/repro/onfi/server.py": src(
                """
                from repro.clockutil import stamp

                class ChipServer:
                    def handle_frame(self, opcode, flags, tag, payload):
                        return stamp(payload)
                """
            ),
            "src/repro/driver.py": src(
                """
                from repro.onfi.server import ChipServer

                def drive(frame):
                    return ChipServer().handle_frame(*frame)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert findings[0].path == "src/repro/clockutil.py"

    def test_client_call_sites_are_dispatches(self, project):
        # The RemoteChip issue points (_call/_post) seed reachability
        # from any module importing repro.onfi.
        root = project({
            "src/repro/entropy.py": src(
                """
                import os

                def nonce():
                    return os.urandom(2)
                """
            ),
            "src/repro/wired.py": src(
                """
                from repro.onfi import RemoteChip
                from repro.entropy import nonce

                class PaddedChip(RemoteChip):
                    def _call(self, op, flags=0, payload=b""):
                        return super()._call(op, flags, payload + nonce())

                def probe(chip):
                    return chip._call(0xC6)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]
        assert findings[0].path == "src/repro/entropy.py"

    def test_handle_frame_outside_onfi_not_a_dispatch(self, project):
        # The same method names in a module with no repro.onfi import
        # are not dispatch sites: the helper stays unreachable.
        root = project({
            "src/repro/clockutil.py": src(
                """
                import time

                def stamp(x):
                    return x, time.time()
                """
            ),
            "src/repro/other.py": src(
                """
                from repro.clockutil import stamp

                class Codec:
                    def handle_frame(self, frame):
                        return stamp(frame)

                def drive(frame):
                    return Codec().handle_frame(frame)
                """
            ),
        })
        assert lint(root) == []

    def test_os_urandom_in_onfi_package_scope(self, project):
        # repro.onfi is a whole-module scope package: OS entropy inside
        # it is flagged with no dispatch site needed...
        root = project({
            "src/repro/onfi/client.py": src(
                """
                import os

                def fresh_tag():
                    return int.from_bytes(os.urandom(2), "little")
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET001"]

    def test_justified_noqa_suppresses_wire_tag_entropy(self, project):
        # ...and the real client's justified suppression works: the wire
        # tag seed is transport bookkeeping, never a chip input.
        root = project({
            "src/repro/onfi/client.py": src(
                """
                import os

                def fresh_tag():
                    return int.from_bytes(os.urandom(2), "little")  # repro: noqa[DET001] — transport tag only
                """
            ),
        })
        assert lint(root) == []


# ----------------------------------------------------------------------
# DET003 — iteration over sets of strings


class TestDet003:
    def test_for_over_str_set_literal(self, project):
        root = project({
            "src/repro/report.py": src(
                """
                def rows():
                    out = []
                    for name in {"fig6", "fig7", "fig8"}:
                        out.append(name)
                    return out
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["DET003"]
        assert findings[0].severity.value == "warning"

    def test_list_over_named_str_set(self, project):
        root = project({
            "src/repro/report.py": src(
                """
                NAMES = {"a", "b", "c"}

                def rows():
                    return list(NAMES)
                """
            ),
        })
        assert codes(lint(root)) == ["DET003"]

    def test_sorted_normalises_order(self, project):
        root = project({
            "src/repro/report.py": src(
                """
                def rows():
                    return sorted({"a", "b", "c"})
                """
            ),
        })
        assert lint(root) == []

    def test_int_sets_are_fine(self, project):
        root = project({
            "src/repro/report.py": src(
                """
                def rows():
                    return [x for x in {1, 2, 3}]
                """
            ),
        })
        assert lint(root) == []


# ----------------------------------------------------------------------
# OBS001 — unguarded registry updates


class TestObs001:
    def test_raw_counter_add(self, project):
        root = project({
            "src/repro/ftl/bad.py": src(
                """
                from repro import obs

                def rescue(pages):
                    obs.get_registry().counter_add("ftl.rescued", len(pages))
                    return pages
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["OBS001"]
        assert "obs.counter" in findings[0].message

    def test_obs_package_itself_is_exempt(self, project):
        root = project({
            "src/repro/obs/extra.py": src(
                """
                def flush(registry, name, value):
                    registry.counter_add(name, value)
                """
            ),
        })
        assert lint(root) == []

    def test_guarded_helper_is_fine(self, project):
        root = project({
            "src/repro/ftl/good.py": src(
                """
                from repro import obs

                def rescue(pages):
                    obs.counter("ftl.rescued").inc(len(pages))
                    return pages
                """
            ),
        })
        assert lint(root) == []


# ----------------------------------------------------------------------
# NUM001 — ecc/nand kernel dtype discipline


class TestNum001:
    def test_bare_zeros_in_ecc(self, project):
        root = project({
            "src/repro/ecc/kernel.py": src(
                """
                import numpy as np

                def scratch(n):
                    return np.zeros(n)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["NUM001"]
        assert "dtype" in findings[0].message

    def test_dtype_int_is_platform_dependent(self, project):
        root = project({
            "src/repro/ecc/kernel.py": src(
                """
                import numpy as np

                def ids(n):
                    return np.arange(n, dtype=int)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["NUM001"]
        assert "platform C long" in findings[0].message

    def test_explicit_dtype_is_fine(self, project):
        root = project({
            "src/repro/ecc/kernel.py": src(
                """
                import numpy as np

                def scratch(n):
                    return np.zeros(n, dtype=np.int16)
                """
            ),
        })
        assert lint(root) == []

    def test_bare_empty_in_nand_kernels(self, project):
        root = project({
            "src/repro/nand/kernels.py": src(
                """
                import numpy as np

                def scratch(n):
                    return np.empty(n)
                """
            ),
        })
        findings = lint(root)
        assert codes(findings) == ["NUM001"]
        assert "dtype" in findings[0].message

    def test_outside_kernel_packages_not_flagged(self, project):
        root = project({
            "src/repro/perf/model2.py": src(
                """
                import numpy as np

                def scratch(n):
                    return np.zeros(n)
                """
            ),
        })
        assert lint(root) == []
