"""CONC001/CONC002 fixture tests — lock discipline and lock ordering."""

import textwrap

import pytest

from .conftest import codes, lint


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


class TestConc001:
    def test_unguarded_write_in_lock_module(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                import threading

                from repro.parallel import run_units

                _LOCK = threading.Lock()
                _CACHE = {}

                def _unit(x):
                    _CACHE[x] = x
                    return x

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        findings = lint(root, select=["CONC001"])
        assert codes(findings) == ["CONC001"]
        assert "_LOCK" in findings[0].message

    def test_guarded_write_is_clean(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                import threading

                from repro.parallel import run_units

                _LOCK = threading.Lock()
                _CACHE = {}

                def _unit(x):
                    with _LOCK:
                        _CACHE[x] = x
                    return x

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        assert codes(lint(root, select=["CONC001"])) == []

    def test_module_without_lock_is_out_of_scope(self, project):
        # No declared lock discipline -> DET002's territory, not CONC001.
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                from repro.parallel import run_units

                _CACHE = {}

                def _unit(x):
                    _CACHE[x] = x
                    return x

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        assert codes(lint(root, select=["CONC001"])) == []

    def test_unreachable_writer_is_clean(self, project):
        root = project({
            "src/repro/experiments/driver.py": src(
                """
                import threading

                _LOCK = threading.Lock()
                _CACHE = {}

                def offline_tool(x):
                    _CACHE[x] = x
                    return x
                """
            ),
        })
        assert codes(lint(root, select=["CONC001"])) == []

    @pytest.mark.parametrize(
        "guard",
        ["nullcontext()", "_unblocked"],
        ids=["nullcontext", "lock-in-name"],
    )
    def test_non_lock_context_does_not_guard(self, project, guard):
        root = project({
            "src/repro/experiments/driver.py": src(
                f"""
                import threading
                from contextlib import nullcontext

                from repro.parallel import run_units

                _LOCK = threading.Lock()
                _unblocked = nullcontext()
                _CACHE = {{}}

                def _unit(x):
                    with {guard}:
                        _CACHE[x] = x
                    return x

                def run():
                    return run_units(_unit, [(1,)])
                """
            ),
        })
        findings = lint(root, select=["CONC001"])
        assert codes(findings) == ["CONC001"]
        assert findings[0].line == 12


class TestConc002:
    def test_opposite_acquisition_order(self, project):
        root = project({
            "src/repro/fleet/locks.py": src(
                """
                import threading

                LOCK_A = threading.Lock()
                LOCK_B = threading.Lock()

                def forwards():
                    with LOCK_A:
                        with LOCK_B:
                            pass

                def backwards():
                    with LOCK_B:
                        with LOCK_A:
                            pass
                """
            ),
        })
        findings = lint(root, select=["CONC002"])
        assert codes(findings) == ["CONC002", "CONC002"]
        assert "lock order cycle" in findings[0].message

    def test_consistent_order_is_clean(self, project):
        root = project({
            "src/repro/fleet/locks.py": src(
                """
                import threading

                LOCK_A = threading.Lock()
                LOCK_B = threading.Lock()

                def one():
                    with LOCK_A:
                        with LOCK_B:
                            pass

                def two():
                    with LOCK_A:
                        with LOCK_B:
                            pass
                """
            ),
        })
        assert codes(lint(root, select=["CONC002"])) == []

    def test_self_deadlock_through_callee(self, project):
        root = project({
            "src/repro/fleet/locks.py": src(
                """
                import threading

                _LOCK = threading.Lock()

                def outer():
                    with _LOCK:
                        inner()

                def inner():
                    with _LOCK:
                        pass
                """
            ),
        })
        findings = lint(root, select=["CONC002"])
        assert codes(findings) == ["CONC002"]
        assert "not reentrant" in findings[0].message

    def test_rlock_reentry_is_exempt(self, project):
        root = project({
            "src/repro/fleet/locks.py": src(
                """
                import threading

                _LOCK = threading.RLock()

                def outer():
                    with _LOCK:
                        inner()

                def inner():
                    with _LOCK:
                        pass
                """
            ),
        })
        assert codes(lint(root, select=["CONC002"])) == []

    def test_cross_module_cycle(self, project):
        root = project({
            "src/repro/fleet/alpha.py": src(
                """
                import threading

                LOCK_A = threading.Lock()

                def use_both():
                    from .beta import LOCK_B
                    with LOCK_A:
                        with LOCK_B:
                            pass
                """
            ),
            "src/repro/fleet/beta.py": src(
                """
                import threading

                from .alpha import LOCK_A

                LOCK_B = threading.Lock()

                def use_both():
                    with LOCK_B:
                        with LOCK_A:
                            pass
                """
            ),
        })
        findings = lint(root, select=["CONC002"])
        assert "CONC002" in codes(findings)
