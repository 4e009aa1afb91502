"""Bench-trajectory tracking: extraction, history, regression gating."""

from __future__ import annotations

import json

from repro import benchtrack
from repro.benchtrack import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    compare,
    extract_metrics,
    history_row,
    read_history,
    report,
)


def snapshots(
    ecc_speedup=10.0,
    overhead_pct=5.0,
    obs_pct=0.03,
    bit_identical=True,
):
    return {
        "ecc": {"benchmarks": {"encode": {"speedup": ecc_speedup}}},
        "onfi": {
            "transport": {
                "read_pages": {"overhead_pct": overhead_pct}
            },
            "fleet": {
                "throughput_ratio": 0.7,
                "bit_identical": bit_identical,
            },
        },
        "obs": {
            "benchmarks": {
                "estimated_disabled_overhead_pct": obs_pct
            },
            "rows_bit_identical": True,
        },
    }


def write_snapshots(root, snaps):
    for short, name in benchtrack.BENCH_FILES.items():
        if short in snaps:
            (root / name).write_text(json.dumps(snaps[short]))


class TestExtraction:
    def test_catalogue_names_and_values(self):
        metrics = extract_metrics(snapshots())
        assert metrics["ecc.benchmarks.encode.speedup"] == 10.0
        assert metrics["onfi.transport.read_pages.overhead_pct"] == 5.0
        assert metrics["onfi.fleet.bit_identical"] is True
        assert (
            metrics["obs.benchmarks.estimated_disabled_overhead_pct"]
            == 0.03
        )

    def test_missing_files_are_skipped(self):
        assert extract_metrics({}) == {}

    def test_real_repo_snapshots_extract(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        snaps = benchtrack.load_snapshots(root)
        metrics = extract_metrics(snaps)
        assert len(metrics) >= 30
        assert all(
            isinstance(v, (float, bool)) for v in metrics.values()
        )


class TestHistory:
    def test_rows_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        row = history_row({"a.b": 1.0}, machine={"cpu": 1}, timestamp=5.0)
        assert row["schema"] == HISTORY_SCHEMA_VERSION
        append_history(row, path)
        append_history(history_row({"a.b": 2.0}, timestamp=6.0), path)
        rows = read_history(path)
        assert [r["metrics"]["a.b"] for r in rows] == [1.0, 2.0]

    def test_unknown_schema_and_garbage_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(history_row({"a": 1.0}, timestamp=1.0), path)
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({
                "schema": HISTORY_SCHEMA_VERSION + 1,
                "metrics": {"a": 9.0},
            }) + "\n")
        rows = read_history(path)
        assert len(rows) == 1
        assert rows[0]["metrics"] == {"a": 1.0}

    def test_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []


def statuses(deltas):
    return {d.name: d.status for d in deltas}


class TestCompare:
    def test_within_threshold_is_ok(self):
        base = extract_metrics(snapshots())
        current = extract_metrics(snapshots(ecc_speedup=9.0))
        assert set(statuses(compare(current, base)).values()) == {"ok"}

    def test_collapse_is_a_regression(self):
        base = extract_metrics(snapshots(ecc_speedup=10.0))
        current = extract_metrics(snapshots(ecc_speedup=1.0))
        got = statuses(compare(current, base))
        assert got["ecc.benchmarks.encode.speedup"] == "regression"

    def test_direction_matters(self):
        base = extract_metrics(snapshots(overhead_pct=5.0))
        # overhead dropping is an improvement, never a regression
        current = extract_metrics(snapshots(overhead_pct=0.1))
        got = statuses(compare(current, base))
        assert got["onfi.transport.read_pages.overhead_pct"] in (
            "ok", "improved"
        )
        # overhead exploding regresses
        worse = extract_metrics(snapshots(overhead_pct=50.0))
        got = statuses(compare(worse, base))
        assert got["onfi.transport.read_pages.overhead_pct"] == "regression"

    def test_selection_microseconds_are_lower_is_better(self):
        def selection(fleet_us):
            return extract_metrics(
                {"selection": {"after_us": {"fleet": fleet_us}}}
            )

        got = statuses(compare(selection(130.0), selection(120.0)))
        assert got["selection.after_us.fleet"] == "ok"
        got = statuses(compare(selection(300.0), selection(120.0)))
        assert got["selection.after_us.fleet"] == "regression"

    def test_bool_must_stay_true(self):
        base = extract_metrics(snapshots())
        broken = extract_metrics(snapshots(bit_identical=False))
        got = statuses(compare(broken, base))
        assert got["onfi.fleet.bit_identical"] == "regression"

    def test_absolute_bar_beats_history(self):
        # The obs disabled-overhead 2% bar holds even when history has
        # an over-bar baseline to diff against.
        base = extract_metrics(snapshots(obs_pct=5.0))
        current = extract_metrics(snapshots(obs_pct=4.0))
        got = statuses(compare(current, base))
        assert (
            got["obs.benchmarks.estimated_disabled_overhead_pct"]
            == "regression"
        )

    def test_vanished_metric_is_missing(self):
        base = extract_metrics(snapshots())
        current = dict(base)
        del current["ecc.benchmarks.encode.speedup"]
        got = statuses(compare(current, base))
        assert got["ecc.benchmarks.encode.speedup"] == "missing"

    def test_new_metric_is_new(self):
        base = extract_metrics(snapshots())
        current = dict(base)
        current["ecc.benchmarks.decode.speedup"] = 3.0
        got = statuses(compare(current, base))
        assert got["ecc.benchmarks.decode.speedup"] == "new"


class TestReportDriver:
    def test_exit_2_without_snapshots(self, tmp_path, capsys):
        assert report(tmp_path) == 2

    def test_exit_2_without_history(self, tmp_path, capsys):
        write_snapshots(tmp_path, snapshots())
        assert report(tmp_path) == 2

    def test_record_seeds_then_check_passes(self, tmp_path, capsys):
        write_snapshots(tmp_path, snapshots())
        assert report(tmp_path, record=True) == 0
        assert report(tmp_path, check=True) == 0
        out = capsys.readouterr().out
        assert "bench-report check ok" in out

    def test_regression_exits_1(self, tmp_path, capsys):
        write_snapshots(tmp_path, snapshots(ecc_speedup=10.0))
        assert report(tmp_path, record=True) == 0
        write_snapshots(tmp_path, snapshots(ecc_speedup=1.0))
        assert report(tmp_path) == 1
        err = capsys.readouterr().err
        assert "regression" in err

    def test_record_appends_after_compare(self, tmp_path, capsys):
        write_snapshots(tmp_path, snapshots())
        assert report(tmp_path, record=True) == 0
        assert report(tmp_path, record=True) == 0
        rows = read_history(tmp_path / benchtrack.HISTORY_NAME)
        assert len(rows) == 2


class TestCli:
    def test_bench_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        write_snapshots(tmp_path, snapshots())
        assert main([
            "bench-report", "--bench-root", str(tmp_path), "--record",
        ]) == 0
        assert main([
            "bench-report", "--bench-root", str(tmp_path), "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "bench trajectory" in out
