"""Command-line interface."""

import importlib
import pkgutil

import pytest

from repro import experiments
from repro.cli import main


@pytest.fixture
def device(tmp_path):
    path = str(tmp_path / "dev.stash")
    assert main(["init", path, "--seed", "3"]) == 0
    return path


def test_init_creates_device(tmp_path, capsys):
    path = str(tmp_path / "fresh.stash")
    assert main(["init", path]) == 0
    out = capsys.readouterr().out
    assert "initialised" in out
    assert "logical pages" in out


def test_public_write_read_roundtrip(device, capsys):
    assert main(["public-write", device, "5", "hello public world"]) == 0
    assert main(["public-read", device, "5"]) == 0
    out = capsys.readouterr().out
    assert "hello public world" in out


def test_public_read_unwritten(device, capsys):
    assert main(["public-read", device, "9"]) == 1


def test_public_write_size_limit(device):
    with pytest.raises(SystemExit):
        main(["public-write", device, "0", "x" * 5000])


def test_hide_reveal_roundtrip(device, capsys):
    main(["public-write", device, "0", "cover data"])
    assert main(["hide", device, "-p", "pw", "0", "the secret"]) == 0
    assert main(["reveal", device, "-p", "pw", "0"]) == 0
    out = capsys.readouterr().out
    assert "the secret" in out


def test_mount_lists_hidden_blocks(device, capsys):
    main(["public-write", device, "0", "cover"])
    main(["public-write", device, "1", "cover"])
    main(["hide", device, "-p", "pw", "7", "payload"])
    assert main(["mount", device, "-p", "pw"]) == 0
    out = capsys.readouterr().out
    assert "1 blocks" in out
    assert "lba 7" in out


def test_wrong_passphrase_finds_nothing(device, capsys):
    main(["public-write", device, "0", "cover"])
    main(["hide", device, "-p", "right", "0", "invisible"])
    assert main(["reveal", device, "-p", "wrong", "0"]) == 1
    out = capsys.readouterr().out
    assert "nothing found" in out


def test_delete_tombstones(device, capsys):
    # tombstones need a free host page of their own
    for lpa in range(6):
        main(["public-write", device, str(lpa), "cover"])
    main(["hide", device, "-p", "pw", "0", "doomed"])
    assert main(["delete", device, "-p", "pw", "0"]) == 0
    assert main(["reveal", device, "-p", "pw", "0"]) == 1


def test_hide_without_public_data_fails(device):
    from repro.stego import HiddenVolumeError

    with pytest.raises(HiddenVolumeError):
        main(["hide", device, "-p", "pw", "0", "no hosts yet"])


def test_hide_size_limit(device):
    main(["public-write", device, "0", "cover"])
    with pytest.raises(SystemExit):
        main(["hide", device, "-p", "pw", "0", "x" * 100])


def test_file_payloads(device, tmp_path, capsys):
    source = tmp_path / "note.txt"
    source.write_bytes(b"from a file")
    main(["public-write", device, "0", "cover"])
    assert main(["hide", device, "-p", "pw", "0", str(source),
                 "--file"]) == 0
    main(["reveal", device, "-p", "pw", "0"])
    assert "from a file" in capsys.readouterr().out


def test_stats(device, capsys):
    main(["public-write", device, "0", "cover"])
    assert main(["stats", device]) == 0
    out = capsys.readouterr().out
    assert "WAF" in out
    assert "chip ops" in out


def test_probe_histogram(device, capsys):
    main(["public-write", device, "0", "cover"])
    assert main(["probe", device, "0", "0"]) == 0
    out = capsys.readouterr().out
    assert "voltage histogram" in out
    assert "#" in out


def test_experiment_runner(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_experiment_unknown_name():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_unknown_experiment_lists_each_runnable_module_once():
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "fig99"])
    listed = str(excinfo.value).split("available: ", 1)[1].split(", ")
    runnable = {
        info.name
        for info in pkgutil.iter_modules(experiments.__path__)
        if hasattr(
            importlib.import_module(f"{experiments.__name__}.{info.name}"),
            "run",
        )
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == runnable


def test_load_rejects_non_device(tmp_path):
    bogus = tmp_path / "bogus.stash"
    import pickle

    bogus.write_bytes(pickle.dumps({"not": "a device"}))
    with pytest.raises(SystemExit):
        main(["stats", str(bogus)])


@pytest.mark.parametrize("stamp", ["missing", "older"])
def test_load_refuses_a_device_file_from_another_chip_layout(
    device, stamp, capsys
):
    """A file written before the layout stamp (or under another layout)
    holds chip state this code cannot drive: the first command refuses
    it cleanly, naming the fix, instead of crashing inside the chip."""
    import pickle

    from repro.cli import DEVICE_LAYOUT, Device

    assert main(["public-write", device, "0", "old cover"]) == 0
    stale = Device.load(device)
    if stamp == "missing":
        del stale.layout
    else:
        stale.layout = DEVICE_LAYOUT - 1
    with open(device, "wb") as handle:
        pickle.dump(stale, handle)
    capsys.readouterr()
    with pytest.raises(SystemExit, match="re-create the device") as refused:
        main(["public-read", device, "0"])
    found = "no chip-state layout stamp" if stamp == "missing" else (
        f"chip-state layout {DEVICE_LAYOUT - 1}"
    )
    assert f"{device} holds {found}" in str(refused.value)
    assert capsys.readouterr().out == ""


def test_load_refuses_an_unreadable_device_file(tmp_path):
    broken = tmp_path / "broken.stash"
    broken.write_bytes(b"not a pickle at all")
    with pytest.raises(SystemExit, match="not a repro-stash device file"):
        main(["stats", str(broken)])


def test_persistence_across_invocations(device, capsys):
    """The hidden volume is rebuilt from the passphrase each time —
    nothing about it is stored in the device file."""
    main(["public-write", device, "0", "cover a"])
    main(["public-write", device, "1", "cover b"])
    main(["hide", device, "-p", "pw", "3", "persists"])
    # fresh process simulation: reload and reveal
    assert main(["reveal", device, "-p", "pw", "3"]) == 0
    assert "persists" in capsys.readouterr().out


def test_report_command_runs_everything(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    for marker in ("Fig. 2", "Fig. 11", "Table 1", "§8 Energy",
                   "Ablation", "§6.2"):
        assert marker in out


def test_missing_device_file_message(tmp_path):
    with pytest.raises(SystemExit, match="repro-stash init"):
        main(["stats", str(tmp_path / "nope.stash")])


def test_fleet_smoke_both_schedulers(capsys):
    assert main(["fleet", "--tenants", "2", "--shards", "2",
                 "--ops", "3"]) == 0
    out = capsys.readouterr().out
    assert "coalesced vs naive" in out
    assert "bit-identical" in out and "DIVERGED" not in out


def test_fleet_remote_checks_divergence(capsys):
    assert main(["fleet", "--tenants", "2", "--shards", "2", "--ops", "3",
                 "--scheduler", "coalesced", "--remote",
                 "--remote-backend", "thread", "--shard-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "remote shards" in out
    assert "remote vs in-process" in out
    assert "bit-identical" in out and "DIVERGED" not in out


def test_fleet_report_prints_slo_table(capsys):
    assert main(["fleet", "--tenants", "3", "--shards", "2",
                 "--ops", "3", "--report"]) == 0
    out = capsys.readouterr().out
    assert "SLO: round latency percentiles" in out
    assert "p99.9" in out
    # both schedulers appear as rows
    assert "naive" in out and "coalesced" in out
    # the per-kind latency table carries the deterministic columns
    assert "p50 rnd" in out and "p99 rnd" in out


def test_fleet_remote_report_includes_remote_rows(capsys):
    assert main(["fleet", "--tenants", "2", "--shards", "2", "--ops", "3",
                 "--scheduler", "coalesced", "--remote",
                 "--remote-backend", "thread", "--report"]) == 0
    out = capsys.readouterr().out
    assert "coalesced:remote" in out


def test_obs_trace_prints_stitched_tree(tmp_path, capsys, monkeypatch):
    import repro.obs as obs

    was = obs.is_enabled()
    trace = tmp_path / "t.jsonl"
    try:
        assert main(["obs", "fig6", "--trace", str(trace)]) == 0
    finally:
        obs.set_enabled(was)
        import os

        os.environ.pop(obs.OBS_ENV, None)
    out = capsys.readouterr().out
    assert trace.is_file()
    assert "stitched trace tree" in out


def test_onfi_serve_once_round_trips_over_tcp():
    import os
    import re
    import socket
    import subprocess
    import sys
    from pathlib import Path

    import numpy as np

    import repro
    from repro.nand import TEST_MODEL, FlashChip
    from repro.onfi import RemoteChip

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "onfi-serve",
         "--once", "--seed", "9"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        assert match, banner
        sock = socket.create_connection(
            (match.group(1), int(match.group(2))), timeout=30
        )
        chip = RemoteChip(sock, TEST_MODEL.geometry, TEST_MODEL.params)
        local = FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=9)
        assert chip.seed == local.seed
        assert np.array_equal(chip.read_page(0, 0), local.read_page(0, 0))
        chip.close()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
