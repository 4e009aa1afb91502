"""CLI behaviour, subcommand forwarding, and the repo meta-test."""

from pathlib import Path

from repro import cli as repro_cli
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_ECC = (
    "import numpy as np\n\ndef scratch(n):\n    return np.zeros(n)\n"
)


def seed_violation(project) -> Path:
    return project({"src/repro/ecc/kernel.py": BAD_ECC})


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        root = project({"src/repro/ecc/clean.py": "X = 1\n"})
        code = lint_main([str(root / "src"), "--root", str(root)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_error_finding_exits_one(self, project, capsys):
        root = seed_violation(project)
        code = lint_main([str(root / "src"), "--root", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "NUM001" in out
        assert "src/repro/ecc/kernel.py:4" in out

    def test_warning_needs_error_on_findings(self, project, capsys):
        # DET003 is WARNING severity: exit 0 by default, 1 in CI mode.
        root = project({
            "src/repro/report.py": (
                "def rows():\n    return list({'a', 'b'})\n"
            ),
        })
        argv = [str(root / "src"), "--root", str(root)]
        assert lint_main(argv) == 0
        assert lint_main(argv + ["--error-on-findings"]) == 1
        assert "DET003" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code = lint_main([str(tmp_path / "nope"), "--root", str(tmp_path)])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_format(self, project, capsys):
        import json

        root = seed_violation(project)
        code = lint_main(
            [str(root / "src"), "--root", str(root), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "NUM001"
        assert payload["modules_checked"] == 1


class TestSuppressed:
    """A finding is active or noqa-suppressed: a suppressed one is
    reported and counted, and never gates."""

    NOQA_ECC = (
        "import numpy as np\n\ndef scratch(n):\n"
        "    return np.zeros(n)  # repro: noqa[NUM001] cast downstream\n"
    )

    def test_suppressed_finding_does_not_gate(self, project, capsys):
        root = project({"src/repro/ecc/kernel.py": self.NOQA_ECC})
        code = lint_main(
            [str(root / "src"), "--root", str(root), "--error-on-findings"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "1 suppressed by noqa" in out
        assert "NUM001" not in out

    def test_json_lists_suppressed_findings(self, project, capsys):
        import json

        root = project({"src/repro/ecc/kernel.py": self.NOQA_ECC})
        code = lint_main(
            [str(root / "src"), "--root", str(root), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        [record] = payload["suppressed"]
        assert set(record) == {
            "rule", "path", "line", "col", "severity", "symbol", "message",
        }
        assert (record["rule"], record["path"], record["line"]) == (
            "NUM001", "src/repro/ecc/kernel.py", 4,
        )
        assert record["symbol"] == "scratch"


class TestSubcommandForwarding:
    def test_repro_stash_lint_forwards_options(self, project, capsys):
        root = seed_violation(project)
        code = repro_cli.main(
            [
                "lint",
                str(root / "src"),
                "--root",
                str(root),
                "--error-on-findings",
            ]
        )
        assert code == 1
        assert "NUM001" in capsys.readouterr().out

    def test_list_rules_names_full_catalogue(self, capsys):
        assert repro_cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("DET001", "DET002", "DET003", "OBS001", "NUM001"):
            assert rule in out


class TestRepoIsClean:
    def test_lint_exits_zero_on_this_repo(self, capsys):
        """The CI gate: the checked-in tree has no active findings."""
        code = repro_cli.main(
            [
                "lint",
                str(REPO_ROOT / "src"),
                "--root",
                str(REPO_ROOT),
                "--error-on-findings",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, f"repro-stash lint found regressions:\n{out}"
        assert "0 finding(s)" in out
