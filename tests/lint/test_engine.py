"""Suppression and rule selection."""

import textwrap

from repro.lint import run_lint
from repro.lint.engine import line_suppressions

from .conftest import codes, lint

BAD_ECC = textwrap.dedent(
    """
    import numpy as np

    def scratch(n):
        return np.zeros(n)
    """
).lstrip()


class TestNoqa:
    def test_line_suppression_parsing(self):
        assert line_suppressions("x = 1  # repro: noqa[DET002]") == {"DET002"}
        assert line_suppressions("x = 1  # repro: noqa[DET002, NUM001]") == {
            "DET002",
            "NUM001",
        }
        assert line_suppressions("x = 1  # noqa") == set()
        assert line_suppressions("x = 1") == set()

    def test_noqa_suppresses_only_named_rule(self, project):
        root = project({
            "src/repro/ecc/kernel.py": textwrap.dedent(
                """
                import numpy as np

                def scratch(n):
                    return np.zeros(n)  # repro: noqa[NUM001] scratch buffer, cast downstream

                def ids(n):
                    return np.arange(n)  # repro: noqa[DET003] wrong code, stays active
                """
            ).lstrip(),
        })
        result = run_lint([root / "src"], root=root)
        assert codes(result.findings) == ["NUM001"]
        assert result.findings[0].line == 7
        assert [f.line for f in result.suppressed] == [4]
        assert result.suppressed[0].suppressed is True


class TestSelection:
    def test_select_restricts_rules(self, project):
        root = project({
            "src/repro/ecc/kernel.py": BAD_ECC,
            "src/repro/experiments/bad.py": (
                "import random\n\ndef pick(rows):\n"
                "    return random.choice(rows)\n"
            ),
        })
        # Findings sort by path: ecc/kernel.py precedes experiments/bad.py.
        assert codes(lint(root)) == ["NUM001", "DET001"]
        assert codes(lint(root, select=["NUM001"])) == ["NUM001"]
        assert codes(lint(root, ignore=["NUM001"])) == ["DET001"]

    def test_unknown_rule_rejected(self, project):
        root = project({"src/repro/ecc/kernel.py": BAD_ECC})
        try:
            lint(root, select=["NOPE999"])
        except ValueError as exc:
            assert "NOPE999" in str(exc)
        else:
            raise AssertionError("expected ValueError for unknown rule")
