"""The test suite's own configuration and the defect census's table."""

import ast
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_a_failing_hypothesis_example_does_not_end_the_run(tmp_path):
    """Under the repo's ini (every warning an error), a failing `@given`
    test is reported as one failure and the next test still runs: the
    hypothesis plugin's report hook must not end the session with an
    INTERNALERROR."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == pytest.ExitCode.TESTS_FAILED, child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout.splitlines()[-1]
    assert "INTERNALERROR" not in child.stdout + child.stderr


def test_every_planted_defect_still_finds_its_line_and_its_killer():
    """Each defect census entry's `old` line is in its file exactly once
    (what `plant` needs), and its expected killer (or each of the pair it
    names with and without the pins) is an equivalence note or an existing
    test file and function; checked without running a suite."""
    spec = importlib.util.spec_from_file_location("defect_census",
                                                  ROOT / "tools" / "defect_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    for name, (file, old, _, killers) in census.DEFECTS.items():
        lines = (ROOT / file).read_text().split("\n")
        assert lines.count(old) == 1, (name, file, old)
        for expected in killers if isinstance(killers, tuple) else (killers,):
            if expected.startswith("equivalent:"):
                continue
            test_file, _, test = expected.partition("::")
            assert (ROOT / test_file).is_file(), (name, expected)
            if test:
                tree = ast.parse((ROOT / test_file).read_text())
                names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
                assert test in names, (name, expected)
