"""The test suite's own configuration."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
