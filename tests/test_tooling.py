"""The test configuration itself: a failing test is reported and the run goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # A DeprecationWarning raised inside hypothesis's report hook, turned
    # into an error by filterwarnings, used to end the run with exit 3:
    # no falsifying example, and no later test run.
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(ROOT), "-p", "no:cacheprovider", "-v", str(path),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "test_after PASSED" in proc.stdout
