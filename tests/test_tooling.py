"""The test tooling itself: a failing test is reported and the run goes on,
and every span the benchmark requires names a function it can trace."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["game", "fit"])
def test_benchmark_spans_name_public_functions(workload, tmp_path, monkeypatch):
    # perfbench traces a span "layer.name" by wrapping the public function
    # kelly_memory.layer.name, so a renamed or deleted one used to show up
    # only as a missing span in a benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    shapes = workloads.Shapes(
        scenario_n=8, kelly_n=50, sim_n=5, sim_short_n=2, paths=100, prices=2000
    )
    spans = workloads.build(workload, 1, tmp_path, shapes).required_spans
    assert spans
    for span in spans:
        layer, name = span.split(".")
        module = importlib.import_module(f"kelly_memory.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
        assert not name.startswith("_"), span
