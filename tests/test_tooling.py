"""The test tooling itself: a failing test is reported and the run goes on,
every span the benchmark requires names a function it can trace, the
README's library example runs and its bytes-per-path figure is the
budget's charge, the input-contract test covers every export, and the
mutation sweep, the output comparison and the line count in tools/ run."""

import ast
import importlib
import inspect
import io
import re
import shutil
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


def test_readme_library_example_states_what_it_computes():
    # A removed or renamed public name used to break the README silently.
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):  # a line whose comment states its value
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    horizon, fractions, elg_constant, elg_vector = values
    assert horizon == pytest.approx(0.4, abs=1e-12)
    assert fractions.tolist() == pytest.approx([0.5, 0.3], abs=1e-12)
    assert not fractions.flags.writeable
    assert elg_constant == pytest.approx(0.0823, abs=5e-5)
    assert elg_vector == pytest.approx(0.0883, abs=5e-5)


def test_readme_bytes_per_path_is_the_budget_charge(monkeypatch):
    # The README states in words what check_budget charges per path for
    # the standard bettors (two constants, one vector); the two must agree.
    from kelly_memory import simulate

    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.findall(r"three standard bettors hold (\d+) bytes per path", text)
    charged = []
    monkeypatch.setattr(
        simulate, "_check_run", lambda n, paths, per_path, held: charged.append(per_path)
    )
    simulate.check_budget(255, 1, constants=2, vectors=1)
    assert stated == [str(charged[0])]


def test_readme_simulate_sizes_are_the_constants():
    # The README states the sampler's block and piece sizes and the
    # statistics' leaf in words; each must be the constant it names.
    from kelly_memory import simulate

    text = " ".join((ROOT / "README.md").read_text().split())

    def stated(pattern):
        return [int(number.replace(",", "")) for number in re.findall(pattern, text)]

    assert stated(r"blocks of ([\d,]+)") == [simulate.BLOCK_PATHS]
    assert stated(r"at most ([\d,]+) words") == [simulate.PIECE_WORDS] * 2
    assert stated(r"pieces of at most ([\d,]+) paths") == [simulate.LEAF_PATHS]
    assert stated(r"a (\d+) KiB statistics buffer") == [8 * simulate.LEAF_PATHS // 2**10]


def test_contract_table_names_every_public_callable():
    # A new export fails here until test_contract.CALLS says how to call it.
    import kelly_memory
    from test_contract import CALLS

    public = {
        name
        for name, value in vars(kelly_memory).items()
        if callable(value)
        and not name.startswith("_")
        and not (isinstance(value, type) and issubclass(value, BaseException))
    }
    assert sorted(CALLS) == sorted(public)


def test_every_equivalent_mutant_is_a_mutant_of_its_module(monkeypatch):
    # An entry whose expression a refactor removed or renumbered would no
    # longer match, and the sweep would count that mutant as a survivor.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    mutants = importlib.import_module("mutants")
    found = set()
    for module in {key[0] for key in mutants.EQUIVALENT}:
        tree = ast.parse((ROOT / module).read_text())
        found.update(key for key, _, _ in mutants.keyed(module, tree))
    assert sorted(set(mutants.EQUIVALENT) - found) == []


TOY = """
def scale(x):
    if x < 0:
        return 0
    return x * 2


def shift(x):
    if x > 9:
        return x
    return x + 1
"""

TOY_TESTS = {
    "test_toy.py": "import toy\n\ndef test_scale():\n    assert toy.scale(3) == 6\n",
    "test_other.py": "import toy\n\ndef test_shift():\n    assert toy.shift(1) == 2\n",
}


def test_mutation_sweep_on_a_toy_module(tmp_path, monkeypatch):
    # tools/mutants.py sits outside the suite; this keeps it from rotting.
    # Of the toy's four mutants, x * 2 is killed by the module's own tests
    # and x + 1 by the whole suite only. x < 0 -> x <= 0 is equivalent,
    # since scale(0) is 0 either way, and x > 9 -> x >= 9 survives.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the toy needs no plugin
    mutants = importlib.import_module("mutants")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    for name, text in TOY_TESTS.items():
        (tmp_path / "tests" / name).write_text(text)
    key = ("src/toy.py", "scale", "x < 0", "x <= 0")
    monkeypatch.setitem(mutants.EQUIVALENT, key, "scale(0) is 0 on either branch")
    out = io.StringIO()
    assert mutants.main(["--root", str(tmp_path), "src/toy.py"], out) == 1
    assert out.getvalue().splitlines() == [
        "src/toy.py: 4 mutants",
        "  equivalent 3: scale: x < 0 -> x <= 0: scale(0) is 0 on either branch",
        "  killed (failed) 5: scale: x * 2 -> x / 2",
        "  SURVIVED 9: shift: x > 9 -> x >= 9",
        "  killed (failed by the full suite) 11: shift: x + 1 -> x - 1",
        "1 survivors",
    ]
    assert (tmp_path / "src" / "toy.py").read_text() == TOY  # the checkout is never edited


def test_same_output_reports_a_changed_printed_constant(tmp_path, monkeypatch):
    # tools/same_output.py compares what two trees print for the benchmark's
    # commands. This tree against itself differs nowhere; a copy that prints
    # CSV with 7 digits, not 6, differs in the one CSV command, scenario,
    # first at its first row under the header.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    same_output = importlib.import_module("same_output")
    workloads = importlib.import_module("workloads")
    shapes = workloads.Shapes(
        scenario_n=8, kelly_n=50, sim_n=5, sim_short_n=2, paths=100, prices=2000
    )
    src = ROOT / "src"
    copy = tmp_path / "copy"
    shutil.copytree(src, copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "kelly_memory" / "cli.py"
    text = cli.read_text()
    assert text.count("CSV_SIG_DIGITS = 6\n") == 1
    cli.write_text(text.replace("CSV_SIG_DIGITS = 6\n", "CSV_SIG_DIGITS = 7\n"))
    assert same_output.package_dir(str(copy)) == copy / "src"
    assert same_output.seed_list("1-3,7") == [1, 2, 3, 7]
    out = io.StringIO()
    assert same_output.differences(src, src, [1], ("game", "fit"), shapes, out) == 0
    assert out.getvalue().splitlines() == ["0 of 6 commands differ"]
    out = io.StringIO()
    assert same_output.differences(src, copy / "src", [1], ("game", "fit"), shapes, out) == 1
    assert out.getvalue().splitlines() == [
        "game seed 1 scenario: stdout differ",
        "  old line 2: 1,-0.305988,0.0920069,0.0920069,0.439064,-0.422252",
        "  new line 2: 1,-0.3059884,0.09200693,0.09200693,0.439064,-0.4222523",
        "1 of 6 commands differ",
    ]
    assert same_output.first_difference(b"a\nb\n", b"a\nb\nc\n") == [
        "  old line 3: <no such line>", "  new line 3: c"
    ]


LINECOUNT_TOY = '''x = 1
TEXT = """a string
that is not a docstring"""


def f(y):
    return y + x
'''
LINECOUNT_DOCUMENTED = LINECOUNT_TOY.replace(
    "x = 1\n", '"""A toy."""\n\nx = 1  # a comment after code\n'
).replace("    return", '    """One line,\n    and two."""\n    # a comment\n    return')


def test_linecount_counts_docstrings_and_comments_in_the_total_only(tmp_path, monkeypatch):
    # tools/linecount.py gives each change's size. A docstring, a comment
    # and a blank line move a module's total and leave its code-only count;
    # a multi-line string that is not a docstring is code.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    linecount = importlib.import_module("linecount")
    trees = {"old": {"toy.py": LINECOUNT_TOY}, "new": {"toy.py": LINECOUNT_DOCUMENTED,
                                                       "added.py": "y = 2\n"}}
    for tree, modules in trees.items():
        package = tmp_path / tree / "src" / "kelly_memory"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
    assert linecount.count(LINECOUNT_TOY) == (7, 5)
    assert linecount.count(LINECOUNT_DOCUMENTED) == (12, 5)
    out = io.StringIO()
    assert linecount.main([str(tmp_path / "old"), str(tmp_path / "new")], out) == 0
    assert [line.split() for line in out.getvalue().splitlines()] == [
        ["module", "total", "old", "new", "diff", "code", "old", "new", "diff"],
        ["added.py", "0", "1", "+1", "0", "1", "+1"],
        ["toy.py", "7", "12", "+5", "5", "5", "+0"],
        ["total", "7", "13", "+6", "5", "6", "+1"],
    ]
