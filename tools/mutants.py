"""Mutation sweep: change one operator at a time and see whether the tests notice.

    python tools/mutants.py src/kelly_memory/model.py [MODULE ...] [--root DIR]

Each mutant swaps one comparison (< and <=, > and >=, == and !=) or one
arithmetic operator (+ and -, * and /) of the module, written back with
``ast.unparse``. The project (everything but .git and caches) is copied to
a temporary directory and every mutant is written and tested there, so the
checkout is never edited. A mutant first meets the module's own test file,
tests/test_<module>.py, plus test_acceptance.py and test_contract.py; only a
mutant that passes those meets the whole suite under tests/. A mutant that
still passes is a survivor, unless EQUIVALENT lists it with the reason it
cannot change what the module does beyond rounding.

Not part of the test suite: on two CPUs, simulate.py took about 16
minutes alone, and policy.py and model.py 29 together beside it;
estimate.py took 7 alone. Exits 1 when a survivor is not listed as equivalent.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SUBSET = ("test_acceptance.py", "test_contract.py")
# This test checks EQUIVALENT against the module's source, so it fails on
# every listed mutant; the full-suite runs leave it out.
CHECKS_EQUIVALENT = "test_tooling.py::test_every_equivalent_mutant_is_a_mutant_of_its_module"
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_work"
)
# A mutant may turn a bounded request into an unbounded one.
MEMORY_LIMIT = 3 * 2**30

# A mutant's key, as ``keyed`` makes it: why the mutant behaves as the
# module does.
EQUIVALENT = {
    ("src/kelly_memory/estimate.py", "_project_l1_ball", "a.sum() <= radius", "a.sum() < radius"):
        "at a.sum() == radius the sorted route's kept level is u[0], so every entry comes back"
        " as a up to rounding",
    ("src/kelly_memory/estimate.py", "_project_l1_ball",
     "cd + radius > ranks * d", "cd + radius >= ranks * d"):
        "at a tie cd[r] + radius == (r + 1) * d[r], ranks r and r - 1 give the same kept level"
        " d[r] up to rounding",
    ("src/kelly_memory/policy.py", "PayoffModel.__post_init__",
     "abs(sum(self.frequencies) - 1.0) > 1e-12", "abs(sum(self.frequencies) - 1.0) >= 1e-12"):
        "a sum within 1e-12 of 1 differs from 1 by a multiple of 2**-53, which 1e-12 is not",
    ("src/kelly_memory/policy.py", "optimize_multioutcome",
     "_elg_derivative(payoff, mid) > 0.0", "_elg_derivative(payoff, mid) >= 0.0"):
        "at a zero of the derivative mid is the maximizer, and either half keeps it, so the"
        " result is still within _SEARCH_TOL of it",
    ("src/kelly_memory/policy.py", "optimize_multioutcome",
     "hi - lo < _SEARCH_TOL", "hi - lo <= _SEARCH_TOL"):
        "stopping at a width of exactly _SEARCH_TOL, one halving early, still returns a"
        " point within _SEARCH_TOL of the maximizer",
}


def mutants(tree: ast.Module):
    """(node, index, new op, qualname) for every operator SWAPS can change; ``index``
    is the place in a comparison's ``ops``, None for an arithmetic operator."""
    def walk(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            if isinstance(child, ast.Compare):
                for i, op in enumerate(child.ops):
                    if type(op) in SWAPS:
                        yield child, i, SWAPS[type(op)](), name
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and type(child.op) in SWAPS:
                yield child, None, SWAPS[type(child.op)](), name
            yield from walk(child, name)

    yield from walk(tree, "<module>")


def _swap(node, index, op):
    """Put ``op`` in place of the node's operator; returns the one it replaced."""
    if index is None:
        old, node.op = node.op, op
    else:
        old, node.ops[index] = node.ops[index], op
    return old


def mutant(tree: ast.Module, node, index, new) -> tuple[str, str, str]:
    """(expression, mutated expression, mutated module source); ``tree`` is left as it was."""
    before = ast.unparse(node)
    old = _swap(node, index, new)
    try:
        return before, ast.unparse(node), ast.unparse(tree)
    finally:
        _swap(node, index, old)


def keyed(module: str, tree: ast.Module):
    """(key, line, mutated module source) for every mutant of ``module``, parsed as ``tree``.

    The key is EQUIVALENT's (module, function, expression, mutated
    expression), with "#2", "#3", ... on the function's name for the
    second and later mutants of the same expression in it.
    """
    seen = Counter()
    for node, index, new, qualname in mutants(tree):
        before, after, text = mutant(tree, node, index, new)
        seen[qualname, before, after] += 1
        if seen[qualname, before, after] > 1:
            qualname += f"#{seen[qualname, before, after]}"
        yield (module, qualname, before, after), node.lineno, text


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(root: Path, paths, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for pytest on ``paths`` in the copy at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, timeout=timeout,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def sweep(copy: Path, module: str, out) -> list[tuple]:
    """Test every mutant of ``module`` in ``copy``; returns the survivors' keys."""
    path = copy / module
    source = path.read_text()
    tree = ast.parse(source)
    tests = copy / "tests"
    subset = [tests / f"test_{path.stem}.py"] + [tests / name for name in SUBSET]
    subset = [str(p) for p in subset if p.exists()]
    full = [str(tests), "--deselect", f"tests/{CHECKS_EQUIVALENT}"]

    # The unmutated module, as ast.unparse writes it, must pass: a failure
    # there would count every mutant as killed.
    plain = ast.unparse(tree)
    path.write_text(plain)
    start = time.perf_counter()
    if run_tests(copy, subset, None) != "passed":
        raise SystemExit(f"{module}: the tests fail on the unmutated module")
    # A mutant may loop where the module halts; five times the unmutated run
    # is a hang.
    timeout = 5 * (time.perf_counter() - start) + 30
    full_checked = False

    found = list(keyed(module, tree))
    print(f"{module}: {len(found)} mutants", file=out, flush=True)
    survivors = []
    for key, line, text in found:
        label = f"{line}: {key[1]}: {key[2]} -> {key[3]}"
        path.write_text(text)
        result = run_tests(copy, subset, timeout)
        if result == "passed":
            if not full_checked:  # once, before the first full run
                path.write_text(plain)
                if run_tests(copy, full, None) != "passed":
                    raise SystemExit(f"{module}: the full suite fails on the unmutated module")
                full_checked = True
                path.write_text(text)
            result = run_tests(copy, full, 4 * timeout)
            if result == "passed":
                reason = EQUIVALENT.get(key)
                if reason:
                    print(f"  equivalent {label}: {reason}", file=out, flush=True)
                else:
                    print(f"  SURVIVED {label}", file=out, flush=True)
                    survivors.append(key)
                continue
            result += " by the full suite"
        print(f"  killed ({result}) {label}", file=out, flush=True)
    path.write_text(source)
    return survivors


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the root")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="project root holding src/ and tests/ (default: this checkout)")
    args = parser.parse_args(argv)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "project"
        shutil.copytree(args.root, copy, ignore=IGNORE)
        for module in args.modules:
            survivors += sweep(copy, module, out)
    print(f"{len(survivors)} survivors", file=out, flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
