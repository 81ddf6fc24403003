"""Count the package's lines in two project trees, per module.

    python tools/linecount.py OLD NEW

OLD and NEW are project roots (the directories holding ``src/``). For
every module of ``src/kelly_memory`` in either tree, prints its total
lines and its code-only lines in each tree, then the totals and their
differences. A code-only line is one that is not blank, holds only a
comment, or lies within a docstring: the first string statement of a
module, class or function. Stdlib only (``ast`` and ``tokenize``).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src", "kelly_memory")
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def counts(root: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (total, code-only)} for the package under ``root``."""
    return {
        path.name: count(path.read_text())
        for path in sorted((root / PACKAGE).glob("*.py"))
    }


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="project root of the old tree")
    parser.add_argument("new", type=Path, help="project root of the new tree")
    args = parser.parse_args(argv)
    old, new = counts(args.old), counts(args.new)
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0))) for name in sorted({*old, *new})]
    rows.append(("total", *(tuple(map(sum, zip(*side.values()))) for side in (old, new))))
    print(f"{'module':<14}{'total old':>10}{'new':>6}{'diff':>6}"
          f"{'code old':>10}{'new':>6}{'diff':>6}", file=out)
    for name, (total_old, code_old), (total_new, code_new) in rows:
        print(f"{name:<14}{total_old:>10}{total_new:>6}{total_new - total_old:>+6}"
              f"{code_old:>10}{code_new:>6}{code_new - code_old:>+6}", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
