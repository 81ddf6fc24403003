"""Run the benchmark's commands under two source trees and compare their output.

    python tools/same_output.py OLD_SRC NEW_SRC [--seeds 1-10] [--workload game|fit|all]

OLD_SRC and NEW_SRC are project roots, or the ``src`` directories under
them. The commands are those of the perfbench workloads (perfbench/
workloads.py, imported read-only), built once per seed in a temporary
directory. Each tree runs every command as ``python -m kelly_memory`` with
that tree alone on PYTHONPATH, in the workload's order, so a command that
reads an earlier command's ``--out`` file reads the one its own tree
wrote. Exit code, stdout, stderr and the ``--out`` file must be the same
bytes under both trees. One line is printed per command that differs,
followed, when its stdout differs, by the first differing stdout line of
each tree; exits 1 if any does, 0 otherwise. Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def package_dir(tree: str) -> Path:
    """The directory holding ``kelly_memory`` for a project root or its ``src``."""
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "kelly_memory" / "__main__.py").is_file():
            return candidate
    raise SystemExit(f"{tree}: no kelly_memory package here or under src/")


def seed_list(text: str) -> list[int]:
    """Seeds from "1-10", "3" or "1,4,7-9"."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run(commands, src: Path, workdir: Path) -> list[tuple]:
    """(exit code, stdout, stderr, --out bytes or None) of each command, in order."""
    env = {k: v for k, v in os.environ.items() if k != "KELLY_MEMORY_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for cmd in commands:
        if cmd.output is not None and cmd.output.exists():
            cmd.output.unlink()  # never read the other tree's file
        proc = subprocess.run(
            [sys.executable, "-m", "kelly_memory", *cmd.argv],
            capture_output=True, env=env, cwd=workdir,
        )
        written = cmd.output.read_bytes() if cmd.output and cmd.output.exists() else None
        results.append((proc.returncode, proc.stdout, proc.stderr, written))
    return results


def first_difference(a: bytes, b: bytes) -> list[str]:
    """The first line at which two outputs differ, as one line for each side."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    i = next((i for i, pair in enumerate(zip(a_lines, b_lines)) if pair[0] != pair[1]),
             min(len(a_lines), len(b_lines)))
    return [
        f"  {side} line {i + 1}: "
        + (lines[i].decode(errors="replace") if i < len(lines) else "<no such line>")
        for side, lines in (("old", a_lines), ("new", b_lines))
    ]


def differences(old: Path, new: Path, seeds, names, shapes=None, out=None) -> int:
    """Print one line per command whose output differs; returns how many differ."""
    out = out or sys.stdout
    sys.path[:0] = [str(ROOT / "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[0]
    shapes = shapes or workloads.Shapes()
    fields = ("exit code", "stdout", "stderr", "--out file")
    count = total = 0
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
                workdir = Path(tmp)
                commands = workloads.build(name, seed, workdir, shapes).commands
                pairs = zip(commands, run(commands, old, workdir), run(commands, new, workdir))
                for cmd, a, b in pairs:
                    total += 1
                    differ = [field for field, x, y in zip(fields, a, b) if x != y]
                    if differ:
                        count += 1
                        lines = [f"{name} seed {seed} {cmd.label}: {', '.join(differ)} differ"]
                        if "stdout" in differ:
                            lines += first_difference(a[1], b[1])
                        print(*lines, sep="\n", file=out, flush=True)
    print(f"{count} of {total} commands differ", file=out, flush=True)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the first tree: a project root or its src/")
    parser.add_argument("new", help="the second tree")
    parser.add_argument("--seeds", default="1-10", help='workload seeds, e.g. "1-10" or "1,3"')
    parser.add_argument("--workload", choices=("game", "fit", "all"), default="all")
    args = parser.parse_args(argv)
    names = ("game", "fit") if args.workload == "all" else (args.workload,)
    old, new = package_dir(args.old), package_dir(args.new)
    return 1 if differences(old, new, seed_list(args.seeds), names) else 0


if __name__ == "__main__":
    sys.exit(main())
