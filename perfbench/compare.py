"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For every (workload, metric) pair found in both sets it prints each
side's median and quartiles over runs, the ratio of the medians, and a
verdict:

- improved: the change wins at least nine tenths of the pairs of runs
  (ties count for neither) and its median is better than the base's by
  more than the base's quartile distance;
- worse: its median is worse than the base's by more than the metric's
  bound from BENCHMARK.json; for a metric with no bound, it loses nine
  tenths of the pairs by more than the base's quartile distance;
- unresolved: the quartile distance of either side, as a share of its
  median, is wider than the bound, and not every change run beats every
  base run;
- no change: otherwise.

Runs pair up by workload seed; a run whose seed the other set lacks
counts in the medians but in no pair. Metrics in the records but not in
BENCHMARK.json (error_rate) are taken as lower-is-better with a bound of
zero. The tool only reads.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Share of pairs a side must win before a difference counts.
PAIR_SHARE = 0.9


def load(path: Path) -> dict:
    """Records grouped by (workload, trace), in file order."""
    groups = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            groups[record["workload"], record["trace"]].append(record)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(distance, median):
    if median:
        return distance / abs(median)
    return 0.0 if distance == 0 else math.inf


def verdict(base, change, pairs, better, bound):
    """Verdict for one metric; ``pairs`` are (base, change) values of matched runs."""

    def gain(b, c):
        return b - c if better == "lower" else c - b

    q1b, mb, q3b = quartiles(base)
    q1c, mc, q3c = quartiles(change)
    clear = abs(mc - mb) > q3b - q1b
    wins = sum(gain(b, c) > 0 for b, c in pairs)
    losses = sum(gain(b, c) < 0 for b, c in pairs)
    if pairs and wins >= PAIR_SHARE * len(pairs) and gain(mb, mc) > 0 and clear:
        return "improved"
    if bound is None:
        lost = pairs and losses >= PAIR_SHARE * len(pairs) and gain(mb, mc) < 0 and clear
        return "worse" if lost else "no change"
    if -gain(mb, mc) > bound * abs(mb):
        return "worse"
    spread = max(_share(q3b - q1b, mb), _share(q3c - q1c, mc))
    if spread > bound and not all(gain(b, c) > 0 for b in base for c in change):
        return "unresolved"
    return "no change"


def pair_runs(base_runs, change_runs):
    by_seed = {r["seed"]: r for r in change_runs}
    return [(r, by_seed[r["seed"]]) for r in base_runs if r["seed"] in by_seed]


def compare(base: dict, change: dict, spec: dict) -> list[tuple]:
    """Rows (workload, metric, base quartiles, change quartiles, verdict)."""
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(base) & set(change)):
        base_runs, change_runs = base[key], change[key]
        names = [n for n in base_runs[0]["metrics"] if n in change_runs[0]["metrics"]]
        for name in names:
            better, bound = rules.get(name, ("lower", 0.0))
            b = [r["metrics"][name] for r in base_runs]
            c = [r["metrics"][name] for r in change_runs]
            if None in b or None in c:
                rows.append((key[0], name, None, None, "missing"))
                continue
            pairs = [(x["metrics"][name], y["metrics"][name]) for x, y in pair_runs(base_runs, change_runs)]
            rows.append((key[0], name, (quartiles(b), len(b)), (quartiles(c), len(c)),
                         verdict(b, c, pairs, better, bound)))
    return rows


def _side(side):
    if side is None:
        return "missing"
    (q1, median, q3), n = side
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.change), spec)
    print(f"{'workload':11s} {'metric':34s} {'base median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'change/base':>11s}  verdict")
    for workload, name, b, c, result in rows:
        ratio = f"{c[0][1] / b[0][1]:.4f}" if b and c and b[0][1] else "-"
        print(f"{workload:11s} {name:34s} {_side(b):>38s} {_side(c):>38s} {ratio:>11s}  {result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
