"""The benchmark's two workloads: inputs from a seed, commands, checks.

Each workload is a fixed sequence of ``kelly-memory`` subcommands. The
workload seed sets every input the program sees (coefficients at a fixed
depth and hyperdiamond distance, the history, the simulation seeds and
the generated price file); the program receives only those inputs.
Every command carries a check that compares its output against the
pure-Python references in ``reference.py`` and returns the names of the
checks that failed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# Distance |w0 - 1/2| + sum |wi| of the generated coefficients. The fit
# workload sits so near the boundary that for about a quarter of the seeds
# (seed 1 among them) the least-squares point lands outside, and the
# constrained estimate runs projected gradient to bring it back.
ANALYTIC_DISTANCE = 0.45
FIT_DISTANCE = 0.49999

# Signs of the fit workload's lag weights. With them, the state that makes
# the next move near-certain leads to another state, so the process never
# sticks in one run and the regression sees every state.
FIT_LAG_SIGNS = (1.0, -1.0, 1.0)

# Share of generated prices that repeat the previous one (ties to drop).
TIE_SHARE = 0.05

# Largest |z| = |mean - analytic| / std_error accepted from simulate.
MAX_Z = 5.0

# Coefficient tolerance of the fit check at one million prices; it grows
# as 1/sqrt(prices) for smaller inputs, tracking the estimator's error.
FIT_TOL_AT_1M = 0.01

JSON_SIG = 12
CSV_SIG = 6

# Values named per failed check; the rest are counted.
MAX_LISTED = 3


@dataclass(frozen=True)
class Shapes:
    """Input sizes. The defaults are the benchmark's; tests use smaller ones."""

    scenario_n: int = 500
    kelly_n: int = 100_000
    sim_n: int = 30
    sim_short_n: int = 2
    paths: int = 1_000_000
    prices: int = 1_000_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its output text.

    ``output`` names the file the command writes with --out; the check
    reads it instead of stdout.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    output: Path | None = None


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    # Spans the traced run must see at least once; one that records no call
    # means a wrapper was bypassed, and is reported as missing.
    required_spans: tuple[str, ...]


def random_omega(rng: random.Random, m: int, distance: float) -> list[float]:
    """Coefficients (w0, ..., wm) at hyperdiamond distance ``distance``."""
    shares = [0.2 + rng.random() for _ in range(m + 1)]
    total = sum(shares)
    signed = [rng.choice((-1.0, 1.0)) * distance * s / total for s in shares]
    return [0.5 + signed[0]] + signed[1:]


def random_history(rng: random.Random, m: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(m)]


def game_flags(omega, history) -> list[str]:
    return [
        "--omega=" + ",".join(repr(w) for w in omega),
        "--history=" + ",".join("H" if x == 1 else "T" for x in history),
    ]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kelly-memory-bench/{workload}/{seed}")


def _json(text: str, label: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{label}: output is not JSON ({exc})"]


def _mismatches(label, pairs, sig) -> list[str]:
    """Messages for (name, printed, reference) triples outside printed precision."""
    bad = [
        f"{label}: {name} = {printed!r}, reference {ref!r}"
        for name, printed, ref in pairs
        if not reference.close(printed, ref, sig)
    ]
    if len(bad) > MAX_LISTED:
        bad = bad[:MAX_LISTED] + [f"{label}: {len(bad) - MAX_LISTED} more values off"]
    return bad


def check_scenario(omega, history, n_max) -> Callable[[str], list[str]]:
    label = f"scenario n={n_max}"
    refs = reference.scenario_rows(omega, history, n_max)

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != "n,elg_kstar,elg_kn,elg_kvec,kstar,kn":
            return [f"{label}: unexpected CSV header"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != n_max:
            return [f"{label}: {len(rows)} rows, expected {n_max}"]
        problems, pairs = [], []
        names = ("elg_kstar", "elg_kn", "elg_kvec", "kstar", "kn")
        for row, ref in zip(rows, refs):
            if len(row) != 6 or row[0] != str(ref[0]):
                return [f"{label}: malformed row {row!r}"]
            values = [float(v) for v in row[1:]]
            pairs += [(f"row {ref[0]} {k}", v, r) for k, v, r in zip(names, values, ref[1:])]
            elg_kstar, elg_kn, elg_kvec = values[:3]
            if not elg_kvec >= elg_kn >= elg_kstar:
                problems.append(f"{label}: dominance chain broken at n={ref[0]}")
        return _mismatches(label, pairs, CSV_SIG) + problems[:MAX_LISTED]

    return check


def check_kelly(omega, history, n) -> Callable[[str], list[str]]:
    label = f"kelly n={n}"
    ref = reference.kelly(omega, history, n)

    def check(text: str) -> list[str]:
        payload, problems = _json(text, label)
        if problems:
            return problems
        if sorted(payload) != sorted(ref) or len(payload["kvec"]) != n:
            return [f"{label}: unexpected keys or kvec length"]
        pairs = [(k, payload[k], ref[k]) for k in ("kstar", "kn", "kinf")]
        pairs += [(f"kvec[{i}]", v, r) for i, (v, r) in enumerate(zip(payload["kvec"], ref["kvec"]))]
        return _mismatches(label, pairs, JSON_SIG)

    return check


def check_simulate(omega, history, n, paths, seed) -> Callable[[str], list[str]]:
    label = f"simulate n={n}"
    ref = reference.standard_elgs(omega, history, n)

    def check(text: str) -> list[str]:
        payload, problems = _json(text, label)
        if problems:
            return problems
        if payload.get("paths") != paths or payload.get("seed") != seed:
            return [f"{label}: paths or seed not echoed"]
        stats = payload.get("policies", [])
        if [s.get("name") for s in stats] != list(ref):
            return [f"{label}: policies are not {list(ref)}"]
        pairs = [(f"{s['name']} analytic_elg", s["analytic_elg"], ref[s["name"]]) for s in stats]
        problems = _mismatches(label, pairs, JSON_SIG)
        for s in stats:
            se, gap = s["std_error"], abs(s["mean_log_growth"] - s["analytic_elg"])
            if not gap <= MAX_Z * se + 1e-13:
                problems.append(
                    f"{label}: {s['name']} Monte Carlo mean is {gap:.3g} from analytic, "
                    f"more than {MAX_Z:g} standard errors ({se:.3g})"
                )
        return problems

    return check


def check_moves(moves: list[int]) -> Callable[[str], list[str]]:
    expected = "".join("+1\n" if x == 1 else "-1\n" for x in moves)

    def check(text: str) -> list[str]:
        if text == expected:
            return []
        got = text.splitlines()
        want = expected.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return [f"ingest: {len(got)} moves, expected {len(want)}; first difference at move {first}"]

    return check


def check_estimate(omega, tol) -> Callable[[str], list[str]]:
    label = f"estimate m={len(omega) - 1}"

    def check(text: str) -> list[str]:
        payload, problems = _json(text, label)
        if problems:
            return problems
        fit = payload.get("omega", [])
        if len(fit) != len(omega) or payload.get("constrained") is not True:
            return [f"{label}: expected a constrained fit of {len(omega)} coefficients"]
        problems = [
            f"{label}: omega[{i}] = {w!r}, generated {t!r} (tolerance {tol:.4g})"
            for i, (w, t) in enumerate(zip(fit, omega))
            if not abs(w - t) <= tol
        ]
        if not reference.diamond_distance(fit) < 0.5:
            problems.append(f"{label}: estimate outside the hyperdiamond")
        if not math.isfinite(payload.get("rss", math.nan)):
            problems.append(f"{label}: rss is not finite")
        return problems

    return check


def write_prices(rng, omega, history, count, path: Path) -> list[int]:
    """Write ``count`` prices of the memory process to a CSV; return its moves.

    Prices move one cent per step from a start high enough that no walk
    of ``count`` steps reaches zero. A share TIE_SHARE of prices repeat
    the previous one; ``--tie drop`` must skip exactly those.
    """
    head_prob = {
        window: omega[0] + sum(w * x for w, x in zip(omega[1:], window))
        for window in itertools.product((1, -1), repeat=len(history))
    }
    uniform = rng.random
    ticks = 2 * count + 100
    window = tuple(history)
    moves = []
    lines = ["price", f"{ticks // 100}.{ticks % 100:02d}"]
    while len(lines) <= count:
        if uniform() >= TIE_SHARE:
            x = 1 if uniform() < head_prob[window] else -1
            moves.append(x)
            window = (x,) + window[:-1]
            ticks += x
        lines.append(f"{ticks // 100}.{ticks % 100:02d}")
    path.write_text("\n".join(lines) + "\n")
    return moves


def game(seed: int, workdir: Path, shapes: Shapes) -> Workload:
    """Every command that takes a game: the analytic table and fractions,
    then Monte Carlo at a per-step-bound and a per-block-bound shape."""
    rng = _rng("game", seed)
    omega3, hist3 = random_omega(rng, 3, ANALYTIC_DISTANCE), random_history(rng, 3)
    omega6, hist6 = random_omega(rng, 6, ANALYTIC_DISTANCE), random_history(rng, 6)
    n_s, n_k = shapes.scenario_n, shapes.kelly_n
    commands = [
        Command("scenario", ("scenario", *game_flags(omega3, hist3), "--n", str(n_s)),
                check_scenario(omega3, hist3, n_s)),
        Command("kelly", ("kelly", *game_flags(omega6, hist6), "--n", str(n_k)),
                check_kelly(omega6, hist6, n_k)),
    ]
    for m, n in ((3, shapes.sim_n), (1, shapes.sim_short_n)):
        omega, hist = random_omega(rng, m, ANALYTIC_DISTANCE), random_history(rng, m)
        sim_seed = rng.randrange(2**32)
        argv = ("simulate", *game_flags(omega, hist), "--n", str(n),
                "--paths", str(shapes.paths), "--seed", str(sim_seed))
        commands.append(Command(f"simulate n={n}", argv,
                                check_simulate(omega, hist, n, shapes.paths, sim_seed)))
    return Workload(
        commands=tuple(commands),
        required_spans=(
            "cli.main", "cli.cmd_scenario", "cli.cmd_kelly", "cli.cmd_simulate",
            "simulate.scenario_table", "simulate.monte_carlo_elg", "simulate.standard_policies",
            "simulate.sample_paths", "model.prob_sequence", "policy.kelly_horizon",
            "policy.kelly_timevarying", "policy.elg_time_invariant", "policy.elg_time_varying",
        ),
    )


def fit(seed: int, workdir: Path, shapes: Shapes) -> Workload:
    rng = _rng("fit", seed)
    omega, hist = random_omega(rng, 3, FIT_DISTANCE), random_history(rng, 3)
    omega = omega[:1] + [s * abs(w) for s, w in zip(FIT_LAG_SIGNS, omega[1:])]
    prices, moves_file = workdir / "prices.csv", workdir / "moves.txt"
    moves = write_prices(rng, omega, hist, shapes.prices, prices)
    tol = FIT_TOL_AT_1M * max(1.0, math.sqrt(1_000_000 / shapes.prices))
    return Workload(
        commands=(
            Command("ingest", ("ingest", str(prices), "--tie", "drop", "--out", str(moves_file)),
                    check_moves(moves), output=moves_file),
            Command("estimate", ("estimate", str(moves_file), "--m", "3", "--constrained"),
                    check_estimate(omega, tol)),
        ),
        required_spans=(
            "cli.main", "cli.cmd_ingest", "cli.cmd_estimate", "estimate.read_prices",
            "estimate.ingest_prices", "estimate.read_outcomes", "estimate.build_regression",
            "estimate.ols_fit", "estimate.constrained_fit",
        ),
    )


WORKLOADS = {"game": game, "fit": fit}


def build(name: str, seed: int, workdir: Path, shapes: Shapes = Shapes()) -> Workload:
    return WORKLOADS[name](seed, workdir, shapes)
