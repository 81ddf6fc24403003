"""Command-line front end.

Subcommands: kelly (optimal fractions), elg (evaluate a policy), simulate
(Monte Carlo), scenario (three-bettor comparison table), estimate (fit
coefficients from outcomes), ingest (prices to +1/-1 moves). Output is
JSON or CSV on stdout, or written atomically to --out. Exit codes: 0
success, 2 invalid input, a request the process cannot allocate, or a
stdout that is closed or whose reader has gone, 3 numerical failure.

The console script and ``python -m kelly_memory`` run ``entry_point``,
which ends the process with ``os._exit`` once ``main`` has returned and
stdout and stderr are flushed. That skips the interpreter's teardown,
about 20 ms of module cleanup and garbage collection of what numpy's
import left, in runs whose own work may take less. ``main`` returns
normally, for callers in the same process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import estimate, model, policy, simulate
from .errors import InputError, KellyMemoryError, NumericalError

JSON_SIG_DIGITS = 12
CSV_SIG_DIGITS = 6

# CSV table headers that differ from the record's keys.
CSV_COLUMN_NAMES = {"name": "policy"}

SEED_ENV_VAR = "KELLY_MEMORY_SEED"


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"{flag} expects a comma-separated list of numbers, got {text!r}")


def _parse_history(text: str) -> model.History:
    tokens = text.replace(",", " ").split()
    values = []
    for tok in tokens:
        upper = tok.upper()
        if upper in ("H", "+1", "1"):
            values.append(1)
        elif upper in ("T", "-1"):
            values.append(-1)
        else:
            raise InputError(f"--history tokens must be +1/-1 or H/T, got {tok!r}")
    if not values:
        raise InputError("--history needs at least one token")
    return model.History(tuple(values))


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"{SEED_ENV_VAR}={env!r} is not an integer")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def render(record: dict, fmt: str, precision: int | None) -> str:
    """Write a command's record as one JSON line or as CSV; the CLI's one output rule.

    The record holds floats, ints, bools, strings, float sequences and at
    most one table, a dict of equal-length columns (lists or arrays).
    Floats are rounded to ``precision`` significant digits (default
    JSON_SIG_DIGITS or CSV_SIG_DIGITS); a non-finite one raises
    NumericalError, so no NaN or Infinity is printed. Every value goes
    through texts, one column at a time, so each column's distinct floats
    are formatted once. JSON prints a table as a list of row objects. CSV
    prints the table, if there is one, and leaves out the other values.
    Otherwise it prints one name,value line per number: a sequence x as
    x_0, x_1, ..., a bool as true/false, and no strings.
    """
    default = JSON_SIG_DIGITS if fmt == "json" else CSV_SIG_DIGITS
    text = f"{{:.{precision or default}g}}".format

    def texts(column) -> list[str]:
        """The printed text of each value of a column; a scalar is a column of one.

        Each distinct float is formatted once, told apart by bit pattern so
        that 0.0 and -0.0 stay apart. Ints, bools and strings go one by one. A
        float that is not finite, or whose JSON text rounds to infinity,
        raises NumericalError.
        """
        values = np.atleast_1d(column)
        kind = values.dtype.kind
        if kind != "f":
            # An int's JSON text is its str, and json.dumps is ten times slower.
            plain = kind in "iu" or (fmt == "csv" and kind != "b")
            return list(map(str if plain else json.dumps, values.tolist()))
        bits, index = np.unique(values.view(np.int64), return_inverse=True)
        distinct = bits.view(float).tolist()
        if fmt == "json":
            try:
                # One json.dumps call: one per value costs four times as much.
                out = json.dumps(list(map(float, map(text, distinct))), allow_nan=False)
            except ValueError:
                msg = "result is not finite, so it has no JSON form"
                raise NumericalError(msg) from None
            out = out[1:-1].split(", ")
        else:
            bad = [v for v in distinct if not math.isfinite(v)]
            if bad:
                raise NumericalError(f"result {bad[0]} is not finite")
            out = list(map(text, distinct))
        return [out[i] for i in index.tolist()]

    if fmt == "json":
        # The text json.dumps(record) would give, with its default separators,
        # joined once at the end. A table's rows are built as a list, so its
        # column texts are freed before the rows are joined.
        parts = ["{"]
        for i, (key, v) in enumerate(record.items()):
            parts += [", " if i else "", json.dumps(key), ": "]
            if isinstance(v, dict):
                keys = [json.dumps(k) + ": " for k in v]
                rows = [
                    "{" + ", ".join(map(str.__add__, keys, row)) + "}"
                    for row in zip(*map(texts, v.values()))
                ]
                parts += ["[", ", ".join(rows), "]"]
            elif isinstance(v, (list, tuple, np.ndarray)):
                parts += ["[", ", ".join(texts(v)), "]"]
            else:
                parts += texts(v)
        parts.append("}\n")
        return "".join(parts)

    table = next((v for v in record.values() if isinstance(v, dict)), None)
    if table is not None:
        lines = [",".join(CSV_COLUMN_NAMES.get(key, key) for key in table)]
        lines += map(",".join, zip(*map(texts, table.values())))
    else:
        lines = ["name,value"]
        for name, v in record.items():
            if isinstance(v, (list, tuple, np.ndarray)):
                lines += [f"{name}_{i},{t}" for i, t in enumerate(texts(v))]
            elif not isinstance(v, str):
                lines += [f"{name},{t}" for t in texts(v)]
    lines.append("")
    return "\n".join(lines)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # file descriptor 1 was closed when Python started
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        return
    target = Path(out)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".kelly-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _game_spec(args) -> model.GameSpec:
    params = model.validate_params(_parse_float_list(args.omega, "--omega"))
    history = _parse_history(args.history)
    return model.GameSpec(params=params, history=history, n=args.n)


def _nat_scale(args) -> float:
    return 1.0 / math.log(2.0) if getattr(args, "bits", False) else 1.0


def cmd_kelly(args) -> str:
    spec = _game_spec(args)
    kstar = policy.kelly_limit(spec.params)
    record = {
        "kstar": kstar,
        "kn": policy.kelly_horizon(spec),
        "kinf": kstar,
        "kvec": policy.kelly_timevarying(spec).fractions,
    }
    return render(record, args.format, args.precision)


def _policy_from_fractions(ks: list[float], n: int) -> policy.BettorPolicy:
    if len(ks) == 1:
        return policy.BettorPolicy.constant(ks[0])
    if len(ks) == n:
        return policy.BettorPolicy.varying(ks)
    raise InputError(f"--k needs 1 or {n} fractions, got {len(ks)}")


def cmd_elg(args) -> str:
    spec = _game_spec(args)
    ks = _parse_float_list(args.k, "--k")
    pol = _policy_from_fractions(ks, spec.n)
    record = {
        "k": ks,
        "elg": policy.elg(spec, pol) * _nat_scale(args),
        "unit": "bits" if args.bits else "nats",
    }
    return render(record, args.format, args.precision)


def cmd_scenario(args) -> str:
    table = simulate.scenario_table(_game_spec(args))
    for key in ("elg_kstar", "elg_kn", "elg_kvec"):
        table[key] *= _nat_scale(args)
    return render({"rows": table}, args.format, args.precision)


def cmd_simulate(args) -> str:
    spec = _game_spec(args)
    if args.k is not None:
        ks = _parse_float_list(args.k, "--k")
        policies = (("custom", _policy_from_fractions(ks, spec.n)),)
    else:
        # Before standard_policies allocates the p_k array; SimConfig
        # checks again with the final policy count.
        simulate.check_budget(spec.n, args.paths, constants=2, vectors=1)
        policies = simulate.standard_policies(spec)
    config = simulate.SimConfig(
        spec=spec,
        policies=tuple(policies),
        paths=args.paths,
        seed=_resolve_seed(args.seed),
    )
    result = simulate.monte_carlo_elg(config)
    stats, scale = result.stats, _nat_scale(args)
    q05, q50, q95 = zip(*(s.final_value_quantiles for s in stats))
    table = {
        "name": [s.name for s in stats],
        "mean_log_growth": [s.mean_log_growth * scale for s in stats],
        "std_error": [s.std_error * scale for s in stats],
        "analytic_elg": [s.analytic_elg * scale for s in stats],
        "q05": q05,
        "q50": q50,
        "q95": q95,
    }
    record = {"paths": config.paths, "seed": config.seed, "policies": table}
    return render(record, args.format, args.precision)


def cmd_estimate(args) -> str:
    obs = estimate.ObservationSet(
        data=estimate.read_outcomes(args.data, column=args.column), m=args.m
    )
    fit = estimate.constrained_fit(obs) if args.constrained else estimate.ols_fit(obs)
    record = {
        "omega": fit.omega_hat,
        "rss": fit.rss,
        "constrained": fit.constrained,
        "projected": fit.projected,
    }
    return render(record, args.format, args.precision)


def cmd_ingest(args) -> str:
    prices = estimate.read_prices(args.data)
    moves = estimate.ingest_prices(prices, tie_rule=args.tie)
    return estimate.format_moves(moves)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, as main reports every other error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kelly-memory",
        description="Kelly-optimal bet sizing for coins with Markov memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, game: bool, seedable: bool = False, bits: bool = False):
        if game:
            p.add_argument("--omega", required=True, help="coefficients w0,w1,...,wm")
            p.add_argument(
                "--history",
                required=True,
                help="prior outcomes, most recent first (+1/-1 or H/T)",
            )
        if seedable:
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)",
            )
        if bits:
            p.add_argument(
                "--bits", action="store_true", help="report growth in bits instead of nats"
            )
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="write output atomically to this path")
        p.add_argument(
            "--precision",
            type=_positive_int,
            default=None,
            help="significant digits in output",
        )

    p = sub.add_parser("kelly", help="optimal betting fractions")
    p.add_argument("--n", type=int, required=True, help="number of bets")
    add_common(p, game=True)
    p.set_defaults(func=cmd_kelly)

    p = sub.add_parser("elg", help="expected log growth of a given policy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help="one fraction, or n comma-separated")
    add_common(p, game=True, bits=True)
    p.set_defaults(func=cmd_elg)

    p = sub.add_parser("simulate", help="Monte Carlo account-growth simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", default=None, help="custom policy (default: three bettors)")
    p.add_argument("--paths", type=int, default=100_000)
    add_common(p, game=True, seedable=True, bits=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="three-bettor comparison over horizons")
    p.add_argument("--n", type=int, default=30, help="largest horizon (default 30)")
    add_common(p, game=True, bits=True)
    p.set_defaults(func=cmd_scenario)
    p.set_defaults(format="csv")

    p = sub.add_parser("estimate", help="fit coefficients from observed outcomes")
    p.add_argument("data", help="outcome file: one value per line, or CSV")
    p.add_argument("--m", type=int, required=True, help="memory depth to fit")
    p.add_argument("--column", default=None, help="CSV column holding the outcomes")
    p.add_argument(
        "--constrained", action="store_true", help="restrict fit to the hyperdiamond"
    )
    add_common(p, game=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ingest", help="convert a price CSV to +1/-1 moves")
    p.add_argument("data", help="CSV file with a 'price' column")
    p.add_argument("--tie", choices=("drop", "up", "down"), default="drop")
    p.add_argument("--out", default=None, help="write the moves atomically to this path")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        _write_output(text, args.out)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KellyMemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # An allocation the budget admitted but the process cannot get.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    """Run main, flush stdout and stderr, and end the process with os._exit.

    os._exit would lose what main wrote but has not flushed, so both
    streams are flushed first. A stdout flush that fails, because stdout
    is closed or its reader has gone, becomes one error line and exit 2,
    unless main has reported an error already. Skipping the teardown is
    safe here: main has closed and renamed its --out file and joined its
    worker threads before it returns, and the package registers no atexit
    handler. Handlers that the environment registers, such as coverage's,
    do not run. argparse's SystemExit (usage errors, --help) and an
    uncaught exception never reach this point, and exit normally.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # otherwise main has reported its error already
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # nowhere left to report it
        pass
    os._exit(code)


if __name__ == "__main__":
    entry_point()
