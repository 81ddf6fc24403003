"""Command-line front end.

Subcommands: kelly (optimal fractions), elg (evaluate a policy), simulate
(Monte Carlo), scenario (three-bettor comparison table), estimate (fit
coefficients from outcomes), ingest (prices to +1/-1 moves). Output is
JSON or CSV on stdout, or written atomically to --out. Exit codes: 0
success, 2 invalid input, 3 numerical failure.
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


def _is_table(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


def _distinct(seq) -> tuple[list[float], list[int]]:
    """The distinct values of a float sequence, and each entry's index among them.

    Values are told apart by bit pattern, so 0.0 and -0.0 stay apart.
    """
    bits = np.asarray(seq, dtype=float).view(np.int64)
    values, index = np.unique(bits, return_inverse=True)
    return values.view(float).tolist(), index.tolist()


def render(record: dict, fmt: str, precision: int | None) -> str:
    """Write a command's record as one JSON line or as CSV; the CLI's one output rule.

    The record holds floats, ints, bools, strings, float sequences and at
    most one table, a list of row dicts. Floats are rounded to ``precision``
    significant digits (default JSON_SIG_DIGITS or CSV_SIG_DIGITS); a
    non-finite one raises NumericalError, so no NaN or Infinity is printed.
    CSV prints the table, if there is one, and leaves out the other values.
    Otherwise it prints one name,value line per number: a sequence x as
    x_0, x_1, ..., a bool as true/false, and no strings. Each distinct
    value of a sequence is formatted once.
    """
    default = JSON_SIG_DIGITS if fmt == "json" else CSV_SIG_DIGITS
    text = f"{{:.{precision or default}g}}".format
    if fmt == "json":

        def rounded(v):
            if isinstance(v, float):
                return float(text(v))
            if _is_table(v):
                return [{key: rounded(x) for key, x in row.items()} for row in v]
            return v

        def dumps(v) -> str:
            # The text json.dumps(payload) would give, with its default separators.
            if isinstance(v, (list, tuple)) and not _is_table(v):
                distinct, index = _distinct(v)
                # One json.dumps call: one per value costs four times as much.
                texts = json.dumps(list(map(float, map(text, distinct))), allow_nan=False)
                texts = texts[1:-1].split(", ")
                return "[" + ", ".join([texts[i] for i in index]) + "]"
            return json.dumps(rounded(v), allow_nan=False)

        try:
            items = [json.dumps(key) + ": " + dumps(v) for key, v in record.items()]
        except ValueError:
            raise NumericalError("result is not finite, so it has no JSON form") from None
        return "{" + ", ".join(items) + "}\n"

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if not math.isfinite(v):
                raise NumericalError(f"result {v} is not finite")
            return text(v)
        return str(v)

    table = next((v for v in record.values() if _is_table(v)), None)
    if table is not None:
        lines = [",".join(CSV_COLUMN_NAMES.get(key, key) for key in table[0])]
        lines += [",".join(map(cell, row.values())) for row in table]
    else:
        lines = ["name,value"]
        for name, v in record.items():
            if isinstance(v, (list, tuple)):
                distinct, index = _distinct(v)
                texts = [cell(x) for x in distinct]
                lines += [f"{name}_{i},{texts[j]}" for i, j in enumerate(index)]
            elif not isinstance(v, str):
                lines.append(f"{name},{cell(v)}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target = Path(out)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=".kelly-tmp-")
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
    if pol.kind is policy.PolicyKind.TIME_INVARIANT:
        value = policy.elg_time_invariant(spec, pol.fractions[0])
    else:
        value = policy.elg_time_varying(spec, pol)
    record = {
        "k": pol.fractions,
        "elg": value * _nat_scale(args),
        "unit": "bits" if args.bits else "nats",
    }
    return render(record, args.format, args.precision)


def cmd_scenario(args) -> str:
    params = model.validate_params(_parse_float_list(args.omega, "--omega"))
    history = _parse_history(args.history)
    table = simulate.scenario_table(params, history, n_max=args.n)
    scale = _nat_scale(args)
    rows = [
        {
            "n": row.n,
            "elg_kstar": row.elg_kstar * scale,
            "elg_kn": row.elg_kn * scale,
            "elg_kvec": row.elg_kvec * scale,
            "kstar": row.kstar,
            "kn": row.kn,
        }
        for row in table
    ]
    return render({"rows": rows}, args.format, args.precision)


def cmd_simulate(args) -> str:
    spec = _game_spec(args)
    if args.k is not None:
        ks = _parse_float_list(args.k, "--k")
        policies = (("custom", _policy_from_fractions(ks, spec.n)),)
    else:
        # Before standard_policies allocates the p_k array; SimConfig
        # checks again with the final policy count.
        simulate.check_budget(spec.n, args.paths, policies=3)
        policies = simulate.standard_policies(spec)
    config = simulate.SimConfig(
        spec=spec,
        policies=tuple(policies),
        paths=args.paths,
        seed=_resolve_seed(args.seed),
    )
    result = simulate.monte_carlo_elg(config)
    scale = _nat_scale(args)
    rows = [
        {
            "name": s.name,
            "mean_log_growth": s.mean_log_growth * scale,
            "std_error": s.std_error * scale,
            "analytic_elg": s.analytic_elg * scale,
            "q05": s.final_value_quantiles[0],
            "q50": s.final_value_quantiles[1],
            "q95": s.final_value_quantiles[2],
        }
        for s in result.stats
    ]
    record = {"paths": result.paths, "seed": result.seed, "policies": rows}
    return render(record, args.format, args.precision)


def cmd_estimate(args) -> str:
    obs = estimate.ObservationSet(
        data=estimate.read_outcomes(args.data, column=args.column), m=args.m
    )
    fit = estimate.constrained_fit(obs) if args.constrained else estimate.ols_fit(obs)
    return render(fit.as_json_dict(), args.format, args.precision)


def cmd_ingest(args) -> str:
    prices = estimate.read_prices(args.data)
    moves = estimate.ingest_prices(prices, tie_rule=args.tie)
    return np.where(moves > 0, b"+1\n", b"-1\n").tobytes().decode("ascii")


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
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
