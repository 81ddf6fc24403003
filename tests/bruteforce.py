"""Pure-Python oracles.

Deliberately independent of the library internals: probabilities come from
walking every outcome path with itertools, never from the p_k recursion or
any vectorized code under test; price and outcome files are read one line
and one value at a time, as the package did before its readers were
vectorized. The Monte Carlo oracle is the block-at-a-time loop simulate ran
before its sampler and reduction were fused: it shares only the stream's definition (model.transition_table, Philox
jumped once per block) and the result types. The p_k loop and the CLI
renderer are the versions that ran every stage and formatted every
value, before the loop stopped at a repeated window and the renderer
formatted each distinct value once.
"""

import csv
import itertools
import json
import math
from collections import deque
from operator import mul

import numpy as np

from kelly_memory import cli, model, policy, simulate
from kelly_memory.errors import DomainError, EmptyResult, InputError, NumericalError


def conditional_head_prob(omega, window):
    """Head probability given the last m outcomes, most recent first."""
    return omega[0] + sum(w * x for w, x in zip(omega[1:], window))


def iter_paths(omega, history, n):
    """Yield (path, probability) for every outcome path of length n."""
    for path in itertools.product((-1, 1), repeat=n):
        prob = 1.0
        window = list(history)
        for k in range(n):
            p_head = conditional_head_prob(omega, window)
            prob *= p_head if path[k] == 1 else 1.0 - p_head
            window = [path[k]] + window[:-1]
        yield path, prob


def expected_heads(omega, history, n):
    return sum(prob * sum(1 for x in path if x == 1) for path, prob in iter_paths(omega, history, n))


def elg_constant(omega, history, n, k):
    """(1/n) sum_X P_X sum_j log(1 + k X_j)."""
    total = 0.0
    for path, prob in iter_paths(omega, history, n):
        total += prob * sum(math.log1p(k * x) for x in path)
    return total / n


def elg_vector(omega, history, n, ks):
    total = 0.0
    for path, prob in iter_paths(omega, history, n):
        total += prob * sum(math.log1p(ks[j] * x) for j, x in enumerate(path))
    return total / n


def random_valid_omega(rng, m, max_radius=0.45):
    """Draw coefficients strictly inside the hyperdiamond.

    Picks a random l1 radius, splits it over m+1 coordinates via a random
    simplex point, and applies random signs to the lag weights.
    """
    radius = rng.uniform(0.02, max_radius)
    cuts = sorted(rng.uniform(0, 1) for _ in range(m))
    parts = []
    prev = 0.0
    for c in cuts + [1.0]:
        parts.append((c - prev) * radius)
        prev = c
    w0 = 0.5 + parts[0] * rng.choice((-1, 1))
    lags = [p * rng.choice((-1, 1)) for p in parts[1:]]
    return [w0] + lags


def random_history(rng, m):
    return tuple(rng.choice((-1, 1)) for _ in range(m))


def ingest_prices(prices, tie_rule="drop"):
    """+1/-1 moves of a price series, one comparison per step."""
    if tie_rule not in ("drop", "up", "down"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    prices = [float(p) for p in prices]
    if not all(0.0 < p < math.inf for p in prices):
        raise DomainError("prices must be positive and finite")
    moves = []
    for prev, cur in zip(prices, prices[1:]):
        if cur > prev:
            moves.append(1)
        elif cur < prev:
            moves.append(-1)
        elif tie_rule == "up":
            moves.append(1)
        elif tie_rule == "down":
            moves.append(-1)
    if not moves:
        raise EmptyResult("no usable moves after tie handling")
    return moves


def read_outcomes(path, column=None):
    """+1/-1 outcomes of a file, one line or one CSV row at a time.

    CSV rows are read as in read_prices.
    """
    if column is None:
        values = []
        for line_no, line in enumerate(path.read_text().splitlines(), start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                raise InputError(
                    f"{path}:{line_no}: {token!r} is not numeric "
                    "(pass a column name for CSV input)"
                ) from None
    else:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise InputError(f"{path}: no column named {column!r}")
            values = [_number(row[column], path, reader) for row in reader if row[column] != ""]
    if not values:
        raise EmptyResult(f"{path}: no outcome values found")
    unique = set(values)
    if unique <= {-1.0, 1.0}:
        return [int(v) for v in values]
    if unique <= {0.0, 1.0}:
        return [2 * int(v) - 1 for v in values]
    raise DomainError(f"{path}: outcome values must be +1/-1 or 0/1")


def read_prices(path):
    """The price column of a CSV file, read row by row with csv.DictReader.

    A row too short to hold the column, or a cell that is not a number,
    is an InputError (DictReader fills a short row with None).
    """
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames or []
        match = next((c for c in names if c.strip().lower() == "price"), None)
        if match is None:
            raise InputError(f"{path}: no 'price' column in header {names}")
        prices = [_number(row[match], path, reader) for row in reader if row[match] != ""]
    if not prices:
        raise EmptyResult(f"{path}: no prices found")
    return prices


def _number(cell, path, reader):
    if cell is None:
        raise InputError(f"{path}:{reader.line_num}: short row")
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"{path}:{reader.line_num}: {cell!r} is not numeric") from None


def regression(data, m):
    """Design rows [1, x_{t-1}, ..., x_{t-m}] and responses (x_t + 1)/2, row by row."""
    data = [int(v) for v in data]
    X = [[1.0] + [float(data[t - i]) for i in range(1, m + 1)] for t in range(m, len(data))]
    y = [(data[t] + 1) / 2 for t in range(m, len(data))]
    return np.array(X), np.array(y)


def sample_blocks(spec, paths, seed):
    """Yield a run's (rows, n) +1/-1 blocks in order, one table gather per step."""
    table = model.transition_table(spec.params)
    for b, start in enumerate(range(0, paths, simulate.BLOCK_PATHS)):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        u = gen.random((min(simulate.BLOCK_PATHS, paths - start), spec.n))
        heads = np.empty(u.shape, dtype=bool)
        state = np.full(u.shape[0], spec.history.state)
        for k in range(spec.n):
            head = np.less(u[:, k], table[state], out=heads[:, k])
            state = ((state << 1) | head) & (table.size - 1)
        yield np.where(heads, 1, -1)


def sample_paths(spec, paths, seed):
    return np.vstack(list(sample_blocks(spec, paths, seed)))


def log_growth(x, pol):
    """Per-path log(V_n / V_0) for a block of outcome paths."""
    n, ks = x.shape[1], pol.fractions
    if ks.ndim == 0:
        k = float(ks)
        heads = (x == 1).sum(axis=1)
        return heads * math.log1p(k) + (n - heads) * math.log1p(-k)
    total = np.zeros(x.shape[0])
    for j in range(n):
        k = float(ks[j])
        total = total + np.where(x[:, j] == 1, math.log1p(k), math.log1p(-k))
    return total


def monte_carlo_elg(config):
    """simulate.monte_carlo_elg one block at a time, on fresh arrays."""
    spec, m_paths = config.spec, config.paths
    growth = [np.empty(m_paths) for _ in config.policies]
    offset = 0
    for x in sample_blocks(spec, m_paths, config.seed):
        for log_vn, (_, pol) in zip(growth, config.policies):
            log_vn[offset : offset + len(x)] = log_growth(x, pol)
        offset += len(x)
    stats = []
    for log_vn, (name, pol) in zip(growth, config.policies):
        g = log_vn / spec.n
        std_error = float(np.std(g, ddof=1) / math.sqrt(m_paths)) if m_paths > 1 else 0.0
        with np.errstate(over="ignore"):
            finals = np.exp(log_vn)
        if finals.max() == math.inf:
            raise NumericalError(f"final account value of policy {name!r} overflows")
        q = np.quantile(finals, (0.05, 0.5, 0.95))
        stats.append(
            simulate.PolicyStats(
                name=name,
                mean_log_growth=float(np.mean(g)),
                std_error=std_error,
                analytic_elg=policy.elg(spec, pol),
                final_value_quantiles=(float(q[0]), float(q[1]), float(q[2])),
            )
        )
    return simulate.SimResult(stats=tuple(stats))


def prob_sequence(spec):
    """[p_0, ..., p_{n-1}]: the recursion walked for every one of the n stages."""
    w = spec.params.omega[1:]
    drift = spec.params.omega[0] - sum(w)
    lags = deque(spec.history.induced_probs, maxlen=spec.params.m)
    out = [0.0] * spec.n
    for k in range(spec.n):
        p = drift + 2.0 * sum(map(mul, w, lags))
        out[k] = p
        lags.appendleft(p)
    return np.array(out)


def _values(column):
    """A table column's values as Python objects."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def render(record, fmt, precision):
    """cli.render formatting every value on its own, JSON through one json.dumps.

    A table, a dict of columns, is first turned into a list of row dicts.
    """
    default = cli.JSON_SIG_DIGITS if fmt == "json" else cli.CSV_SIG_DIGITS
    text = f"{{:.{precision or default}g}}".format
    record = {
        key: [dict(zip(v, row)) for row in zip(*map(_values, v.values()))]
        if isinstance(v, dict) else _values(v) if isinstance(v, np.ndarray) else v
        for key, v in record.items()
    }

    def is_table(v):
        return isinstance(v, list) and bool(v) and isinstance(v[0], dict)

    if fmt == "json":

        def rounded(v):
            if isinstance(v, float):
                return float(text(v))
            if is_table(v):
                return [{key: rounded(x) for key, x in row.items()} for row in v]
            if isinstance(v, (list, tuple)):
                return list(map(float, map(text, v)))
            return v

        payload = {key: rounded(v) for key, v in record.items()}
        try:
            return json.dumps(payload, allow_nan=False) + "\n"
        except ValueError:
            raise NumericalError("result is not finite, so it has no JSON form") from None

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if not math.isfinite(v):
                raise NumericalError(f"result {v} is not finite")
            return text(v)
        return str(v)

    table = next((v for v in record.values() if is_table(v)), None)
    if table is not None:
        lines = [",".join(cli.CSV_COLUMN_NAMES.get(key, key) for key in table[0])]
        lines += [",".join(map(cell, row.values())) for row in table]
    else:
        lines = ["name,value"]
        for name, v in record.items():
            if isinstance(v, (list, tuple)):
                lines += [f"{name}_{i},{cell(x)}" for i, x in enumerate(v)]
            elif not isinstance(v, str):
                lines.append(f"{name},{cell(v)}")
    return "\n".join(lines) + "\n"
