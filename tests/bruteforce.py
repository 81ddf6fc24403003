"""Pure-Python oracles.

Deliberately independent of the library internals: probabilities come from
walking every outcome path with itertools, never from the p_k recursion or
any vectorized code under test; price and outcome files are read one line
and one value at a time, as the package did before its readers were
vectorized.
"""

import csv
import itertools
import math

import numpy as np

from kelly_memory.errors import DomainError, EmptyResult, InputError


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
