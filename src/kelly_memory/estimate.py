"""Least-squares fitting of the memory coefficients from observed outcomes.

The linear-probability regression uses response y_t = (x_t + 1)/2 against
an intercept and the m lagged outcomes, so the coefficient vector is
exactly (w0, w1, ..., wm). The optionally constrained fit keeps the
estimate inside the hyperdiamond via projected gradient descent with an
exact l1-ball projection in the coordinates shifted by the diamond center.
Also provides ingestion of price series into +1/-1 move sequences and the
file formats consumed by the CLI.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyResult,
    InputError,
    InsufficientData,
    NonConvergence,
    SingularDesign,
)
from .model import EPS_MARGIN

DIAMOND_RADIUS = 0.5 - EPS_MARGIN

# Relative eigenvalue cutoff below which the normal system is treated as
# singular.
_SINGULAR_RTOL = 1e-10

_PG_TOL = 1e-10
_PG_MAX_ITER = 10_000
_POWER_ITERATIONS = 50


@dataclass(frozen=True)
class ObservationSet:
    """Chronological +1/-1 outcomes paired with the model depth to fit."""

    data: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch(f"model depth must be >= 1, got {self.m}")
        if any(v not in (-1, 1) for v in self.data):
            raise DomainError("observations must be +1/-1")
        if len(self.data) < self.m + 1:
            raise InsufficientData(
                f"{len(self.data)} observations cannot form a single row "
                f"at depth {self.m}"
            )

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class FitResult:
    omega_hat: tuple[float, ...]
    rss: float
    constrained: bool
    iterations: int
    projected: bool

    def as_json_dict(self) -> dict:
        return {
            "omega": list(self.omega_hat),
            "rss": self.rss,
            "constrained": self.constrained,
            "projected": self.projected,
        }


def ingest_prices(prices: Sequence[float], tie_rule: str = "drop") -> np.ndarray:
    """Convert a price series into +1/-1 moves.

    Rising prices map to +1, falling to -1. Flat moves are dropped or
    coerced per ``tie_rule`` ("drop", "up", "down"). Raises EmptyResult
    when no usable moves remain.
    """
    if tie_rule not in ("drop", "up", "down"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    prices = [float(p) for p in prices]
    # NaN fails both comparisons, so this one pass rejects it too.
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
    return np.asarray(moves, dtype=np.int64)


def build_regression(obs: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and response for the linear-probability regression.

    Row t targets outcome x_t and holds [1, x_{t-1}, ..., x_{t-m}];
    the response is y_t = (x_t + 1)/2.
    """
    data = np.asarray(obs.data, dtype=float)
    ell, m = data.size, obs.m
    rows = ell - m
    X = np.ones((rows, m + 1))
    for i in range(1, m + 1):
        X[:, i] = data[m - i : ell - i]
    y = (data[m:] + 1.0) / 2.0
    return X, y


def _check_conditioning(X: np.ndarray) -> None:
    s = np.linalg.svd(X, compute_uv=False)
    if s[0] == 0.0 or (s[-1] / s[0]) ** 2 <= _SINGULAR_RTOL:
        raise SingularDesign(
            "normal system is numerically singular (constant or collinear data)"
        )


def _require_fit_rows(obs: ObservationSet) -> None:
    if len(obs) - obs.m < obs.m + 2:
        raise InsufficientData(
            f"need at least {2 * obs.m + 2} observations at depth {obs.m}, "
            f"got {len(obs)}"
        )


def ols_fit(obs: ObservationSet) -> FitResult:
    """Unconstrained least squares via orthogonal factorization."""
    _require_fit_rows(obs)
    X, y = build_regression(obs)
    _check_conditioning(X)
    omega_hat, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    rss = float(np.sum((y - X @ omega_hat) ** 2))
    return FitResult(
        omega_hat=tuple(float(w) for w in omega_hat),
        rss=rss,
        constrained=False,
        iterations=0,
        projected=False,
    )


def constrained_fit(obs: ObservationSet) -> FitResult:
    """Least squares restricted to the (shrunk) hyperdiamond.

    Returns the plain OLS estimate when it is already feasible. Otherwise
    runs projected gradient descent from the projected OLS point until the
    step-to-step change drops below 1e-10; raises NonConvergence (carrying
    the last iterate) if 10^4 iterations do not get there.
    """
    ols = ols_fit(obs)
    omega = np.asarray(ols.omega_hat)
    if _diamond_distance(omega) <= DIAMOND_RADIUS:
        return FitResult(
            omega_hat=ols.omega_hat,
            rss=ols.rss,
            constrained=True,
            iterations=0,
            projected=False,
        )

    X, y = build_regression(obs)
    rows = X.shape[0]
    scale = 2.0 / rows
    gram = scale * (X.T @ X)
    lipschitz = _power_lmax(gram)
    step = 1.0 / lipschitz
    xty = scale * (X.T @ y)

    w = project_hyperdiamond(omega, DIAMOND_RADIUS)
    for iteration in range(1, _PG_MAX_ITER + 1):
        grad = gram @ w - xty
        w_next = project_hyperdiamond(w - step * grad, DIAMOND_RADIUS)
        change = float(np.max(np.abs(w_next - w)))
        w = w_next
        if change < _PG_TOL:
            break
    else:
        raise NonConvergence(
            f"projected gradient did not converge in {_PG_MAX_ITER} iterations",
            last_iterate=tuple(float(v) for v in w),
        )
    rss = float(np.sum((y - X @ w) ** 2))
    return FitResult(
        omega_hat=tuple(float(v) for v in w),
        rss=rss,
        constrained=True,
        iterations=iteration,
        projected=True,
    )


def _diamond_distance(omega: np.ndarray) -> float:
    return abs(omega[0] - 0.5) + float(np.sum(np.abs(omega[1:])))


def _power_lmax(gram: np.ndarray) -> float:
    """Largest eigenvalue of a PSD matrix by fixed-length power iteration."""
    v = np.ones(gram.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(_POWER_ITERATIONS):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ gram @ v)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (Duchi)."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.astype(float, copy=True)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    rho = np.nonzero(u * ranks > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_hyperdiamond(omega: Sequence[float], radius: float) -> np.ndarray:
    """Closest point (Euclidean) of {|w0 - 1/2| + sum |wi| <= radius}.

    The projection is computed exactly in the coordinates shifted by the
    diamond center (1/2, 0, ..., 0).
    """
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    shifted = np.asarray(omega, dtype=float).copy()
    shifted[0] -= 0.5
    projected = _project_l1_ball(shifted, radius)
    projected[0] += 0.5
    return projected


def read_outcomes(path: str | Path, column: str | None = None) -> np.ndarray:
    """Read a +1/-1 outcome sequence from a file.

    Without ``column`` the file holds one value per line; with ``column``
    it is parsed as CSV with a header. Values may be coded +1/-1 or 0/1
    (auto-detected, 0 meaning tail).
    """
    path = Path(path)
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
            values = [float(row[column]) for row in reader if row[column] != ""]
    if not values:
        raise EmptyResult(f"{path}: no outcome values found")
    return _decode_outcomes(values, str(path))


def _decode_outcomes(values: Sequence[float], source: str) -> np.ndarray:
    arr = np.asarray(values)
    unique = set(arr.tolist())
    if unique <= {-1.0, 1.0}:
        return arr.astype(np.int64)
    if unique <= {0.0, 1.0}:
        return (2 * arr - 1).astype(np.int64)
    bad = sorted(unique - {-1.0, 0.0, 1.0})
    raise DomainError(f"{source}: outcome values must be +1/-1 or 0/1, saw {bad[:5]}")


def read_prices(path: str | Path) -> list[float]:
    """Read the ``price`` column of a CSV file; other columns are ignored."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames or []
        match = next((c for c in names if c.strip().lower() == "price"), None)
        if match is None:
            raise InputError(f"{path}: no 'price' column in header {names}")
        prices = [float(row[match]) for row in reader if row[match] != ""]
    if not prices:
        raise EmptyResult(f"{path}: no prices found")
    return prices
