"""Least-squares fitting of the memory coefficients from observed outcomes.

The linear-probability regression uses response y_t = (x_t + 1)/2 against
an intercept and the m lagged outcomes, so the coefficient vector is
exactly (w0, w1, ..., wm). Each fit forms the normal equations
X'X w = X'y once, and never the design matrix: with outcomes in {-1, +1}
and responses in {0, 1} both sides are sums of integers, which
build_regression takes exactly from lag sums of the outcomes. The
optionally constrained fit keeps the estimate inside the hyperdiamond
via projected gradient descent on the same system, with an exact l1-ball
projection in the coordinates shifted by the diamond center, onto a radius
shrunk by _PRINT_SLACK per coefficient so that the estimate stays inside
once the CLI prints it to 12 significant digits. Every fit ends in one
FitResult, built in one place: the coefficients, the residual sum of
squares, formed exactly from the normal equations and rounded once,
whether the fit was constrained and its projected-gradient iterations.
``projected`` is derived from those, iterations > 0.

Also provides ingestion of price series into +1/-1 move sequences and the
file formats consumed by the CLI. What an input file is gets decided
once, by _source, and every reader takes its answer: a regular file is
parsed from its path, and charged to the memory budget by its size before
each parse; any other file, such as a pipe, whose size is not known, is
read into memory once, uncharged, and parsed from there; a path that
cannot be stat'ed is the OSError that names it. An outcome file in
exactly the format ingest writes, "+1" or "-1" and a line break per move,
is read in one byte pass, piped or not. Every other file is parsed by
numpy's C text reader (a CSV header by the csv module) and the moves are
taken in one array pass; blank lines are skipped. A file the C reader
rejects is read again line by line, which names the bad line; a file
that cannot be decoded as text is reported without a line number.
"""

from __future__ import annotations

import csv
import io
import math
import stat
import warnings
from dataclasses import dataclass, replace
from operator import mul
from pathlib import Path
from typing import Callable, Sequence, TextIO

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
from .model import (
    DIAMOND_RADIUS,
    as_numbers,
    check_memory,
    diamond_distance,
    require_integer,
    require_real,
    require_reals,
)

# Relative eigenvalue cutoff (smallest over largest eigenvalue of X'X, the
# squared singular-value ratio of X) below which the normal system is
# treated as singular.
_SINGULAR_RTOL = 1e-10

_PG_TOL = 1e-10
_PG_MAX_ITER = 10_000
# One unit in the 12th significant digit of a coefficient below 1: twice the
# most that printing it to cli.JSON_SIG_DIGITS digits moves it. A projected
# fit targets DIAMOND_RADIUS less this per coefficient, so the printed fit is
# still inside the hyperdiamond.
_PRINT_SLACK = 1e-12

# A moves file holds one line per move x: the byte 44 - x ("+" for +1, "-"
# for -1), then _MOVE_TAIL. format_moves writes it, and read_outcomes reads
# a file of these lines and nothing else in one byte pass.
_MOVE_TAIL = b"1\n"

# Bytes a text reader may hold per byte of the file it parses, an upper
# bound on its tracemalloc peak; a value takes at least 2 bytes, itself and
# a line break or delimiter. numpy's C reader holds 8 per value for the
# result, and up to 28 per value (14 per byte) in all while _decode_outcomes
# takes its masks, copies and np.unique.
_PARSE_BYTES = 15
# Read line by line, a 3-byte line of two characters holds about 94 bytes
# (31.4 per byte): its str in the list of lines, its float in the list of
# values and its array entry.
_FALLBACK_BYTES = 32


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Chronological +1/-1 outcomes paired with the model depth to fit.

    ``data`` may be any flat sequence or array of the numbers +1 and -1,
    read by ``model.as_numbers``, so a bool among them is rejected; it is
    stored as a read-only int64 copy, and ``m`` as an int.
    """

    data: np.ndarray
    m: int

    def __post_init__(self):
        m = require_integer(self.m, "model depth")
        if m < 1:
            raise DimensionMismatch(f"model depth must be >= 1, got {m}")
        object.__setattr__(self, "m", m)
        data = as_numbers(self.data)
        if data is None or data.ndim != 1 or not np.all(abs(data) == 1):
            raise DomainError("observations must be +1/-1")
        data = data.astype(np.int64)  # the one copy, which the caller cannot change
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        if len(self.data) < self.m + 1:
            raise InsufficientData(
                f"{len(self.data)} observations cannot form a single row "
                f"at depth {self.m}"
            )

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class FitResult:
    """A fit's (w0, ..., wm), its residual sum of squares and its projected-gradient steps."""

    omega_hat: tuple[float, ...]
    rss: float
    constrained: bool
    iterations: int

    @property
    def projected(self) -> bool:
        """Whether projected gradient ran, as it does when OLS leaves the hyperdiamond."""
        return self.iterations > 0


# The move a flat step becomes under each tie rule; "drop" removes it.
_TIE_MOVES = {"drop": 0, "up": 1, "down": -1}


def ingest_prices(prices: Sequence[float], tie_rule: str = "drop") -> np.ndarray:
    """Convert a price series into +1/-1 moves.

    Rising prices map to +1, falling to -1. Flat moves are dropped or
    coerced per ``tie_rule`` ("drop", "up", "down"). Raises EmptyResult
    when no usable moves remain.
    """
    if not isinstance(tie_rule, str) or tie_rule not in _TIE_MOVES:
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    prices = require_reals(prices, "prices")
    # NaN fails both comparisons, so this one pass rejects it too.
    if not np.all((prices > 0.0) & (prices < np.inf)):
        raise DomainError("prices must be positive and finite")
    # With gradual underflow a difference of finite floats is zero only
    # when they are equal, so its sign is the comparison.
    moves = np.sign(np.diff(prices)).astype(np.int64)
    if tie_rule == "drop":
        moves = moves[moves != 0]
    else:
        moves[moves == 0] = _TIE_MOVES[tie_rule]
    if moves.size == 0:
        raise EmptyResult("no usable moves after tie handling")
    return moves


def format_moves(moves: np.ndarray) -> str:
    """The text of a moves file: "+1" or "-1" and a line break per +1/-1 move."""
    lines = np.empty((moves.size, 3), np.uint8)
    np.subtract(44, moves, out=lines[:, 0], casting="unsafe")
    lines[:, 1], lines[:, 2] = _MOVE_TAIL
    return lines.tobytes().decode("ascii")


def build_regression(obs: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """The normal equations X'X, X'y of the linear-probability regression,
    formed from lag sums of the outcomes, without X or y.

    Row t of the regression, for t = m, ..., len - 1, holds
    [1, x_{t-1}, ..., x_{t-m}] and targets y_t = (x_t + 1)/2. Let L[i, j]
    be the sum over the rows of x_{t-i} x_{t-j}, for i, j = 0, ..., m. Its
    first row, the lag-d sums of x_t x_{t-d}, takes one pass over a byte
    per outcome each. Moving both lags back by one drops the last row's
    term and adds the one before the first row, so
    L[i + 1, j + 1] = L[i, j] + x_{m-1-i} x_{m-1-j} - x_{len-1-i} x_{len-1-j},
    and the rest of L comes from the first and last m outcomes. The sums
    of the lag columns, s[j] = sum of x_{t-j}, follow the same step. X'X
    is L with s in its first row and column past the corner, which holds
    the row count, and 2 X'y = L[0] + s. Every entry is an integer below
    2^53, so both are exact: the float64 bits of X.T @ X and X.T @ y.

    A fit is charged what its traced peak holds: two bytes per outcome,
    for the byte array and one lag pass's comparison; 24 (m + 1)^2, for L
    and X'X, or X'X and the copy LAPACK makes of it, and the exact RSS's
    lists of m + 1 integers; and 4 KiB of small objects.
    """
    data, m = obs.data, obs.m
    ell = data.size
    rows = ell - m
    check_memory(2 * ell + 24 * (m + 1) ** 2 + 2**12, f"{rows} regression rows at depth {m}")
    heads = data == 1
    now = heads[m:]
    lags = np.empty((m + 1, m + 1), np.int64)  # L, which is symmetric
    lags[0] = lags[:, 0] = [
        2 * np.count_nonzero(now == heads[m - d : ell - d]) - rows for d in range(m + 1)
    ]
    # x_{m-1}, ..., x_0 and x_{len-1}, ..., x_{len-m}: the terms a step adds and drops.
    before, last = data[m - 1 :: -1], data[: rows - 1 : -1]
    for i in range(m):
        np.add(lags[i, :-1], before[i] * before - last[i] * last, out=lags[i + 1, 1:])
    sums = 2 * np.count_nonzero(now) - rows + np.insert(np.cumsum(before - last), 0, 0)
    gram = lags.astype(np.float64)
    gram[0, 1:] = gram[1:, 0] = sums[1:]
    return gram, (lags[0] + sums) / 2.0


# A fit's normal equations gram @ w = xty and the largest eigenvalue of gram.
_NormalSystem = tuple[np.ndarray, np.ndarray, float]


def _normal_system(obs: ObservationSet) -> _NormalSystem:
    """(X'X, X'y, largest eigenvalue of X'X), built once per fit from
    build_regression; raises InsufficientData below m + 2 rows and
    SingularDesign when the system cannot be solved."""
    if len(obs) - obs.m < obs.m + 2:
        raise InsufficientData(
            f"need at least {2 * obs.m + 2} observations at depth {obs.m}, "
            f"got {len(obs)}"
        )
    gram, xty = build_regression(obs)
    # gram[0, 0] is the row count, and the largest eigenvalue is at least that.
    eig = np.linalg.eigvalsh(gram)
    if eig[0] / eig[-1] <= _SINGULAR_RTOL:
        raise SingularDesign(
            "normal system is numerically singular (constant or collinear data)"
        )
    return gram, xty, float(eig[-1])


def _fit_result(system: _NormalSystem, w: np.ndarray, constrained: bool, iterations: int):
    """The FitResult of the point ``w`` on a fit's normal system; every fit ends here.

    The RSS, sum over rows of (y_t - row_t w)^2, is y'y - 2 w'X'y + w'X'X w
    with y'y = X'y[0], since each y_t is 0 or 1. X'X and X'y hold integers,
    and each w_i is a_i / scale for integers a_i and a power of two, so the
    sum is formed exactly in Python integers and rounded once, by one
    integer division. It costs O(m^2) integer products, one row of X'X at
    a time.
    """
    gram, xty = system[:2]
    ratios = [v.as_integer_ratio() for v in w.tolist()]
    scale = max(den for _, den in ratios)
    a = [num * (scale // den) for num, den in ratios]
    q = xty.astype(np.int64).tolist()
    wgw = sum(ai * sum(map(mul, row.astype(np.int64).tolist(), a)) for ai, row in zip(a, gram))
    rss = (q[0] * scale**2 - 2 * scale * sum(map(mul, a, q)) + wgw) / scale**2
    return FitResult(tuple(float(v) for v in w), rss, constrained, iterations)


def ols_fit(obs: ObservationSet, system: _NormalSystem | None = None) -> FitResult:
    """Unconstrained least squares from the normal equations.

    ``system`` is the normal system of ``obs`` when the caller has
    already built it (constrained_fit does).
    """
    system = _normal_system(obs) if system is None else system
    gram, xty, _ = system
    return _fit_result(system, np.linalg.solve(gram, xty), False, 0)


def constrained_fit(obs: ObservationSet) -> FitResult:
    """Least squares restricted to the (shrunk) hyperdiamond.

    Both decisions use one target radius, DIAMOND_RADIUS less _PRINT_SLACK
    per coefficient. Returns the plain OLS estimate when
    ``model.diamond_distance`` puts it within that target. Otherwise runs
    projected gradient descent onto the target, from the projected OLS
    point, with step one over the largest eigenvalue of X'X, until the
    step-to-step change drops below 1e-10; raises NonConvergence if 10^4
    iterations do not get there. So the estimate passes ``validate_params``
    both as returned and as the CLI prints it in JSON at its default digits.
    """
    system = _normal_system(obs)
    ols = ols_fit(obs, system)
    radius = DIAMOND_RADIUS - (obs.m + 1) * _PRINT_SLACK
    if diamond_distance(ols.omega_hat) <= radius:
        return replace(ols, constrained=True)

    gram, xty, lmax = system
    step = 1.0 / lmax
    w = project_hyperdiamond(ols.omega_hat, radius)
    for iteration in range(1, _PG_MAX_ITER + 1):
        w_next = project_hyperdiamond(w - step * (gram @ w - xty), radius)
        change = float(np.max(np.abs(w_next - w)))
        w = w_next
        if change < _PG_TOL:
            break
    else:
        raise NonConvergence(f"projected gradient did not converge in {_PG_MAX_ITER} iterations")
    return _fit_result(system, w, True, iteration)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (Duchi et al. 2008).

    The threshold is found from d, each sorted entry's distance below the
    largest, which is exact for entries within a factor of two of it
    (Sterbenz), so no kept entry loses the radius to a huge threshold. An
    entry at least ``radius`` below the largest is never kept, so d is
    capped there and its cumulative sum cannot overflow.
    """
    a = np.abs(v)
    if a.sum() <= radius:
        return v.astype(float, copy=True)
    u = np.sort(a)[::-1]
    d = np.minimum(u[0] - u, radius)
    cd = np.cumsum(d)
    ranks = np.arange(1, u.size + 1)
    # Rank 1 always qualifies, since d[0] = 0 and radius > 0.
    rho = np.flatnonzero(cd + radius > ranks * d)[-1]
    kept = (cd[rho] + radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(kept - (u[0] - a), 0.0)


def project_hyperdiamond(omega: Sequence[float], radius: float) -> np.ndarray:
    """Closest point (Euclidean) of {|w0 - 1/2| + sum |wi| <= radius}.

    The projection is computed exactly in the coordinates shifted by the
    diamond center (1/2, 0, ..., 0). ``omega`` must be a non-empty vector
    of finite numbers and ``radius`` positive and finite; a point so far
    out that its distance overflows is a DomainError.
    """
    radius, omega = require_real(radius, "radius"), require_reals(omega, "omega")
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if omega.size == 0 or not np.isfinite(omega).all():
        raise DomainError(f"omega must be a non-empty vector of finite numbers, got {omega}")
    shifted = omega.copy()
    shifted[0] -= 0.5
    try:
        with np.errstate(over="raise"):
            projected = _project_l1_ball(shifted, radius)
    except FloatingPointError:
        raise DomainError("omega is too far out to project: its distance overflows") from None
    projected[0] += 0.5
    return projected


def read_outcomes(path: str | Path, column: str | None = None) -> np.ndarray:
    """Read a +1/-1 outcome sequence from a file.

    Without ``column`` the file holds one value per line, blank lines
    skipped; a file as ingest writes it is read by ``_read_moves``, any
    other by ``_read_lines``. With ``column`` it is parsed as CSV with a
    header (see ``_read_column``). Values may be coded +1/-1 or 0/1
    (auto-detected, 0 meaning tail).
    """
    path = Path(path)
    source = _source(path)
    if column is None:
        moves = _read_moves(path, source)
        if moves is not None:
            return moves
        values = _read_lines(path, source)
    else:

        def pick(header: list[str]) -> str:
            if column not in header:
                raise InputError(f"{path}: no column named {column!r}")
            return column

        values = _read_column(path, source, pick)
    if values.size == 0:
        raise EmptyResult(f"{path}: no outcome values found")
    return _decode_outcomes(values, str(path))


def _source(path: Path) -> Path | bytes:
    """What every reader parses, decided once per file: the path of a
    regular file, or the bytes of any other file, such as a pipe, read
    once, since a second open of a pipe starts past what the first handle
    buffered. A path that cannot be stat'ed raises the OSError that
    names it."""
    return path if stat.S_ISREG(path.stat().st_mode) else path.read_bytes()


def _read_moves(path: Path, source: Path | bytes) -> np.ndarray | None:
    """The int64 moves of a _source that holds only lines as ingest writes
    them, from one pass over its bytes; None for any other file.

    Either kind of source is checked byte for byte, and one whose size is
    not a positive multiple of 3 is None. A regular file's bytes and the
    result, 8 per line, are charged before the read, which takes one byte
    past its size, so a file that grew since its stat is None too. Bytes
    read from a pipe are not charged.
    """
    data = source
    if isinstance(source, Path):
        size = source.stat().st_size
        if size % 3:
            return None
        check_memory(size + 8 * (size // 3), f"{path}: {size // 3} outcome lines")
        with source.open("rb") as fh:
            data = fh.read(size + 1)
    if not data or len(data) % 3:
        return None
    lines = np.frombuffer(data, np.uint8).reshape(-1, 3)
    sign = lines[:, 0]
    if not (
        (lines[:, 1] == _MOVE_TAIL[0]).all()
        and (lines[:, 2] == _MOVE_TAIL[1]).all()
        and ((sign == ord("+")) | (sign == ord("-"))).all()
    ):
        return None
    return np.subtract(44, sign, dtype=np.int64)


def _text(source: Path | bytes, newline: str | None = None) -> TextIO:
    """A text handle on a _source, decoded as open() decodes a file."""
    if isinstance(source, Path):
        return source.open(newline=newline)
    return io.TextIOWrapper(io.BytesIO(source), newline=newline)


def _loadtxt(source: Path | bytes, **kwargs) -> np.ndarray | None:
    """Comma-separated numbers of a _source parsed by numpy's C reader, or
    None for a file it rejects (an empty file gives an empty array).

    numpy reads a path in chunks, and a file handle a line at a time, which
    takes about 1.7 times as long on a million-row price file.
    """
    rows = source if isinstance(source, Path) else _text(source)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(rows, comments=None, delimiter=",", **kwargs)
    except ValueError:
        return None


def _undecodable(path: Path, exc: UnicodeDecodeError) -> InputError:
    # The codec's byte position counts from a buffered chunk, not the file.
    return InputError(f"{path}: cannot decode the file as text ({exc.encoding}: {exc.reason})")


def _charge_text(source: Path | bytes, per_byte: int) -> None:
    """Charge ``per_byte`` bytes per byte of a _source that is a regular
    file's path, before a reader parses it; bytes read from a pipe, whose
    size was not known before the read, are not charged."""
    if isinstance(source, Path):
        size = source.stat().st_size
        check_memory(per_byte * size, f"{source}: {size} bytes of text")


def _read_lines(path: Path, source: Path | bytes) -> np.ndarray:
    """One number per line of a _source, parsed by numpy's C reader.

    A file it rejects (or reads as more than one column) is read again a
    line at a time with str.splitlines and float, which accept a little
    more (other line breaks, underscores in digits) and otherwise name the
    first line that is not a number. Each read is charged first (see
    _charge_text).
    """
    _charge_text(source, _PARSE_BYTES)
    table = _loadtxt(source, ndmin=2)
    if table is not None and table.shape[1] == 1:
        return table[:, 0]
    _charge_text(source, _FALLBACK_BYTES)
    try:
        with _text(source) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
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
    return np.asarray(values, dtype=float)


def _decode_outcomes(values: np.ndarray, source: str) -> np.ndarray:
    signed = (values == -1.0) | (values == 1.0)
    if signed.all():
        return values.astype(np.int64)
    binary = (values == 0.0) | (values == 1.0)
    if binary.all():
        return (2 * values - 1).astype(np.int64)
    bad = np.unique(values[~(signed | binary)])[:5].tolist()
    raise DomainError(
        f"{source}: outcome values must be +1/-1 or 0/1, saw {bad or 'both -1 and 0'}"
    )


def _read_column(path: Path, source: Path | bytes, pick: Callable[[list[str]], str]) -> np.ndarray:
    """The numbers in one column of a CSV _source whose first row is a header.

    ``pick(header)`` names the column or raises InputError; of duplicate
    names the last one counts, as with csv.DictReader. The rows after the
    header are parsed by numpy's C reader. A file it rejects is read again
    row by row with the csv module and float: blank rows and empty cells
    are skipped, and a row too short to hold the column, or a cell that
    is not a number, is an InputError naming the line. Each read is charged
    first (see _charge_text).
    """
    _charge_text(source, _PARSE_BYTES)
    with _text(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            name = pick(header)
            i = {key: index for index, key in enumerate(header)}[name]
            values = _loadtxt(source, quotechar='"', skiprows=reader.line_num, usecols=i, ndmin=1)
            if values is None:
                _charge_text(source, _FALLBACK_BYTES)
                values = np.array([float(row[i]) for row in reader if row and row[i]])
            return values
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
        except IndexError:
            raise InputError(f"{path}:{reader.line_num}: row has no {name!r} field") from None
        except (ValueError, csv.Error) as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def read_prices(path: str | Path) -> np.ndarray:
    """Read the ``price`` column of a CSV file as a float64 array; other
    columns are ignored.

    The column is the first whose name is ``price`` up to case and
    surrounding spaces; rows are read as ``_read_column`` describes.
    """
    path = Path(path)

    def pick(header: list[str]) -> str:
        match = next((c for c in header if c.strip().lower() == "price"), None)
        if match is None:
            raise InputError(f"{path}: no 'price' column in header {header}")
        return match

    prices = _read_column(path, _source(path), pick)
    if prices.size == 0:
        raise EmptyResult(f"{path}: no prices found")
    return prices
