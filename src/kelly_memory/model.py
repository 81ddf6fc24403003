"""Probability dynamics of a binary process with Markov memory.

A coin with memory depth m has head probability that is affine in the
previous m outcomes:

    Pr(X_k = 1 | X_{k-1}, ..., X_{k-m}) = w0 + sum_i wi * X_{k-i}

with outcomes coded +1 (head) and -1 (tail). Validity of the coefficient
vector requires |w0 - 1/2| + sum_i |wi| < 1/2 (the "hyperdiamond"), which
keeps every conditional probability inside (0, 1). MemoryParams holds
(w0, ..., wm) and reads m from its length. The kernel is
``transition_table``, the head probability after each of the 2^m windows.
The module also gives the unconditional p_k, their steady state, expected
head counts, a companion-form realization and a path-enumeration oracle.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import index, mul
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    HorizonTooLarge,
    HyperdiamondViolation,
    UnsupportedDepth,
)

# Interior margin for the hyperdiamond constraint. The validity region is
# enforced as a closed set |w0 - 1/2| + sum|wi| <= DIAMOND_RADIUS, shrunk by
# EPS_MARGIN so that feasibility is decidable in floating point.
EPS_MARGIN = 1e-9
DIAMOND_RADIUS = 0.5 - EPS_MARGIN

# Caps on n for the 2^n path-enumeration oracle and on m for the 2^m table.
MAX_ENUM_HORIZON = 20
MAX_TABLE_DEPTH = 20

# Bytes one request may allocate. Checked before anything is allocated, so
# an oversized horizon or path count fails with one line instead of a
# MemoryError or the OOM killer.
MEMORY_BUDGET = 2 * 2**30

# Upper estimate of the bytes a command holds per stage of its horizon, from
# tracemalloc peaks (TestStageBytes). The largest is scenario's JSON, about
# 610 B: its columns' texts and its row texts; kelly holds up to about 220 B
# (p_k, kvec and its text) on a game that never repeats.
STAGE_BYTES = 768


def require_integer(value, what: str) -> int:
    """``value`` as an int, or DomainError if it is not an integer (2.5, NaN, 2.0, True)."""
    try:
        if not isinstance(value, bool):  # an int subclass, but never a count
            return index(value)
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def require_real(value, what: str) -> float:
    """``value`` as a float, or DomainError if it is not a real number (True, "1", [0.5], 10**400)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DomainError(f"{what} must be a real number, got {reprlib.repr(value)}")


def as_numbers(values) -> np.ndarray | None:
    """``values`` as numpy reads it, or None unless that is an array of ints or floats.

    The one reader of a caller's list of numbers. numpy reads [0.5, True]
    as [0.5, 1.0], so a flat sequence (an ndarray's dtype says it all) is
    scanned for a bool, a numpy bool or a 0-d bool array, unless one
    check of its entries' types finds only plain ints and floats. The
    array may share memory with ``values``.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        return None
    scan = (
        array.ndim == 1
        and not isinstance(values, np.ndarray)
        and not {int, float}.issuperset(map(type, values))
    )
    if array.dtype.kind not in "iuf" or scan and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in values
    ):
        return None
    return array


def require_reals(values, what: str) -> np.ndarray:
    """``values`` as a float64 vector, or DomainError unless ``as_numbers``
    reads it as a flat array: not strings, bools (one in a list of numbers
    included), nested or ragged sequences, or ints past 64 bits."""
    array = as_numbers(values)
    if array is None or array.ndim != 1:
        raise DomainError(f"{what} must be a sequence of real numbers, got {reprlib.repr(values)}")
    return array.astype(float, copy=False)


def check_memory(need: int, what: str) -> int:
    """The bytes of MEMORY_BUDGET left once ``what`` takes ``need``; DomainError past it.

    The one budget test: every allocation a request sizes is charged here
    before it is made.
    """
    if need > MEMORY_BUDGET:
        # Past 2**1024 bytes the size has no float, so the message gives a bound.
        size = f"about {need / 2**30:.3g}" if need < 2**1000 else "at least 2**970"
        raise DomainError(f"{what} need {size} GiB, over the {MEMORY_BUDGET / 2**30:g} GiB budget")
    return MEMORY_BUDGET - need


def check_stages(n: int) -> None:
    """DomainError when a horizon of ``n`` stages, STAGE_BYTES each, exceeds MEMORY_BUDGET."""
    check_memory(STAGE_BYTES * n, f"{n} bets")


def diamond_distance(omega: Sequence[float]) -> float:
    """Distance |w0 - 1/2| + sum |wi| from the hyperdiamond center, summed left to right.

    The one distance of the hyperdiamond test: a point is valid when it is
    at most DIAMOND_RADIUS. Callers pass Python floats, as MemoryParams
    stores them, so that every caller rounds alike.
    """
    return abs(omega[0] - 0.5) + sum(abs(w) for w in omega[1:])


@dataclass(frozen=True)
class MemoryParams:
    """Coefficients (w0, ..., wm) of the conditional head probability; m = len(omega) - 1.

    ``omega`` may be any flat sequence of real numbers; it is stored as a
    tuple of floats.
    """

    omega: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(require_reals(self.omega, "omega").tolist()))
        if self.m < 1:
            raise DimensionMismatch(f"memory depth must be >= 1, got {self.m}")
        # NaN fails every comparison, so it would slip past the excess test.
        if not all(math.isfinite(w) for w in self.omega):
            raise DomainError(f"omega coefficients must be finite, got {self.omega}")
        excess = self.l1_distance - DIAMOND_RADIUS
        if excess > 0:
            raise HyperdiamondViolation(excess)

    @property
    def m(self) -> int:
        """Memory depth: the number of lagged outcomes."""
        return len(self.omega) - 1

    @property
    def l1_distance(self) -> float:
        """Distance |w0 - 1/2| + sum |wi| from the hyperdiamond center."""
        return diamond_distance(self.omega)

    @property
    def margin(self) -> float:
        """Slack remaining inside the shrunk hyperdiamond."""
        return DIAMOND_RADIUS - self.l1_distance


@dataclass(frozen=True)
class History:
    """The m outcomes observed before bet 0, most recent first.

    ``values[0]`` is x_{-1}, ``values[1]`` is x_{-2}, and so on. The
    entries must be the integers +1 and -1; they are stored as a tuple.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        try:
            values = tuple(require_integer(v, "history entry") for v in self.values)
        except TypeError:  # not iterable
            raise DomainError(f"history must be a sequence, got {self.values!r}") from None
        if any(v not in (-1, 1) for v in values):
            raise DimensionMismatch(f"history entries must be +1/-1, got {values}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def state(self) -> int:
        """Bit-packed window, the transition_table index: bit i-1 set when x_{-i} = +1."""
        return sum(1 << i for i, v in enumerate(self.values) if v == 1)

    @property
    def induced_probs(self) -> tuple[float, ...]:
        """Degenerate initial probabilities p_{-i} = (x_{-i} + 1)/2, most recent first."""
        return tuple((v + 1) / 2 for v in self.values)


@dataclass(frozen=True)
class GameSpec:
    """A full betting problem: coefficients, initial history, and horizon (stored as an int)."""

    params: MemoryParams
    history: History
    n: int

    def __post_init__(self):
        if len(self.history) != self.params.m:
            raise DimensionMismatch(
                f"history length {len(self.history)} != memory depth {self.params.m}"
            )
        n = require_integer(self.n, "horizon")
        if n < 1:
            raise DimensionMismatch(f"horizon must be >= 1, got {n}")
        object.__setattr__(self, "n", n)

    @cached_property
    def probs(self) -> np.ndarray:
        """Read-only [p_0, ..., p_{n-1}] from one prob_sequence pass.

        Computed on first use and shared by every analytic quantity of this
        game, so one request walks the p_k recursion once.
        """
        p = prob_sequence(self)
        p.flags.writeable = False
        return p

    @cached_property
    def _expected_heads(self) -> float:
        # Cached beside probs: one request's kelly_horizon and constant
        # bettors' ELGs all read the same sum.
        return float(prefix_sums(self.probs)[-1])


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Companion-form realization (A, b, c) of the p_k recursion.

    The state is v_k = [p_{k-m+1}, ..., p_k]^T, so v0 holds the induced
    initial probabilities (p_{-m}, ..., p_{-1}) and one update produces p_0
    in the last slot.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    v0: np.ndarray

    def probability_at(self, k: int) -> float:
        """p_k via c (A^k w0 + (I - A)^{-1} (I - A^k) b).

        w0 = A v0 + b is the state after the first update, the one whose
        last entry is p_0; powers of A then walk the recursion forward.
        """
        k = require_integer(k, "k")
        if k < 0:
            raise DomainError(f"k must be >= 0, got {k}")
        m = self.A.shape[0]
        eye = np.eye(m)
        w0 = self.A @ self.v0 + self.b
        a_k = np.linalg.matrix_power(self.A, k)
        accumulated = np.linalg.solve(eye - self.A, (eye - a_k) @ self.b)
        return float(self.c @ (a_k @ w0 + accumulated))

    def steady_state(self) -> float:
        """Fixed point c (I - A)^{-1} b."""
        m = self.A.shape[0]
        return float(self.c @ np.linalg.solve(np.eye(m) - self.A, self.b))


def validate_params(omega: Sequence[float]) -> MemoryParams:
    """Validate a coefficient vector against the hyperdiamond constraint.

    Raises HyperdiamondViolation (carrying the excess), DomainError or
    DimensionMismatch.
    """
    return MemoryParams(omega=omega)


def transition_table(params: MemoryParams) -> np.ndarray:
    """Head probability w0 + sum_i wi x_{k-i} after each window, by History.state.

    Summed as ((w0 + w1 x1) + w2 x2) + ..., the order seeded streams rely on.
    After outcome x_k the state s moves to ((s << 1) | [x_k = +1]) & (2^m - 1).
    """
    if params.m > MAX_TABLE_DEPTH:
        raise UnsupportedDepth(f"table needs m <= {MAX_TABLE_DEPTH}, got m = {params.m}")
    table = np.array([params.omega[0]])
    for w in params.omega[1:]:  # each lag doubles the table and takes the new top bit
        table = np.concatenate([table - w, table + w])
    return table


def prob_sequence(spec: GameSpec) -> np.ndarray:
    """Unconditional head probabilities [p_0, ..., p_{n-1}] in one O(n m) pass.

    Propagates p_k = w0 - sum wi + 2 sum wi p_{k-i}, seeded with the induced
    initial conditions p_{-i} = (x_{-i} + 1)/2. p_k does not depend on the
    horizon, so every horizon up to n reads a prefix of this one array. The
    loop runs on Python floats: a numpy call per step costs more than the
    m multiply-adds it would do. Every analytic request walks this pass, so
    it checks the horizon against MEMORY_BUDGET before allocating.

    The pass stops at the first repeated window it sees. The next p
    depends only on the last m values, so once that window equals an
    earlier one the rest of the sequence repeats the cycle between them
    bit for bit, and the tail is filled with copies of it. Repeats are
    found Brent-style, against a copy of the window taken at stages 1, 2,
    4, ..., in O(1) extra memory. p stays inside (0, 1), never NaN or
    -0.0, so == on the window means equal bits.
    """
    check_stages(spec.n)
    w = spec.params.omega[1:]
    drift = spec.params.omega[0] - sum(w)
    # lags[i-1] holds p_{k-i}; starts at the induced initial conditions.
    lags = deque(spec.history.induced_probs, maxlen=spec.params.m)
    out = []
    # The checkpoint: the window after stage ``at``, and its newest value.
    saved, head, at, nxt = None, None, 0, 1
    for k in range(spec.n):
        p = drift + 2.0 * sum(map(mul, w, lags))
        out.append(p)
        lags.appendleft(p)
        if p == head and lags == saved:
            break
        if k == nxt:
            saved, head, at, nxt = lags.copy(), p, k, 2 * k
    probs = np.array(out)
    rest = spec.n - probs.size
    if rest:  # stopped at stage k: p_{k+1}, p_{k+2}, ... repeat p_{at+1}, ..., p_k
        cycle = probs[at + 1 :]  # np.tile: np.resize concatenates one array per copy
        probs = np.concatenate((probs, np.tile(cycle, -(-rest // cycle.size))[:rest]))
    return probs


def closed_form_p_k(params: MemoryParams, p0: float, k: int) -> float:
    """Depth-1 closed form p_k = (2 w1)^k p_0 + [1 - (2 w1)^k] p_inf."""
    if params.m != 1:
        raise UnsupportedDepth(f"closed form requires m = 1, got m = {params.m}")
    k, p0 = require_integer(k, "k"), require_real(p0, "p0")
    if k < 0 or not 0.0 <= p0 <= 1.0:
        raise DomainError(f"closed form needs k >= 0 and p0 in [0, 1], got k = {k}, p0 = {p0}")
    decay = _power(2.0 * params.omega[1], k, "k")
    return decay * p0 + (1.0 - decay) * steady_state(params)


def _power(r: float, k: int, what: str) -> float:
    """r**k, or DomainError for a count ``k`` too large to convert to a float."""
    try:
        return r**k
    except OverflowError:
        raise DomainError(f"{what} is too large for a float: {k.bit_length()} bits") from None


def steady_state(params: MemoryParams) -> float:
    """Long-run head probability (w0 - sum wi) / (1 - 2 sum wi)."""
    total = sum(params.omega[1:])
    return (params.omega[0] - total) / (1.0 - 2.0 * total)


def lambda_n(params: MemoryParams, n: int) -> float:
    """Weight of p_0 versus p_inf in the depth-1 horizon optimum.

    lambda_n = (1/n) [1 - (2 w1)^n] / (1 - 2 w1); equals 1 at n = 1 and
    decays to 0 as n grows.
    """
    if params.m != 1:
        raise UnsupportedDepth(f"lambda_n requires m = 1, got m = {params.m}")
    n = require_integer(n, "n")
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    r = 2.0 * params.omega[1]
    return (1.0 - _power(r, n, "n")) / (1.0 - r) / n


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Running sums [v_0, v_0 + v_1, ...] of a float vector, compensated.

    Every horizon rule sums with it. Entry k reads values[:k+1] alone, so
    a rule's horizon-n value is entry n - 1 of its all-horizons column,
    bit for bit. TwoSum (Ogita, Rump and Oishi 2005) gives each np.cumsum
    step's rounding error exactly; adding back their running sum makes
    each entry as accurate as a sum in twice the precision, rounded once.
    """
    s = np.cumsum(values)
    # s[k] = fl(s[k-1] + v[k]), and the exact error of that step is
    # (s[k-1] - (s[k] - t)) + (v[k] - t), with t = s[k] - s[k-1].
    t = s[1:] - s[:-1]
    err = values[1:] - t
    np.subtract(s[1:], t, out=t)
    np.subtract(s[:-1], t, out=t)
    err += t
    s[1:] += np.cumsum(err, out=err)
    return s


def expected_heads(spec: GameSpec) -> float:
    """Expected number of heads over the horizon, sum_k p_k, from prefix_sums.

    Computed on first use and cached on the spec, as its probs are.
    """
    return spec._expected_heads


def state_space(params: MemoryParams, history: History) -> StateSpace:
    """Companion realization of the p_k recursion for this game.

    A carries ones on the superdiagonal and [2 wm, ..., 2 w1] in its last
    row; b = [0, ..., 0, w0 - sum wi]; c selects the last state entry.
    Charged 40 m^2 bytes, five m x m matrices: the traced peak of building
    it and calling probability_at.
    """
    if len(history) != params.m:
        raise DimensionMismatch(
            f"history length {len(history)} != memory depth {params.m}"
        )
    m = params.m
    check_memory(40 * m * m, f"state matrices of depth {m}")
    w = np.asarray(params.omega[1:])
    A = np.zeros((m, m))
    A[: m - 1, 1:] = np.eye(m - 1)
    A[m - 1, :] = 2.0 * w[::-1]
    b = np.zeros(m)
    b[m - 1] = params.omega[0] - w.sum()
    c = np.zeros(m)
    c[m - 1] = 1.0
    # v0 = [p_{-m}, ..., p_{-1}]: induced probabilities in chronological order.
    v0 = np.asarray(history.induced_probs[::-1], dtype=float)
    return StateSpace(A=A, b=b, c=c, v0=v0)


def all_paths(n: int) -> np.ndarray:
    """All 2^n outcome paths as a (2^n, n) array of +1/-1, one path per row."""
    n = require_integer(n, "horizon")
    if n < 0:
        raise DomainError(f"horizon must be >= 0, got {n}")
    if n > MAX_ENUM_HORIZON:
        raise HorizonTooLarge(
            f"enumeration capped at n = {MAX_ENUM_HORIZON}, got n = {n}"
        )
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int64)


def path_probabilities(spec: GameSpec, paths: np.ndarray) -> np.ndarray:
    """Probability of each row of ``paths`` under the conditional factorization.

    P_X = prod_k Pr(X_k | X_{k-1}, ..., X_{k-m}), with lags before stage 0
    taken from the game history.
    """
    table = transition_table(spec.params)
    state = np.full(paths.shape[0], spec.history.state)
    probs = np.ones(paths.shape[0])
    for k in range(spec.n):
        heads = paths[:, k] == 1
        probs = probs * np.where(heads, table[state], 1.0 - table[state])
        state = ((state << 1) | heads) & (table.size - 1)
    return probs


def enumerate_expected_heads(spec: GameSpec) -> float:
    """Brute-force E(H_n) by summing P_X * H_n(X) over all 2^n paths.

    Independent of the p_k recursion; guards the horizon at 2^20 paths.
    """
    paths = all_paths(spec.n)
    probs = path_probabilities(spec, paths)
    heads = (paths == 1).sum(axis=1)
    return float(probs @ heads)
