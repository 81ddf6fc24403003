"""Optimal betting fractions and analytic expected log growth (ELG).

All growth rates are in nats per bet (natural log). For a game of n
even-money bets with expected head fraction h = E(H_n)/n, the analytic ELG
of a constant fraction K is

    ELG(K) = h log(1 + K) + (1 - h) log(1 - K)

maximized at K_n = 2h - 1. A pre-committed time-varying fraction vector is
scored stage by stage against the unconditional head probabilities p_k and
is maximized at 2 p_k - 1. A BettorPolicy holds either kind as one array,
shape () for a constant and (n,) for a vector, and elg scores it by that
shape. The multi-outcome variant weights log(1 + K x_i) by expected
outcome frequencies and is maximized numerically.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .errors import DimensionMismatch, DomainError, NumericalError

# Stand-in bound for a missing log barrier in the multi-outcome search.
UNBOUNDED_FRACTION = 1.0e6

# Relative inward shrink of the feasible interval's ends before searching,
# so the objective is never evaluated at a nonpositive log argument. An
# absolute shrink is lost to rounding once |barrier| > ~1e4.
_EDGE_SHRINK = 1e-12

_SEARCH_TOL = 1e-10
_MAX_SEARCH_ITER = 200


@dataclass(frozen=True, eq=False)
class BettorPolicy:
    """Betting fractions in one read-only float64 array, whose shape is the kind.

    Shape () is a constant fraction, bet at every stage; shape (n,) is a
    pre-committed vector of per-stage fractions. Policies compare by
    identity: nothing compares them by value.
    """

    fractions: np.ndarray

    def __post_init__(self):
        ks = model.as_numbers(self.fractions)
        if ks is None:
            msg = f"betting fractions must be real numbers, got {reprlib.repr(self.fractions)}"
            raise DomainError(msg)
        if ks.ndim > 1:
            raise DimensionMismatch(f"policy holds one fraction or a vector, got shape {ks.shape}")
        if ks.size == 0:
            raise DimensionMismatch("policy needs at least one fraction")
        ks = ks.astype(float)  # the one copy, which the caller cannot change
        # NaN fails the comparison, so it is outside too.
        outside = np.flatnonzero(~(np.abs(ks) < 1.0))
        if outside.size:
            raise DomainError(f"betting fraction {float(ks.flat[outside[0]])} outside (-1, 1)")
        ks.flags.writeable = False
        object.__setattr__(self, "fractions", ks)

    @classmethod
    def constant(cls, k: float) -> "BettorPolicy":
        pol = cls(k)
        if pol.fractions.ndim != 0:
            raise DimensionMismatch("a constant policy holds exactly one fraction")
        return pol

    @classmethod
    def varying(cls, ks: Sequence[float]) -> "BettorPolicy":
        pol = cls(ks)
        if pol.fractions.ndim != 1:
            raise DimensionMismatch("a time-varying policy holds a vector of fractions")
        return pol


@dataclass(frozen=True)
class PayoffModel:
    """Possible per-unit payoffs and their expected long-run frequencies, as tuples of floats."""

    outcomes: tuple[float, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self):
        for name in ("outcomes", "frequencies"):
            values = tuple(model.require_reals(getattr(self, name), name).tolist())
            object.__setattr__(self, name, values)
        if len(self.outcomes) < 2:
            raise DimensionMismatch("need at least two outcomes")
        if len(self.outcomes) != len(self.frequencies):
            raise DimensionMismatch("outcomes and frequencies differ in length")
        if not all(math.isfinite(v) for v in self.outcomes + self.frequencies):
            raise DomainError("outcomes and frequencies must be finite")
        # -1 itself is allowed: it is the even-money loss, kept feasible by
        # the log barrier K < 1.
        if any(x < -1.0 for x in self.outcomes):
            raise DomainError("outcomes below -1 lose more than the stake")
        if any(f < 0.0 for f in self.frequencies):
            raise DomainError("frequencies must be nonnegative")
        if abs(sum(self.frequencies) - 1.0) > 1e-12:
            raise DomainError(
                f"frequencies sum to {sum(self.frequencies)!r}, expected 1"
            )


@dataclass(frozen=True)
class MultiOutcomeOptimum:
    """Argmax of the multi-outcome ELG; ``unbounded`` marks a truncated search."""

    fraction: float
    elg: float
    unbounded: bool = False


def kelly_classical(p: float) -> float:
    """Memoryless even-money optimum K* = 2p - 1."""
    p = model.require_real(p, "head probability")
    if not 0.0 < p < 1.0:
        raise DomainError(f"head probability {p} outside (0, 1)")
    return 2.0 * p - 1.0


def kelly_horizon(spec: model.GameSpec) -> float:
    """Horizon-optimal constant fraction K_n = 2 E(H_n)/n - 1."""
    return 2.0 * model.expected_heads(spec) / spec.n - 1.0


def kelly_limit(params: model.MemoryParams) -> float:
    """Long-run fraction 2 p_inf - 1, the limit of kelly_horizon."""
    return 2.0 * model.steady_state(params) - 1.0


def kelly_timevarying(spec: model.GameSpec) -> BettorPolicy:
    """Per-stage optimal vector (2 p_0 - 1, ..., 2 p_{n-1} - 1)."""
    return BettorPolicy.varying(2.0 * spec.probs - 1.0)


def elg_time_invariant(spec: model.GameSpec, k: float) -> float:
    """Analytic ELG of betting the constant fraction k every stage."""
    k = model.require_real(k, "betting fraction")
    if not -1.0 < k < 1.0:
        raise DomainError(f"betting fraction {k} outside (-1, 1)")
    h = model.expected_heads(spec) / spec.n
    return h * math.log1p(k) + (1.0 - h) * math.log1p(-k)


def elg_time_varying(spec: model.GameSpec, policy: BettorPolicy) -> float:
    """Analytic ELG of a pre-committed fraction vector, in one O(n) pass.

    The mean over stages of p_k log(1 + K_k) + (1 - p_k) log(1 - K_k),
    evaluated on whole arrays over the game's one p_k sequence. A constant
    policy broadcasts over the stages, so this agrees with
    elg_time_invariant in that case, up to rounding.
    """
    ks = policy.fractions
    if ks.ndim and ks.size != spec.n:
        raise DimensionMismatch(f"policy length {ks.size} != horizon {spec.n}")
    probs = spec.probs
    return float(np.sum(probs * np.log1p(ks) + (1.0 - probs) * np.log1p(-ks))) / spec.n


def elg(spec: model.GameSpec, policy: BettorPolicy) -> float:
    """Analytic ELG of any policy, chosen by the shape of its fractions.

    A constant goes through elg_time_invariant's h log(1 + K) arithmetic,
    which rounds differently from summing it stage by stage.
    """
    if policy.fractions.ndim:
        return elg_time_varying(spec, policy)
    return elg_time_invariant(spec, float(policy.fractions))


def elg_multioutcome(payoff: PayoffModel, k: float) -> float:
    """ELG sum_i freq_i log(1 + k x_i); zero-frequency outcomes are skipped."""
    k = model.require_real(k, "betting fraction")
    if not math.isfinite(k):
        raise DomainError(f"betting fraction must be finite, got {k}")
    total = 0.0
    for x, f in zip(payoff.outcomes, payoff.frequencies):
        if f == 0.0:
            continue
        g = 1.0 + k * x
        if g <= 0.0:
            raise DomainError(f"1 + K x = {g} nonpositive for outcome {x}")
        if g == math.inf:
            raise NumericalError(f"1 + K x overflows for K = {k} and outcome {x}")
        total += f * math.log(g)
    return total


def _elg_derivative(payoff: PayoffModel, k: float) -> float:
    return sum(
        f * x / (1.0 + k * x)
        for x, f in zip(payoff.outcomes, payoff.frequencies)
        if f > 0.0
    )


def optimize_multioutcome(payoff: PayoffModel) -> MultiOutcomeOptimum:
    """Maximize the concave multi-outcome ELG over the feasible interval.

    The interval is bounded by the log barriers -1/x_i of positive-frequency
    outcomes; a missing barrier is replaced by +-UNBOUNDED_FRACTION and the
    result is flagged unbounded when the maximizer lands on such a stand-in
    bound. The search bisects on the strictly decreasing derivative, which
    at the shrunk ends is finite or +-inf, never NaN.
    """
    active = [
        (x, f) for x, f in zip(payoff.outcomes, payoff.frequencies) if f > 0.0
    ]
    pos = [x for x, _ in active if x > 0.0]
    neg = [x for x, _ in active if x < 0.0]
    k_lo = max((-1.0 / x for x in pos), default=-UNBOUNDED_FRACTION)
    k_hi = min((-1.0 / x for x in neg), default=UNBOUNDED_FRACTION)
    # k_lo < 0 < k_hi, so scaling both toward 0 shrinks the interval.
    lo = k_lo * (1.0 - _EDGE_SHRINK)
    hi = k_hi * (1.0 - _EDGE_SHRINK)

    if all(x == 0.0 for x, _ in active):
        # Payoff never moves; any fraction is optimal, so do not bet.
        return MultiOutcomeOptimum(fraction=0.0, elg=0.0)

    g_lo = _elg_derivative(payoff, lo)
    g_hi = _elg_derivative(payoff, hi)
    if g_lo <= 0.0:
        # Decreasing from the left end: maximizer truncated at the stand-in
        # lower bound (a genuine barrier would push the derivative to +inf).
        return MultiOutcomeOptimum(
            fraction=lo, elg=elg_multioutcome(payoff, lo), unbounded=not pos
        )
    if g_hi >= 0.0:
        return MultiOutcomeOptimum(
            fraction=hi, elg=elg_multioutcome(payoff, hi), unbounded=not neg
        )

    for _ in range(_MAX_SEARCH_ITER):
        mid = 0.5 * (lo + hi)
        if _elg_derivative(payoff, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _SEARCH_TOL:
            break
    k = 0.5 * (lo + hi)
    return MultiOutcomeOptimum(fraction=k, elg=elg_multioutcome(payoff, k))
