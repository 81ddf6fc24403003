"""Optimal betting fractions and analytic expected log growth (ELG).

All growth rates are in nats per bet (natural log). For a game of n
even-money bets with expected head fraction h = E(H_n)/n, the analytic ELG
of a constant fraction K is

    ELG(K) = h log(1 + K) + (1 - h) log(1 - K)

maximized at K_n = 2h - 1. A pre-committed time-varying fraction vector is
scored stage by stage against the unconditional head probabilities p_k and
is maximized at 2 p_k - 1. The multi-outcome variant weights log(1 + K x_i)
by expected outcome frequencies and is maximized numerically.
"""

from __future__ import annotations

import enum
import math
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


class PolicyKind(enum.Enum):
    TIME_INVARIANT = "time_invariant"
    TIME_VARYING = "time_varying"


@dataclass(frozen=True)
class BettorPolicy:
    """A constant fraction or a pre-committed vector of per-stage fractions."""

    kind: PolicyKind
    fractions: tuple[float, ...]

    def __post_init__(self):
        if self.kind is PolicyKind.TIME_INVARIANT and len(self.fractions) != 1:
            raise DimensionMismatch("time-invariant policy holds exactly one fraction")
        if not self.fractions:
            raise DimensionMismatch("policy needs at least one fraction")
        # NaN fails the comparison, so it is outside too.
        ks = np.asarray(self.fractions, dtype=float)
        outside = np.flatnonzero(~(np.abs(ks) < 1.0))
        if outside.size:
            k = self.fractions[outside[0]]
            raise DomainError(f"betting fraction {k} outside (-1, 1)")

    @classmethod
    def constant(cls, k: float) -> "BettorPolicy":
        return cls(PolicyKind.TIME_INVARIANT, (float(k),))

    @classmethod
    def varying(cls, ks: Sequence[float]) -> "BettorPolicy":
        return cls(PolicyKind.TIME_VARYING, tuple(np.asarray(ks, dtype=float).tolist()))

    def fraction_at(self, k: int) -> float:
        if self.kind is PolicyKind.TIME_INVARIANT:
            return self.fractions[0]
        return self.fractions[k]


@dataclass(frozen=True)
class PayoffModel:
    """Possible per-unit payoffs and their expected long-run frequencies."""

    outcomes: tuple[float, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self):
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
    if not -1.0 < k < 1.0:
        raise DomainError(f"betting fraction {k} outside (-1, 1)")
    h = model.expected_heads(spec) / spec.n
    return h * math.log1p(k) + (1.0 - h) * math.log1p(-k)


def elg_time_varying(spec: model.GameSpec, policy: BettorPolicy) -> float:
    """Analytic ELG of a pre-committed fraction vector, in one O(n) pass.

    The mean over stages of p_k log(1 + K_k) + (1 - p_k) log(1 - K_k),
    evaluated on whole arrays over the game's one p_k sequence. A
    time-invariant policy is scored as the equivalent constant vector, so
    this agrees with elg_time_invariant in that case.
    """
    if policy.kind is PolicyKind.TIME_VARYING:
        if len(policy.fractions) != spec.n:
            raise DimensionMismatch(
                f"policy length {len(policy.fractions)} != horizon {spec.n}"
            )
        ks = np.asarray(policy.fractions)
    else:
        ks = policy.fractions[0]
    probs = spec.probs
    return float(np.sum(probs * np.log1p(ks) + (1.0 - probs) * np.log1p(-ks))) / spec.n


def elg_multioutcome(payoff: PayoffModel, k: float) -> float:
    """ELG sum_i freq_i log(1 + k x_i); zero-frequency outcomes are skipped."""
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
