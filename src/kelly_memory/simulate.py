"""Seeded Monte Carlo simulation of correlated-coin betting.

Outcome paths are sampled with the Philox counter-based generator, one
model.transition_table lookup per step. Paths are processed in fixed
blocks of ``BLOCK_PATHS``; block b draws its uniforms from
``Philox(key=seed).jumped(b)``, so every block owns a disjoint,
scheduling-independent slice of the stream and a given (config, seed)
pair reproduces bit-identical results no matter how the blocks are
executed. Per-path statistics are materialized in block order and
reduced with numpy's pairwise summation, keeping the reduction order
fixed as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model, policy as policy_mod
from .errors import DimensionMismatch, DomainError, NumericalError

BLOCK_PATHS = 8192

# Bytes one Monte Carlo request may allocate. Checked before anything is
# allocated, so an oversized horizon or path count fails with one line
# instead of a MemoryError or the OOM killer.
MEMORY_BUDGET = 2 * 2**30

_QUANTILES = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class SimConfig:
    """A simulation run: game, named policies, path count, seed, start value."""

    spec: model.GameSpec
    policies: tuple[tuple[str, policy_mod.BettorPolicy], ...]
    paths: int = 100_000
    seed: int = 0
    initial_value: float = 1.0

    def __post_init__(self):
        if self.paths < 1:
            raise DomainError(f"path count must be >= 1, got {self.paths}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.initial_value <= 0:
            raise DomainError("initial account value must be positive")
        check_budget(self.spec.n, self.paths, len(self.policies))
        for name, pol in self.policies:
            if (
                pol.kind is policy_mod.PolicyKind.TIME_VARYING
                and len(pol.fractions) != self.spec.n
            ):
                raise DimensionMismatch(
                    f"policy {name!r} has length {len(pol.fractions)}, "
                    f"horizon is {self.spec.n}"
                )


@dataclass(frozen=True)
class PolicyStats:
    """Monte Carlo summary for one policy."""

    name: str
    mean_log_growth: float
    std_error: float
    analytic_elg: float
    final_value_quantiles: tuple[float, float, float]


@dataclass(frozen=True)
class SimResult:
    paths: int
    seed: int
    stats: tuple[PolicyStats, ...]


@dataclass(frozen=True)
class ScenarioRow:
    """Analytic comparison of the three bettors at one horizon."""

    n: int
    elg_kstar: float
    elg_kn: float
    elg_kvec: float
    kstar: float
    kn: float


def check_budget(n: int, paths: int, policies: int) -> None:
    """Reject a request whose monte_carlo_elg allocations could exceed MEMORY_BUDGET.

    The byte count is an upper estimate. Per stage about 96: the p_k list
    and array and the vector bettor's fractions as Python floats. Per block
    cell 24, with room to spare: the uniforms, whose buffer becomes the
    +1/-1 block (8), the head flags (1), the previous block the reduction
    still holds (8) and its boolean temporaries (1). Per path 8 for each
    policy's growth array and 24 for the reduction's temporaries.
    """
    need = 96 * n + 24 * min(paths, BLOCK_PATHS) * n + 8 * (policies + 3) * paths
    if need > MEMORY_BUDGET:
        raise DomainError(
            f"{paths} paths of {n} bets need about {need / 2**30:.3g} GiB, "
            f"over the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )


def sample_path(spec: model.GameSpec, stream_seed: int) -> np.ndarray:
    """One +1/-1 path of length n, deterministic in stream_seed; a Python-float loop."""
    gen = np.random.Generator(np.random.Philox(key=stream_seed))
    table = model.transition_table(spec.params).tolist()
    state, mask, heads = spec.history.state, len(table) - 1, []
    for u in gen.random(spec.n).tolist():
        heads.append(u < table[state])
        state = ((state << 1) | heads[-1]) & mask
    return np.where(heads, 1, -1)


def _blocks(spec: model.GameSpec, paths: int, seed: int):
    """Yield a run's (rows, n) +1/-1 blocks in order, one table gather per step."""
    table = model.transition_table(spec.params)
    for b, start in enumerate(range(0, paths, BLOCK_PATHS)):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        u = gen.random((min(BLOCK_PATHS, paths - start), spec.n))
        heads = np.empty(u.shape, dtype=bool)
        state = np.full(u.shape[0], spec.history.state)
        for k in range(spec.n):
            head = np.less(u[:, k], table[state], out=heads[:, k])
            state = ((state << 1) | head) & (table.size - 1)
        x = u.view(np.int64)  # 2 * heads - 1, written over the uniforms' buffer
        yield np.subtract(np.multiply(heads, 2, out=x), 1, out=x)


def sample_paths(spec: model.GameSpec, paths: int, seed: int) -> np.ndarray:
    """Sample ``paths`` outcome paths as a (paths, n) +1/-1 array."""
    return np.vstack(list(_blocks(spec, paths, seed)))


def run_bettor(
    path: Sequence[int], policy: policy_mod.BettorPolicy, initial_value: float = 1.0
) -> np.ndarray:
    """Account trajectory [V_1, ..., V_n] under V_{k+1} = (1 + K_k X_k) V_k."""
    x = np.asarray(path)
    if policy.kind is policy_mod.PolicyKind.TIME_VARYING:
        if len(policy.fractions) != x.size:
            raise DimensionMismatch(
                f"policy length {len(policy.fractions)} != path length {x.size}"
            )
        ks = np.asarray(policy.fractions)
    else:
        ks = np.full(x.size, policy.fractions[0])
    return initial_value * np.cumprod(1.0 + ks * x)


def _log_growth(x: np.ndarray, pol: policy_mod.BettorPolicy) -> np.ndarray:
    """Per-path log(V_n / V_0) for a block of outcome paths."""
    n = x.shape[1]
    if pol.kind is policy_mod.PolicyKind.TIME_INVARIANT:
        k = pol.fractions[0]
        heads = (x == 1).sum(axis=1)
        return heads * math.log1p(k) + (n - heads) * math.log1p(-k)
    total = np.zeros(x.shape[0])
    for j in range(n):
        k = pol.fractions[j]
        total = total + np.where(x[:, j] == 1, math.log1p(k), math.log1p(-k))
    return total


def _analytic_elg(spec: model.GameSpec, pol: policy_mod.BettorPolicy) -> float:
    if pol.kind is policy_mod.PolicyKind.TIME_INVARIANT:
        return policy_mod.elg_time_invariant(spec, pol.fractions[0])
    return policy_mod.elg_time_varying(spec, pol)


def monte_carlo_elg(config: SimConfig) -> SimResult:
    """Estimate per-bet log growth for every configured policy.

    Returns, per policy, the sample mean and standard error of
    log(V_n/V_0)/n over all paths, the analytic ELG, and the 5/50/95
    percent quantiles of the final account value.
    """
    spec = config.spec
    m_paths = config.paths
    growth = {name: np.empty(m_paths) for name, _ in config.policies}
    offset = 0
    for x in _blocks(spec, m_paths, config.seed):
        for name, pol in config.policies:
            growth[name][offset : offset + len(x)] = _log_growth(x, pol)
        offset += len(x)

    stats = []
    for name, pol in config.policies:
        log_vn = growth[name]
        g = log_vn / spec.n
        mean = float(np.mean(g))
        if m_paths > 1:
            std_error = float(np.std(g, ddof=1) / math.sqrt(m_paths))
        else:
            std_error = 0.0
        with np.errstate(over="ignore"):
            finals = config.initial_value * np.exp(log_vn)
        if finals.max() == math.inf:
            raise NumericalError(
                f"final account value of policy {name!r} overflows, so it is not finite"
            )
        q = np.quantile(finals, _QUANTILES)
        stats.append(
            PolicyStats(
                name=name,
                mean_log_growth=mean,
                std_error=std_error,
                analytic_elg=_analytic_elg(spec, pol),
                final_value_quantiles=(float(q[0]), float(q[1]), float(q[2])),
            )
        )
    return SimResult(paths=m_paths, seed=config.seed, stats=tuple(stats))


def standard_policies(
    spec: model.GameSpec,
) -> tuple[tuple[str, policy_mod.BettorPolicy], ...]:
    """The three benchmark bettors: long-run constant, horizon constant, vector."""
    return (
        ("kstar", policy_mod.BettorPolicy.constant(policy_mod.kelly_limit(spec.params))),
        ("kn", policy_mod.BettorPolicy.constant(policy_mod.kelly_horizon(spec))),
        ("kvec", policy_mod.kelly_timevarying(spec)),
    )


def scenario_table(
    params: model.MemoryParams, history: model.History, n_max: int = 30
) -> list[ScenarioRow]:
    """Analytic ELG of the three bettors for every horizon 1..n_max.

    The long-run bettor ignores temporal correlation and always bets
    2 p_inf - 1; the other two use the horizon-optimal constant fraction
    and the per-stage optimal vector. p_k does not depend on the horizon,
    so the whole table is one p_k pass plus prefix sums, O(n_max): with
    h_n = (p_0 + ... + p_{n-1})/n, K_n = 2 h_n - 1, a constant K earns
    h_n log(1 + K) + (1 - h_n) log(1 - K), and the vector bettor earns
    the running mean of p_k log(2 p_k) + (1 - p_k) log(2 (1 - p_k)).
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    kstar = policy_mod.kelly_limit(params)
    p = model.prob_sequence(model.GameSpec(params=params, history=history, n=n_max))
    horizons = np.arange(1, n_max + 1)
    h = np.cumsum(p) / horizons
    kn = 2.0 * h - 1.0
    elg_kstar = h * math.log1p(kstar) + (1.0 - h) * math.log1p(-kstar)
    elg_kn = h * np.log1p(kn) + (1.0 - h) * np.log1p(-kn)
    stage_kvec = p * np.log1p(2.0 * p - 1.0) + (1.0 - p) * np.log1p(1.0 - 2.0 * p)
    elg_kvec = np.cumsum(stage_kvec) / horizons
    return [
        ScenarioRow(n=n, elg_kstar=a, elg_kn=b, elg_kvec=c, kstar=kstar, kn=k)
        for n, a, b, c, k in zip(
            horizons.tolist(),
            elg_kstar.tolist(),
            elg_kn.tolist(),
            elg_kvec.tolist(),
            kn.tolist(),
        )
    ]
