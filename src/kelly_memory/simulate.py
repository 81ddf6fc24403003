"""Seeded Monte Carlo simulation of correlated-coin betting.

Outcome paths are sampled with the Philox counter-based generator, one
model.transition_table lookup per step. Paths are processed in fixed
blocks of ``BLOCK_PATHS``; block b draws its uniforms from
``Philox(key=seed).jumped(b)``, so every block owns a disjoint,
scheduling-independent slice of the stream. The blocks are spread over
one worker thread per usable CPU, and each block writes its own rows of
the per-path results, so a given (config, seed) pair reproduces
bit-identical results at any thread count. A block is sampled as head
flags, one row per step, and each policy's log growth is summed straight
from them. Per-path statistics are reduced with numpy's pairwise
summation over the whole run, keeping the reduction order fixed as well.
The quantiles of the final values are exact: each is selected by one
single-kth partition and interpolated as np.quantile does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import model, policy as policy_mod
from .errors import DimensionMismatch, DomainError, NumericalError
from .model import MEMORY_BUDGET, STAGE_BYTES

BLOCK_PATHS = 8192

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
        seed = model.require_integer(self.seed, "seed")
        if not 0 <= seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if not 0 < self.initial_value < math.inf:
            raise DomainError("initial account value must be positive and finite")
        check_budget(self.spec.n, self.paths, len(self.policies))
        for name, pol in self.policies:
            ks = pol.fractions
            if ks.ndim and ks.size != self.spec.n:
                raise DimensionMismatch(
                    f"policy {name!r} has length {ks.size}, horizon is {self.spec.n}"
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


def _usable_cpus() -> int:
    """CPUs this process may run on, or all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _worker_bytes(rows: int, n: int) -> int:
    """One sampling worker's buffers, for blocks of ``rows`` paths of ``n`` steps.

    Per block cell 17: the uniforms (8), their transposed copy (8) and the
    head flags (1). Per row 64: the state, the thresholds and the vector
    bettors' index and term (8 each), and up to four temporaries of the
    constant bettors' sums.
    """
    return 17 * rows * n + 64 * rows


def _workers(n: int, paths: int, held: int) -> int:
    """Worker threads for a run of ``paths`` paths of ``n`` steps.

    ``held`` counts the bytes the run holds besides its workers' buffers.
    The request is accepted when it fits in MEMORY_BUDGET with one worker,
    so the same request is accepted on every machine. It then gets one
    worker per usable CPU, but no more workers than blocks, and no more
    than fit in the budget.
    """
    paths = model.require_integer(paths, "path count")
    if paths < 1:
        raise DomainError(f"path count must be >= 1, got {paths}")
    worker = _worker_bytes(min(paths, BLOCK_PATHS), n)
    need = held + worker
    if need > MEMORY_BUDGET:
        raise DomainError(
            f"{paths} paths of {n} bets need about {need / 2**30:.3g} GiB, "
            f"over the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )
    blocks = -(-paths // BLOCK_PATHS)
    return min(_usable_cpus(), blocks, 1 + (MEMORY_BUDGET - need) // worker)


def check_budget(n: int, paths: int, policies: int) -> int:
    """Reject a request whose monte_carlo_elg allocations could exceed MEMORY_BUDGET.

    The byte count is an upper estimate: STAGE_BYTES per stage, the
    analytic layer's bound, which covers the p_k pass and the vector
    bettor's fractions; one sampling worker's buffers; and per path 8 for
    each policy's growth array, the statistics' scratch array and
    np.std's temporary. Returns the number of worker threads the run uses.
    """
    return _workers(n, paths, STAGE_BYTES * n + 8 * (policies + 2) * paths)


def sample_path(spec: model.GameSpec, stream_seed: int) -> np.ndarray:
    """One +1/-1 path of length n, deterministic in stream_seed; a Python-float loop."""
    gen = np.random.Generator(np.random.Philox(key=stream_seed))
    table = model.transition_table(spec.params).tolist()
    state, mask, heads = spec.history.state, len(table) - 1, []
    for u in gen.random(spec.n).tolist():
        heads.append(u < table[state])
        state = ((state << 1) | heads[-1]) & mask
    return np.where(heads, 1, -1)


def _blocks(table, state0, n, rows, seed, jobs):
    """Yield (heads, start, stop) for each (block, start, stop) job, in order.

    ``heads`` holds the block's head flags, one row per step; it is
    overwritten by the next block. The buffers live as long as the
    generator, and only numpy runs here.
    """
    u = np.empty((rows, n))
    ut = np.empty((n, rows))
    heads = np.empty((n, rows), dtype=bool)
    state = np.empty(rows, dtype=np.intp)
    threshold = np.empty(rows)
    mask = table.size - 1
    for b, start, stop in jobs:
        r = stop - start
        np.random.Generator(np.random.Philox(key=seed).jumped(b)).random(out=u[:r])
        np.copyto(ut[:, :r], u[:r].T)
        s, t, h = state[:r], threshold[:r], heads[:, :r]
        s.fill(state0)
        for k in range(n):
            np.take(table, s, out=t, mode="clip")  # "raise" would buffer the output
            np.less(ut[k, :r], t, out=h[k])
            np.left_shift(s, 1, out=s)
            np.bitwise_or(s, h[k], out=s)
            np.bitwise_and(s, mask, out=s)
        yield h, start, stop


def _run_blocks(spec: model.GameSpec, paths: int, seed: int, workers: int, work) -> None:
    """Sample every block of a run, split statically over ``workers`` threads.

    Each thread calls ``work`` once, on a generator of its blocks (see
    _blocks), and writes the rows of the output that those blocks own.
    Workers call no public function of the package.
    """
    # Imported here, so the CLI's start-up does not pay about 8 ms for it.
    from concurrent.futures import ThreadPoolExecutor

    table = model.transition_table(spec.params)
    jobs = [
        (b, start, min(start + BLOCK_PATHS, paths))
        for b, start in enumerate(range(0, paths, BLOCK_PATHS))
    ]
    args = (table, spec.history.state, spec.n, min(paths, BLOCK_PATHS), seed)
    with ThreadPoolExecutor(workers) as pool:
        futures = [
            pool.submit(lambda own: work(_blocks(*args, own)), jobs[w::workers])
            for w in range(workers)
        ]
        for future in futures:
            future.result()


def sample_paths(spec: model.GameSpec, paths: int, seed: int) -> np.ndarray:
    """Sample ``paths`` outcome paths as a (paths, n) +1/-1 array.

    The array and one worker's buffers must fit in MEMORY_BUDGET; a larger
    request raises DomainError before anything is allocated.
    """
    workers = _workers(spec.n, paths, 8 * paths * spec.n)
    x = np.empty((paths, spec.n), dtype=np.int64)

    def write(blocks):
        for heads, start, stop in blocks:
            block = x[start:stop]
            np.multiply(heads.T, 2, out=block)
            np.subtract(block, 1, out=block)

    _run_blocks(spec, paths, seed, workers, write)
    return x


def _quantiles(x: np.ndarray) -> tuple[float, ...]:
    """np.quantile(x, _QUANTILES) by one single-kth partition per quantile.

    numpy's partition is about ten times slower given several kth at once,
    as np.quantile gives it, than given one. Working from the largest
    quantile down, each partition leaves the entries below its index in
    front of it, so the next one searches only those. A value interpolates
    between the order statistics j = floor((size - 1) q) and j + 1 with
    numpy's _lerp arithmetic, so it equals np.quantile's bit for bit. The
    one exception is the sign of a zero result when x holds both 0.0 and
    -0.0: which of them a partition puts at an index is not fixed, by
    either method. (Final account values are never -0.0.) Reorders x.
    """
    if x.size == 1:  # np.quantile's top clamp: every quantile is the one entry
        return (float(x[0]),) * len(_QUANTILES)
    values = []
    hi, upper = x.size, None
    for q in reversed(_QUANTILES):
        v = (x.size - 1) * q
        j = math.floor(v)
        if j + 1 < hi:
            x[:hi].partition(j)
            upper = float(x[j + 1 : hi].min())
        # otherwise j is the last step's index, and upper is still its neighbour
        hi = j + 1
        lower, t = float(x[j]), v - j
        d = upper - lower
        values.append(lower + d * t if t < 0.5 else upper - d * (1 - t))
    return tuple(reversed(values))


def monte_carlo_elg(config: SimConfig) -> SimResult:
    """Estimate per-bet log growth for every configured policy.

    Returns, per policy, the sample mean and standard error of
    log(V_n/V_0)/n over all paths, the analytic ELG, and the 5/50/95
    percent quantiles of the final account value.
    """
    spec, m_paths, n = config.spec, config.paths, config.spec.n
    workers = check_budget(n, m_paths, len(config.policies))
    rows = min(m_paths, BLOCK_PATHS)
    growth = {name: np.empty(m_paths) for name, _ in config.policies}
    constant, vector = [], []
    for name, pol in config.policies:
        ks = pol.fractions
        if ks.ndim:
            # Per stage, the log growth after a tail and after a head.
            logs = [np.array([math.log1p(-k), math.log1p(k)]) for k in ks.tolist()]
            vector.append((growth[name], logs))
        else:
            k = float(ks)
            constant.append((growth[name], math.log1p(k), math.log1p(-k)))

    def log_growth(blocks):
        # log(V_n / V_0) of each path: a constant bettor's from its head
        # count, a vector bettor's summed stage by stage from the left.
        index, term = np.empty(rows, dtype=np.intp), np.empty(rows)
        for heads, start, stop in blocks:
            if constant:
                count = heads.sum(axis=0)
                for out, up, down in constant:
                    out[start:stop] = count * up + (n - count) * down
            i, t = index[: stop - start], term[: stop - start]
            for out, logs in vector:
                total = out[start:stop]
                total.fill(0.0)
                for h, lut in zip(heads, logs):
                    np.copyto(i, h)
                    total += np.take(lut, i, out=t, mode="clip")

    _run_blocks(spec, m_paths, config.seed, workers, log_growth)

    # One scratch array holds each policy's g and then its final values, so
    # the statistics allocate nothing path-sized beyond np.std's temporary.
    scratch = np.empty(m_paths)
    stats = []
    for name, pol in config.policies:
        log_vn = growth[name]
        g = np.divide(log_vn, n, out=scratch)
        mean = float(np.mean(g))
        if m_paths > 1:
            std_error = float(np.std(g, ddof=1) / math.sqrt(m_paths))
        else:
            std_error = 0.0
        with np.errstate(over="ignore"):
            finals = np.exp(log_vn, out=scratch)
            finals *= config.initial_value
        if finals.max() == math.inf:
            raise NumericalError(
                f"final account value of policy {name!r} overflows, so it is not finite"
            )
        stats.append(
            PolicyStats(
                name=name,
                mean_log_growth=mean,
                std_error=std_error,
                analytic_elg=policy_mod.elg(spec, pol),
                final_value_quantiles=_quantiles(finals),
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
) -> dict[str, np.ndarray]:
    """Analytic ELG of the three bettors for every horizon 1..n_max, as columns.

    Returns equal-length arrays keyed n, elg_kstar, elg_kn, elg_kvec, kstar
    and kn, one entry per horizon.

    The long-run bettor ignores temporal correlation and always bets
    2 p_inf - 1; the other two use the horizon-optimal constant fraction
    and the per-stage optimal vector. p_k does not depend on the horizon,
    so the whole table is one p_k pass plus prefix sums, O(n_max): with
    h_n = (p_0 + ... + p_{n-1})/n, K_n = 2 h_n - 1, a constant K earns
    h_n log(1 + K) + (1 - h_n) log(1 - K), and the vector bettor earns
    the running mean of p_k log(2 p_k) + (1 - p_k) log(2 (1 - p_k)).
    """
    if model.require_integer(n_max, "n_max") < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    kstar = policy_mod.kelly_limit(params)
    p = model.prob_sequence(model.GameSpec(params=params, history=history, n=n_max))
    horizons = np.arange(1, n_max + 1)
    h = np.cumsum(p) / horizons
    kn = 2.0 * h - 1.0
    elg_kstar = h * math.log1p(kstar) + (1.0 - h) * math.log1p(-kstar)
    elg_kn = h * np.log1p(kn) + (1.0 - h) * np.log1p(-kn)
    stage_kvec = p * np.log1p(2.0 * p - 1.0) + (1.0 - p) * np.log1p(1.0 - 2.0 * p)
    return {
        "n": horizons,
        "elg_kstar": elg_kstar,
        "elg_kn": elg_kn,
        "elg_kvec": np.cumsum(stage_kvec) / horizons,
        "kstar": np.full(n_max, kstar),
        "kn": kn,
    }
