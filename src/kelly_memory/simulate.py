"""Seeded Monte Carlo simulation of correlated-coin betting, and the scenario table.

Outcome paths are sampled with the Philox counter-based generator, one
model.transition_table lookup per step. Paths are processed in fixed
blocks of ``BLOCK_PATHS``; block b draws its words from
``Philox(key=seed).jumped(b)``, so every block owns a disjoint,
scheduling-independent slice of the stream. A block draws its stream in
pieces of ``PIECE_PATHS`` rows, each transposed to step-major order
while it is still in cache, and compares the raw words against integer
limits instead of converting them to uniforms. The blocks are spread
over one worker thread per usable CPU, and each block writes its own
rows of the per-path results, so a given (config, seed) pair reproduces
bit-identical results at any thread count. A block is sampled as head
flags, one row per step. A constant bettor's log growth depends only on
the path's head count, so every constant bettor shares one per-path
count array, in the narrowest unsigned type that holds n; a vector
bettor's log growth is summed from the flags into its own array. The
statistics then take the policies one at a time, through two reused
path-sized buffers. Per-path statistics are reduced with numpy's
pairwise summation over the whole run, keeping the reduction order fixed
as well; mean and standard error take exactly the steps of np.mean and
np.std(ddof=1). The quantiles of the final values are exact: each is
selected by one single-kth partition and interpolated as np.quantile
does.
"""

from __future__ import annotations

import math
import os
import reprlib
from dataclasses import dataclass

import numpy as np

from . import model, policy as policy_mod
from .errors import DimensionMismatch, DomainError, NumericalError
from .model import MEMORY_BUDGET, STAGE_BYTES

BLOCK_PATHS = 8192
# Rows of a block's stream drawn at a time; a piece of 1024 rows of n = 30
# words (240 KiB) stays in cache while it is transposed.
PIECE_PATHS = 1024

_QUANTILES = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class SimConfig:
    """A simulation run: game, named policies (a name is only a label), path count, seed.

    ``policies`` holds (name, BettorPolicy) pairs and is stored as a tuple
    of pairs; the path count and the seed are stored as ints.
    """

    spec: model.GameSpec
    policies: tuple[tuple[str, policy_mod.BettorPolicy], ...]
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", require_seed(self.seed))
        object.__setattr__(self, "paths", model.require_integer(self.paths, "path count"))
        try:
            pairs = tuple((name, pol) for name, pol in self.policies)
        except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
            msg = f"policies must be (name, BettorPolicy) pairs, got {reprlib.repr(self.policies)}"
            raise DomainError(msg) from None
        object.__setattr__(self, "policies", pairs)
        for name, pol in pairs:
            if not isinstance(pol, policy_mod.BettorPolicy):
                raise DomainError(f"policy {name!r} is not a BettorPolicy, got {pol!r}")
            ks = pol.fractions
            if ks.ndim and ks.size != self.spec.n:
                raise DimensionMismatch(
                    f"policy {name!r} has length {ks.size}, horizon is {self.spec.n}"
                )
        vectors = sum(pol.fractions.ndim for _, pol in self.policies)
        check_budget(self.spec.n, self.paths, len(self.policies) - vectors, vectors)


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
    """One PolicyStats per configured policy, in the config's order."""
    stats: tuple[PolicyStats, ...]


def require_seed(seed) -> int:
    """``seed`` as an int, or DomainError unless it is an integer in [0, 2**64)."""
    seed = model.require_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in 64 unsigned bits")
    return seed


def _usable_cpus() -> int:
    """CPUs this process may run on, or all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _worker_bytes(rows: int, n: int) -> int:
    """One sampling worker's buffers, for blocks of ``rows`` paths of ``n`` steps.

    Per block cell 9: the raw words in step-major order (8) and the head
    flags (1). Per cell of one piece, of at most PIECE_PATHS rows, 8: the
    words as drawn. Per row 32: the state, the limits and the vector
    bettors' index and term (8 each).
    """
    return 9 * rows * n + 8 * min(rows, PIECE_PATHS) * n + 32 * rows


def _workers(n: int, paths: int, per_path: int, held: int) -> int:
    """Worker threads for a run of ``paths`` paths of ``n`` steps.

    The run holds ``per_path`` bytes per path and ``held`` more besides its
    workers' buffers; the path count is checked before it is multiplied.
    The request is accepted when it fits in MEMORY_BUDGET with one worker,
    so the same request is accepted on every machine. It then gets one
    worker per usable CPU, but no more workers than blocks, and no more
    than fit in the budget.
    """
    paths = model.require_integer(paths, "path count")
    if paths < 1:
        raise DomainError(f"path count must be >= 1, got {paths}")
    worker = _worker_bytes(min(paths, BLOCK_PATHS), n)
    need = held + per_path * paths + worker
    if need > MEMORY_BUDGET:
        raise model.budget_error(need, f"{paths} paths of {n} bets")
    blocks = -(-paths // BLOCK_PATHS)
    return min(_usable_cpus(), blocks, 1 + (MEMORY_BUDGET - need) // worker)


def check_budget(n: int, paths: int, constants: int, vectors: int) -> int:
    """Reject a request whose monte_carlo_elg allocations could exceed MEMORY_BUDGET.

    The run has ``constants`` constant and ``vectors`` vector bettors. The
    byte count is an upper estimate: STAGE_BYTES per stage, the analytic
    layer's bound, which covers the p_k pass and the vector bettors'
    fractions; one sampling worker's buffers; and per path 8 for each
    vector bettor's growth array, the width of the head count once if any
    bettor is constant, and 16 for the two statistics buffers. The three
    standard bettors at n <= 255 hold 25 bytes per path. Returns the
    number of worker threads the run uses.
    """
    per_path = 8 * vectors + 16
    if constants:
        per_path += np.min_scalar_type(n).itemsize
    return _workers(n, paths, per_path, STAGE_BYTES * n)


def sample_path(spec: model.GameSpec, stream_seed: int) -> np.ndarray:
    """One +1/-1 path of length n, deterministic in stream_seed; a Python-float loop."""
    model.check_stages(spec.n)
    gen = np.random.Generator(np.random.Philox(key=require_seed(stream_seed)))
    table = model.transition_table(spec.params).tolist()
    state, mask, heads = spec.history.state, len(table) - 1, []
    for u in gen.random(spec.n).tolist():
        heads.append(u < table[state])
        state = ((state << 1) | heads[-1]) & mask
    return np.where(heads, 1, -1)


def _limits(table: np.ndarray) -> np.ndarray:
    """Integer limits on raw Philox words: a head is a word below its state's limit.

    Generator.random turns the word r into u = (r >> 11) 2^-53, and
    u < t exactly when the integer r >> 11 is below ceil(t 2^53), which
    is when r is below ceil(t 2^53) << 11. Scaling by 2^53 and ceil are
    exact, and the hyperdiamond keeps every table entry inside (0, 1), so
    the limit fits in 64 bits.
    """
    return np.ceil(table * 2.0**53).astype(np.uint64) << np.uint64(11)


def _blocks(limits, state0, n, rows, seed, jobs):
    """Yield (heads, start, stop) for each (block, start, stop) job, in order.

    ``heads`` holds the block's head flags, one row per step; it is
    overwritten by the next block. The buffers live as long as the
    generator, and only numpy runs here.
    """
    words = np.empty((n, rows), dtype=np.uint64)
    heads = np.empty((n, rows), dtype=bool)
    state = np.empty(rows, dtype=np.intp)
    limit = np.empty(rows, dtype=np.uint64)
    mask = limits.size - 1
    for b, start, stop in jobs:
        r = stop - start
        # One stream per block; consecutive draws continue it, row by row.
        bits = np.random.Philox(key=seed).jumped(b)
        for i in range(0, r, PIECE_PATHS):
            j = min(i + PIECE_PATHS, r)
            np.copyto(words[:, i:j], bits.random_raw((j - i) * n).reshape(j - i, n).T)
        s, t, h = state[:r], limit[:r], heads[:, :r]
        s.fill(state0)
        for k in range(n):
            np.take(limits, s, out=t, mode="clip")  # "raise" would buffer the output
            np.less(words[k, :r], t, out=h[k])
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

    limits = _limits(model.transition_table(spec.params))
    jobs = [
        (b, start, min(start + BLOCK_PATHS, paths))
        for b, start in enumerate(range(0, paths, BLOCK_PATHS))
    ]
    args = (limits, spec.history.state, spec.n, min(paths, BLOCK_PATHS), seed)
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
    seed = require_seed(seed)
    workers = _workers(spec.n, paths, 8 * spec.n, 0)
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
    vectors = [pol.fractions for _, pol in config.policies if pol.fractions.ndim]
    constants = len(config.policies) - len(vectors)
    workers = check_budget(n, m_paths, constants, len(vectors))
    rows = min(m_paths, BLOCK_PATHS)
    # Each path's head count, which a constant bettor's log growth depends
    # on alone, and each vector bettor's log growth.
    count = np.empty(m_paths, dtype=np.min_scalar_type(n)) if constants else None
    growth = [np.empty(m_paths) for _ in vectors]
    # Per stage, the log growth after a tail and after a head.
    luts = [[np.array([math.log1p(-k), math.log1p(k)]) for k in ks.tolist()] for ks in vectors]

    def log_growth(blocks):
        # A vector bettor's log(V_n / V_0) is summed stage by stage from the left.
        index, term = np.empty(rows, dtype=np.intp), np.empty(rows)
        for heads, start, stop in blocks:
            if count is not None:
                np.add.reduce(
                    heads.view(np.uint8), axis=0, dtype=count.dtype, out=count[start:stop]
                )
            i, t = index[: stop - start], term[: stop - start]
            for out, logs in zip(growth, luts):
                total = out[start:stop]
                total.fill(0.0)
                for h, lut in zip(heads, logs):
                    np.copyto(i, h)
                    total += np.take(lut, i, out=t, mode="clip")

    _run_blocks(spec, m_paths, config.seed, workers, log_growth)

    # Two buffers serve every policy in turn. ``work`` takes a constant
    # bettor's log growth, count log1p(k) + (n - count) log1p(-k), with
    # ``finals`` holding the second term; ``finals`` then takes the final
    # values. The log growth is turned in
    # place into g = log_vn / n and its squared deviations: the steps of
    # np.mean and np.std(ddof=1), without np.std's path-sized temporary.
    finals, work = np.empty(m_paths), np.empty(m_paths)
    vector_growth = iter(growth)
    stats = []
    for name, pol in config.policies:
        if pol.fractions.ndim:
            log_vn = next(vector_growth)
        else:
            k = float(pol.fractions)
            log_vn = np.multiply(count, math.log1p(k), out=work)
            tails = np.subtract(n, count, out=finals, dtype=float)
            log_vn += np.multiply(tails, math.log1p(-k), out=tails)
        with np.errstate(over="ignore"):
            np.exp(log_vn, out=finals)
        if finals.max() == math.inf:
            raise NumericalError(
                f"final account value of policy {name!r} overflows, so it is not finite"
            )
        g = np.divide(log_vn, n, out=log_vn)
        mean = np.add.reduce(g) / m_paths
        std_error = 0.0
        if m_paths > 1:
            np.subtract(g, mean, out=g)
            variance = np.add.reduce(np.multiply(g, g, out=g)) / (m_paths - 1)
            std_error = float(np.sqrt(variance) / math.sqrt(m_paths))
        stats.append(
            PolicyStats(
                name=name,
                mean_log_growth=float(mean),
                std_error=std_error,
                analytic_elg=policy_mod.elg(spec, pol),
                final_value_quantiles=_quantiles(finals),
            )
        )
    return SimResult(stats=tuple(stats))


def standard_policies(
    spec: model.GameSpec,
) -> tuple[tuple[str, policy_mod.BettorPolicy], ...]:
    """The three benchmark bettors: long-run constant, horizon constant, vector."""
    return (
        ("kstar", policy_mod.BettorPolicy.constant(policy_mod.kelly_limit(spec.params))),
        ("kn", policy_mod.BettorPolicy.constant(policy_mod.kelly_horizon(spec))),
        ("kvec", policy_mod.kelly_timevarying(spec)),
    )


def scenario_table(spec: model.GameSpec) -> dict[str, np.ndarray]:
    """Analytic ELG of the three bettors for every horizon 1..spec.n, as columns.

    Returns equal-length arrays keyed n, elg_kstar, elg_kn, elg_kvec, kstar
    and kn, one entry per horizon.

    The long-run bettor ignores temporal correlation and always bets
    2 p_inf - 1; the other two use the horizon-optimal constant fraction
    and the per-stage optimal vector. p_k does not depend on the horizon,
    so the whole table is the game's one p_k pass (spec.probs) plus prefix
    sums, O(n): with h_n = (p_0 + ... + p_{n-1})/n, K_n = 2 h_n - 1, a
    constant K earns h_n log(1 + K) + (1 - h_n) log(1 - K), and the vector
    bettor earns the running mean of p_k log(2 p_k) + (1 - p_k) log(2 (1 - p_k)).
    """
    kstar = policy_mod.kelly_limit(spec.params)
    p = spec.probs
    horizons = np.arange(1, spec.n + 1)
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
        "kstar": np.full(spec.n, kstar),
        "kn": kn,
    }
