"""Seeded Monte Carlo simulation of correlated-coin betting, and the scenario table.

Outcome paths are sampled with the Philox counter-based generator, one
model.transition_table lookup per step. Paths are processed in fixed
blocks of ``BLOCK_PATHS``; block b draws its words from the Philox
stream at counter (0, 0, b, 0), which is ``Philox(key=seed).jumped(b)``,
so every block owns a disjoint slice of the stream. ``_blocks`` is the
one sampler: it draws a block's stream in pieces of whole rows, at most
``PIECE_WORDS`` words or one row, each transposed to step-major order
while it is still in cache, and compares the raw words against integer
limits instead of converting them to uniforms. The blocks run in order
on the calling thread, and each block writes its own rows of the
per-path results, so a given (config, seed) pair reproduces
bit-identical results. The sampler holds one buffer of n + 1 rows of
words: row k + 1 holds step k's words, and step k's head flags are
written over the start of row k, whose words step k - 1 has already
read. A constant bettor's log growth depends only on
the path's head count, so every constant bettor shares one per-path
count array, in the narrowest unsigned type that holds n, and the
count's histogram is summed block by block; a vector bettor's log growth
is summed from the flags into its own array. The statistics then take
the policies one at a time, a piece of at most ``LEAF_PATHS`` paths at a
time through one reused buffer: the pieces are the leaves of the
pairwise-summation tree that numpy's reduce walks over the whole run, so
the reduction order stays fixed as well, and mean and standard error
take exactly the steps of np.mean and np.std(ddof=1). The quantiles of
the final values are exact and interpolated as np.quantile does. A
vector bettor's are each selected by one single-kth partition of its
final values, which overwrite its log growth once the sums are done. A
constant bettor's final value takes only the n + 1 values of its
head-count table, so its quantiles and its overflow check are read off
the histogram of the head count, and its per-path log growth is read
from the table a piece at a time.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from . import model, policy as policy_mod
from .errors import DimensionMismatch, DomainError, NumericalError

BLOCK_PATHS = 8192
# Words of a block's stream drawn at a time, in whole rows of n words: a
# piece of 120 KiB (512 rows at n = 30) stays in cache while it is
# transposed, and at small n a block still takes few draws.
PIECE_WORDS = 512 * 30
# Most entries _tree_sum reads at once, a 64 KiB buffer of float64. numpy's
# pairwise sum adds a node of up to 128 entries in one loop and splits a
# larger one where its size alone says, so any multiple of 8 of at least
# 128 gives numpy's pairwise bits.
LEAF_PATHS = 8192

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


def _sampler_bytes(n: int, paths: int) -> int:
    """_blocks' buffers, for a run of ``paths`` paths of ``n`` steps.

    A block holds rows = min(paths, BLOCK_PATHS) paths. Per block path
    8(n + 1): the words in step-major order, in n + 1 rows that hold the
    head flags too. Per path of one piece, of at most _piece_rows(n) rows,
    8n: the words as drawn. Per block path 24: the state, the limits,
    which the vector bettors reuse as their index and term, and the
    buffer in which np.bitwise_or casts a step's head flags to the
    state's type (8 each).
    """
    rows = min(paths, BLOCK_PATHS)
    return 8 * (n + 1) * rows + 8 * min(rows, _piece_rows(n)) * n + 24 * rows


def _piece_rows(n: int) -> int:
    """Rows of n words in a piece: as many as PIECE_WORDS holds, and at least one."""
    return max(1, PIECE_WORDS // n)


def _check_run(n: int, paths: int, per_path: int, held: int) -> None:
    """DomainError unless a run of ``paths`` paths of ``n`` steps fits in MEMORY_BUDGET.

    The run holds ``per_path`` bytes per path, ``held`` more and the
    sampler's buffers; the path count is checked before it is multiplied.
    """
    paths = model.require_integer(paths, "path count")
    if paths < 1:
        raise DomainError(f"path count must be >= 1, got {paths}")
    model.check_memory(
        held + per_path * paths + _sampler_bytes(n, paths), f"{paths} paths of {n} bets"
    )


def check_budget(n: int, paths: int, constants: int, vectors: int) -> None:
    """Reject a request whose monte_carlo_elg allocations could exceed MEMORY_BUDGET.

    The run has ``constants`` constant and ``vectors`` vector bettors. The
    byte count is an upper estimate: STAGE_BYTES per stage, the analytic
    layer's bound, which covers the p_k pass and the vector bettors'
    fractions; the statistics buffer of LEAF_PATHS entries; _blocks'
    buffers (_sampler_bytes); and per path 8 for each vector bettor's
    growth array and the width of the head count once if any bettor is
    constant. The three standard bettors at n <= 255 hold 9 bytes per path.
    """
    per_path = 8 * vectors
    if constants:
        per_path += np.min_scalar_type(n).itemsize
    _check_run(n, paths, per_path, model.STAGE_BYTES * n + 8 * LEAF_PATHS)


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


def _blocks(spec: model.GameSpec, paths: int, seed: int):
    """Yield (heads, start, stop, scratch) for each block of a run, in order.

    With rows = min(paths, BLOCK_PATHS), block b holds paths [b rows,
    min((b + 1) rows, paths)) and draws its words from the Philox stream at
    counter (0, 0, b, 0). One (n + 1, rows) uint64 buffer holds a block.
    Row k + 1 holds step k's words, and step k's head flags are written
    into the first bytes of row k, whose words step k - 1 has already
    read. ``heads`` views those flags, one row per step; the next block
    overwrites them. ``scratch`` is an (intp, float64) pair of rows that
    the consumer may overwrite: the state and the limits, which the next
    block sets before it reads them. The buffers live as long as the
    generator.
    """
    n, rows = spec.n, min(paths, BLOCK_PATHS)
    limits = _limits(model.transition_table(spec.params))
    buffer = np.empty((n + 1, rows), dtype=np.uint64)
    flags = buffer.view(bool)[:n, :rows]
    state = np.empty(rows, dtype=np.intp)
    limit = np.empty(rows, dtype=np.uint64)
    mask, piece = limits.size - 1, _piece_rows(n)
    for b, start in enumerate(range(0, paths, rows)):
        stop = min(start + rows, paths)
        r = stop - start
        # One stream per block; consecutive draws continue it, row by row.
        # Counter (0, 0, b, 0) holds the words of jumped(b), from one generator, not two.
        bits = np.random.Philox(key=seed, counter=(0, 0, b, 0))
        for i in range(0, r, piece):
            j = min(i + piece, r)
            np.copyto(buffer[1:, i:j], bits.random_raw((j - i) * n).reshape(j - i, n).T)
        s, t, h = state[:r], limit[:r], flags[:, :r]
        s.fill(spec.history.state)
        for k in range(n):
            np.take(limits, s, out=t, mode="clip")  # "raise" would buffer the output
            np.less(buffer[k + 1, :r], t, out=h[k])
            np.left_shift(s, 1, out=s)
            np.bitwise_or(s, h[k], out=s)
            np.bitwise_and(s, mask, out=s)
        yield h, start, stop, (s, t.view(np.float64))


def sample_paths(spec: model.GameSpec, paths: int, seed: int) -> np.ndarray:
    """Sample ``paths`` outcome paths as a (paths, n) +1/-1 array.

    The array and the sampler's buffers must fit in MEMORY_BUDGET; a larger
    request raises DomainError before anything is allocated.
    """
    seed = require_seed(seed)
    _check_run(spec.n, paths, 8 * spec.n, 0)
    x = np.empty((paths, spec.n), dtype=np.int64)
    for heads, start, stop, _ in _blocks(spec, paths, seed):
        block = x[start:stop]
        np.multiply(heads.T, 2, out=block)
        np.subtract(block, 1, out=block)
    return x


def _lerp(lower: float, upper: float, t: float) -> float:
    """numpy's _lerp: from ``lower`` up below t = 0.5, from ``upper`` down from there."""
    d = upper - lower
    return lower + d * t if t < 0.5 else upper - d * (1 - t)


def _quantiles(x: np.ndarray, top: float) -> tuple[float, ...]:
    """np.quantile(x, _QUANTILES) by one single-kth partition per quantile.

    numpy's partition is about ten times slower given several kth at once,
    as np.quantile gives it, than given one. Working from the largest
    quantile down, each partition leaves the entries below its index in
    front of it, so the next one searches only those. A value interpolates
    between the order statistics j = floor((size - 1) q) and j + 1 with
    _lerp, so it equals np.quantile's bit for bit. The one exception is
    the sign of a zero result when x holds both 0.0 and -0.0: which of
    them a partition puts at an index is not fixed, by either method.
    (Final account values are never -0.0.) ``top`` is x.max(), which
    the caller has taken already. Reorders x.
    """
    values = []
    # np.quantile clamps j + 1 to the last index, whose order statistic is top.
    hi, upper = x.size, float(top)
    for q in reversed(_QUANTILES):
        v = (x.size - 1) * q
        j = math.floor(v)
        if j + 1 < hi:
            x[:hi].partition(j)
            upper = float(x[j + 1 : hi].min())
        # otherwise j is the last step's index, and upper is still its neighbour
        hi = j + 1
        values.append(_lerp(float(x[j]), upper, v - j))
    return tuple(reversed(values))


def _histogram_quantiles(values: np.ndarray, counts: np.ndarray) -> tuple[float, ...]:
    """np.quantile(x, _QUANTILES) of the x holding counts[i] > 0 copies of values[i].

    The values are sorted, not assumed monotone, so ties are fine; the
    order statistics j and j + 1 are read off the cumulative counts and
    interpolated with _lerp, as _quantiles does.
    """
    order = np.argsort(values)
    values, ends = values[order], np.cumsum(counts[order])
    size = int(ends[-1])
    quantiles = []
    for q in _QUANTILES:
        v = (size - 1) * q
        j = math.floor(v)
        # At size 1, j + 1 is clamped to the one entry, as np.quantile does.
        lower, upper = values[np.searchsorted(ends, (j, min(j + 1, size - 1)), side="right")]
        quantiles.append(_lerp(float(lower), float(upper), v - j))
    return tuple(quantiles)


def _tree_sum(values, start: int, stop: int) -> np.float64:
    """np.add.reduce of the float64 entries [start, stop), which values(a, b) returns.

    numpy reduces a contiguous float64 array by one pairwise sum over all
    of it, not by pieces: pairwise_sum in
    numpy/_core/src/umath/loops_utils.h.src splits a node of more than 128
    entries at half = size // 2, rounded down to a multiple of 8, and adds
    the sums of its two halves. Where a node splits depends on its size
    alone, so a node of at most LEAF_PATHS entries, which is at least
    128, is reduced on its own and the halves are added up the tree, bit
    for bit as the whole array would be (tests/test_simulate.py,
    TestTreeSum). values(a, b) is called only with b - a <= LEAF_PATHS.
    """
    size = stop - start
    if size <= LEAF_PATHS:
        return np.add.reduce(values(start, stop))
    half = size // 2
    half -= half % 8
    return _tree_sum(values, start, start + half) + _tree_sum(values, start + half, stop)


def _mean_and_std_error(values, size: int) -> tuple[float, float]:
    """Mean and standard error of the ``size`` entries that values(a, b) returns.

    The steps of np.mean and np.std(ddof=1) / sqrt(size), summed along
    _tree_sum. values(a, b) returns entries [a, b) in a writable array that
    the squared deviations then overwrite.
    """
    mean = _tree_sum(values, 0, size) / size
    if size == 1:
        return float(mean), 0.0

    def squares(a, b):
        deviation = values(a, b)
        np.subtract(deviation, mean, out=deviation)
        return np.multiply(deviation, deviation, out=deviation)

    variance = _tree_sum(squares, 0, size) / (size - 1)
    return float(mean), float(np.sqrt(variance) / math.sqrt(size))


def monte_carlo_elg(config: SimConfig) -> SimResult:
    """Estimate per-bet log growth for every configured policy.

    Returns, per policy, the sample mean and standard error of
    log(V_n/V_0)/n over all paths, the analytic ELG, and the 5/50/95
    percent quantiles of the final account value.
    """
    spec, m_paths, n = config.spec, config.paths, config.spec.n
    vectors = [pol.fractions for _, pol in config.policies if pol.fractions.ndim]
    constants = len(config.policies) - len(vectors)
    # Each path's head count, which a constant bettor's log growth depends
    # on alone, the counts' histogram, and each vector bettor's log growth.
    if constants:
        count = np.empty(m_paths, dtype=np.min_scalar_type(n))
        histogram = np.zeros(n + 1, dtype=np.intp)
    growth = [np.empty(m_paths) for _ in vectors]
    # Row k: the log growth at stage k after a tail and after a head.
    luts = [
        np.stack([np.fromiter(map(math.log1p, x.tolist()), float, n) for x in (-ks, ks)], axis=1)
        for ks in vectors
    ]

    # A vector bettor's log(V_n / V_0) is summed stage by stage from the
    # left, through the block's scratch rows.
    for heads, start, stop, (index, term) in _blocks(spec, m_paths, config.seed):
        if constants:
            np.add.reduce(heads.view(np.uint8), axis=0, dtype=count.dtype, out=count[start:stop])
            histogram += np.bincount(count[start:stop], minlength=n + 1)
        for out, logs in zip(growth, luts):
            total = out[start:stop]
            total.fill(0.0)
            for h, lut in zip(heads, logs):
                np.copyto(index, h)
                total += np.take(lut, index, out=term, mode="clip")

    if constants:
        held = np.flatnonzero(histogram)
        head_counts = np.arange(n + 1.0)
    # Every policy's g = log_vn / n passes through this one buffer, a leaf
    # of _tree_sum at a time; a vector bettor's growth array is only read.
    buffer = np.empty(min(m_paths, LEAF_PATHS))
    vector_growth = iter(growth)
    stats = []
    for name, pol in config.policies:
        if pol.fractions.ndim:
            log_vn = next(vector_growth)
            mean, std_error = _mean_and_std_error(
                lambda a, b: np.divide(log_vn[a:b], n, out=buffer[: b - a]), m_paths
            )
            # The sums are done, so the final values may overwrite the log growth.
            with np.errstate(over="ignore"):
                finals = np.exp(log_vn, out=log_vn)
            top = finals.max()
            quantiles = _quantiles(finals, top)
        else:
            # The log growth after c heads, for every c, by the same steps
            # as on one path: c log1p(k) + (n - c) log1p(-k).
            k = float(pol.fractions)
            table = head_counts * math.log1p(k)
            table += (n - head_counts) * math.log1p(-k)
            with np.errstate(over="ignore"):
                finals = np.exp(table[held])
            top, quantiles = finals.max(), _histogram_quantiles(finals, histogram[held])
            g = table / n
            mean, std_error = _mean_and_std_error(
                lambda a, b: np.take(g, count[a:b], out=buffer[: b - a], mode="clip"), m_paths
            )
        if top == math.inf:
            raise NumericalError(
                f"final account value of policy {name!r} overflows, so it is not finite"
            )
        stats.append(
            PolicyStats(
                name=name,
                mean_log_growth=mean,
                std_error=std_error,
                analytic_elg=policy_mod.elg(spec, pol),
                final_value_quantiles=quantiles,
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
    """Analytic ELG of the three standard bettors for every horizon 1..spec.n, as columns.

    Returns equal-length arrays keyed n, elg_kstar, elg_kn, elg_kvec, kstar
    and kn. Row n holds the horizon-n game's kelly_horizon and its
    elg_time_invariant and elg_time_varying values, bit for bit: the
    columns apply the policy rules to model.prefix_sums over the game's
    one p_k pass, O(n) in all.
    """
    p, horizons = spec.probs, np.arange(1, spec.n + 1)
    h = model.prefix_sums(p) / horizons
    kstar, kn = policy_mod.kelly_limit(spec.params), policy_mod.kelly_fraction(h)
    stages = policy_mod.growth_rate(p, policy_mod.kelly_fraction(p))
    return {
        "n": horizons,
        "elg_kstar": policy_mod.growth_rate(h, kstar),
        "elg_kn": policy_mod.growth_rate(h, kn),
        "elg_kvec": model.prefix_sums(stages) / horizons,
        "kstar": np.full(spec.n, kstar),
        "kn": kn,
    }
