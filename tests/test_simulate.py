import contextlib
import hashlib
import inspect
import math
import random
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bruteforce
from strategies import valid_games
from kelly_memory import model, policy, simulate
from kelly_memory.errors import DimensionMismatch, DomainError, NumericalError


def make_spec(omega, history, n):
    return model.GameSpec(
        params=model.validate_params(omega),
        history=model.History(tuple(history)),
        n=n,
    )


SPEC_A2 = make_spec([0.55, 0.20], [1], n=2)
CONSTANT_01 = policy.BettorPolicy.constant(0.1)


def random_spec(rng, m, n):
    return make_spec(
        bruteforce.random_valid_omega(rng, m),
        bruteforce.random_history(rng, m),
        n,
    )


class TestSamplePath:
    def test_deterministic_in_stream_seed(self):
        spec = make_spec([0.55, 0.20], [1], n=50)
        a = simulate.sample_path(spec, stream_seed=123)
        b = simulate.sample_path(spec, stream_seed=123)
        c = simulate.sample_path(spec, stream_seed=124)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_values_are_signs(self):
        spec = make_spec([0.55, 0.20], [1], n=200)
        path = simulate.sample_path(spec, stream_seed=5)
        assert set(np.unique(path)) <= {-1, 1}

    @settings(deadline=None)
    @given(game=valid_games(), n=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
    def test_equals_the_first_row_of_sample_paths(self, game, n, seed):
        # Two samplers of one stream: the Python loop and block 0 of the
        # block sampler.
        spec = model.GameSpec(params=game[0], history=game[1], n=n)
        one, block = simulate.sample_path(spec, seed), simulate.sample_paths(spec, 1, seed)[0]
        assert one.dtype == block.dtype
        np.testing.assert_array_equal(one, block)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_equal_to_the_head_probability_is_a_tail(self, seed):
        # A head is u < p, strictly, in both samplers. The game's head
        # probability is the stream's first uniform itself.
        u = float(np.random.Generator(np.random.Philox(key=seed)).random())
        spec = make_spec([u, 0.0], [1], n=1)
        assert model.transition_table(spec.params).tolist() == [u, u]
        assert simulate.sample_path(spec, seed).tolist() == [-1]
        assert simulate.sample_paths(spec, 1, seed).tolist() == [[-1]]

    def test_near_degenerate_probability(self):
        spec = make_spec([0.99, 0.0], [1], n=2000)
        path = simulate.sample_path(spec, stream_seed=7)
        assert (path == 1).mean() > 0.97

    def test_first_flip_frequency(self):
        spec = make_spec([0.55, 0.20], [1], n=1)
        paths = simulate.sample_paths(spec, paths=200_000, seed=3)
        freq = (paths[:, 0] == 1).mean()
        sigma = math.sqrt(0.75 * 0.25 / 200_000)
        assert abs(freq - 0.75) < 3 * sigma

    def test_late_flips_near_steady_state(self):
        spec = make_spec([0.55, 0.20], [1], n=50)
        paths = simulate.sample_paths(spec, paths=100_000, seed=9)
        p_inf = model.steady_state(spec.params)
        freq = (paths[:, 49] == 1).mean()
        sigma = math.sqrt(p_inf * (1 - p_inf) / 100_000)
        assert abs(freq - p_inf) < 3 * sigma + 1e-9

    def test_transition_frequencies(self):
        spec = make_spec([0.55, 0.20], [1], n=10)
        paths = simulate.sample_paths(spec, paths=40_000, seed=11)
        prev = paths[:, :-1].ravel()
        cur = paths[:, 1:].ravel()
        for lag, expected in ((1, 0.75), (-1, 0.35)):
            mask = prev == lag
            freq = (cur[mask] == 1).mean()
            sigma = math.sqrt(expected * (1 - expected) / mask.sum())
            assert abs(freq - expected) < 3 * sigma


# Pinned output streams. Each digest is the sha256 of the sampler's int64
# output bytes; a change to the sampling kernel that moves any draw changes
# it, which a rerun-against-itself test cannot see.
PINNED_GAMES = {
    1: ([0.55, 0.20], [1]),
    3: ([0.5, 0.2, -0.1, 0.15], [1, -1, 1]),
    6: ([0.45, 0.1, -0.08, 0.06, -0.05, 0.04, 0.03], [1, -1, -1, 1, 1, -1]),
}

# sample_path at depth 1 (omega 0.55,0.20 after a head): the (seed, n)
# pairs the estimation and acceptance tests draw their data from.
PINNED_PATH_RUNS = {
    "estimate": [(905, 40_000), (11, 100_000), (19, 20_000)],
    "consistency": [
        (10_000 * n + s, n) for n in (1_000, 10_000, 100_000) for s in range(20)
    ],
    "acceptance": [(1000 + s, 100_000) for s in range(20)],
}


class TestPinnedStreams:
    @pytest.mark.parametrize(
        "m,n,digest",
        [
            (1, 2, "6547b6e84d9d7ac4151ed08014f2393a40ee5289afee000576dd2137567b07ce"),
            (3, 30, "b4686f696c360b23c241d6f05f0d7ac1f4609a9f1d271e6c71cbe2a1cd638665"),
            (6, 30, "ad943074b0a03d9ab807adc5220f2a4b794b7e6bdaa787f468fa575a4c657376"),
        ],
    )
    def test_sample_paths_digest(self, m, n, digest):
        # 20 000 paths: two full blocks and a partial third.
        x = simulate.sample_paths(make_spec(*PINNED_GAMES[m], n), paths=20_000, seed=11)
        assert x.dtype == np.int64 and x.shape == (20_000, n)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "group,digest",
        [
            ("estimate", "46bfd811832246335f86c74d59f8217f0dd8cf0bc230c3f25815fb9a3f5f474a"),
            ("consistency", "236cd2b3f39dded5897a2c6e17cbbe17c2ff832a66585951bb72b65fa5837f52"),
            ("acceptance", "66e8f45bb7d9d75420fc844979c561de61edfbd4d18ec57d2da701ea2ecb543f"),
        ],
    )
    def test_sample_path_digest(self, group, digest):
        h = hashlib.sha256()
        for seed, n in PINNED_PATH_RUNS[group]:
            h.update(simulate.sample_path(make_spec(*PINNED_GAMES[1], n), seed).tobytes())
        assert h.hexdigest() == digest


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=0)
        with pytest.raises(DomainError):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=10, seed=-1)
        bad = policy.BettorPolicy.varying([0.1, 0.1, 0.1])
        with pytest.raises(DimensionMismatch):
            simulate.SimConfig(spec=SPEC_A2, policies=(("bad", bad),), paths=10)

    def test_non_integral_seed_rejected(self):
        # It used to run as seed 1 and echo seed=1.5 in the result.
        with pytest.raises(DomainError, match="seed"):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=10, seed=1.5)

    @pytest.mark.parametrize(
        "bad", [0.3, None, (0.1,), "0.3"], ids=["float", "None", "tuple", "str"]
    )
    def test_policy_that_is_not_a_bettor_policy_rejected(self, bad):
        # It used to raise AttributeError on .fractions.
        with pytest.raises(DomainError, match="policy 'k' is not a BettorPolicy"):
            simulate.SimConfig(spec=SPEC_A2, policies=(("k", bad),), paths=10)

    @pytest.mark.parametrize(
        "policies",
        [(CONSTANT_01,), None, ("k",), (("k", CONSTANT_01, 1),), "ab", 3],
        ids=["bare-policy", "None", "bare-name", "triple", "str", "int"],
    )
    def test_policies_that_are_not_pairs_rejected(self, policies):
        # A bare policy, None and 3 used to raise TypeError, the others ValueError.
        with pytest.raises(DomainError, match=r"policies must be \(name, BettorPolicy\) pairs"):
            simulate.SimConfig(spec=SPEC_A2, policies=policies, paths=10)

    def test_policies_stored_as_a_tuple_of_pairs(self):
        pairs = iter([["k", CONSTANT_01]])
        config = simulate.SimConfig(spec=SPEC_A2, policies=pairs, paths=10)
        assert config.policies == (("k", CONSTANT_01),)

    @pytest.mark.parametrize("paths", [1.5, 2.0])
    def test_non_integral_path_count_rejected(self, paths):
        # It used to be accepted, and monte_carlo_elg then raised TypeError.
        with pytest.raises(DomainError, match="path count"):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=paths)

    def test_non_integral_path_count_rejected_by_sample_paths(self):
        with pytest.raises(DomainError, match="path count"):
            simulate.sample_paths(SPEC_A2, 2.5, 1)

    def test_bool_path_count_rejected(self):
        # True used to run one path.
        with pytest.raises(DomainError, match="path count must be an integer"):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=True)

    def test_counts_stored_as_ints(self):
        config = simulate.SimConfig(SPEC_A2, (), paths=np.int64(10), seed=np.uint64(2**64 - 1))
        assert (type(config.paths), type(config.seed)) == (int, int)
        assert config.seed == 2**64 - 1

    @pytest.mark.parametrize(
        "sample",
        [
            lambda seed: simulate.sample_path(SPEC_A2, seed),
            lambda seed: simulate.sample_paths(SPEC_A2, 3, seed),
            lambda seed: simulate.SimConfig(SPEC_A2, (), paths=3, seed=seed),
        ],
        ids=["sample_path", "sample_paths", "SimConfig"],
    )
    @pytest.mark.parametrize(
        "seed,match",
        [(-1, "64 unsigned bits"), (2**64, "64 unsigned bits"), (1.5, "seed must be an integer"),
         (True, "seed must be an integer")],
        ids=["-1", "2**64", "1.5", "True"],
    )
    def test_every_sampler_checks_its_seed(self, sample, seed, match):
        # sample_path and sample_paths used to raise ValueError on -1, and
        # sample_path ran on 1.5.
        with pytest.raises(DomainError, match=match):
            sample(seed)


@st.composite
def quantile_samples(draw):
    """Arrays of 1, 2, 3 or up to 5,000 entries: heavy ties among a few values,
    both signed zeros among them, mixed with values spread from 1e-300 to 1e300."""
    size = draw(st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 5000)))
    ties = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e300, 1e300))
    pool = np.array(draw(st.lists(ties, min_size=1, max_size=6)))
    spread = draw(st.sampled_from((0.0, 0.01, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(pool, size)
    far = rng.random(size) < spread
    x[far] = rng.choice((-1.0, 1.0), far.sum()) * 10.0 ** rng.uniform(-300, 300, far.sum())
    return x


class TestQuantiles:
    @settings(deadline=None)
    @given(x=quantile_samples())
    # At t = 0.5, _lerp's two formulas round these two apart.
    @example(x=np.array([1.3875194574517177e-05, 5.859999419551642e-06]))
    def test_equal_to_np_quantile(self, x):
        # Adding 0.0 turns -0.0 into 0.0: which of two equal zeros a
        # partition leaves at an index is fixed by neither method. Every
        # other value must match bit for bit.
        expected = np.quantile(x, simulate._QUANTILES) + 0.0
        got = np.array(simulate._quantiles(x.copy(), x.max())) + 0.0
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(deadline=None)
    @given(x=quantile_samples(), data=st.data())
    def test_histogram_selection_equal_to_np_quantile_of_the_repeated_values(self, x, data):
        # Values in no order, ties among them, each held 1 to 3 times.
        counts = np.array(data.draw(st.lists(st.integers(1, 3), min_size=x.size, max_size=x.size)))
        expected = np.quantile(np.repeat(x, counts), simulate._QUANTILES) + 0.0
        got = np.array(simulate._histogram_quantiles(x, counts)) + 0.0
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


TREE_SIZES = (
    1, 7, 8, 9, 127, 128, 129,
    simulate.BLOCK_PATHS - 1, simulate.BLOCK_PATHS, simulate.BLOCK_PATHS + 1,
    2 * simulate.BLOCK_PATHS + 3, 5 * simulate.BLOCK_PATHS + 7, 100_003, 1_000_001,
)
# Zeros of both signs, subnormals at both ends, and the smallest normal.
TINY = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308)


def spread_values(size, seed):
    """``size`` floats of either sign whose magnitudes span 16 decades."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)


def tree_sum(x):
    """simulate._tree_sum over the array x, checking that no piece exceeds a leaf."""
    def values(a, b):
        assert 0 <= a < b <= x.size and b - a <= simulate._leaf_paths()
        return x[a:b]

    return simulate._tree_sum(values, 0, x.size)


def same_float(got, expected):
    return got == expected and float(got).hex() == float(expected).hex()


class TestTreeSum:
    @settings(deadline=None, max_examples=60)
    @given(
        size=st.sampled_from(TREE_SIZES),
        seed=st.integers(0, 2**32 - 1),
        tiny=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(TINY)),
                      max_size=6),
        all_tiny=st.booleans(),
    )
    def test_equal_to_np_add_reduce_of_the_whole_array(self, size, seed, tiny, all_tiny):
        # numpy sums the whole array along one pairwise tree; summing its
        # subtrees a leaf at a time must give the same bits. Zeros of both
        # signs and subnormals are put in at drawn places, or fill the array.
        x = spread_values(size, seed)
        if all_tiny:
            x = np.resize(np.array(TINY), size)
        for place, value in tiny:
            x[int(place * size)] = value
        assert same_float(tree_sum(x), np.add.reduce(x))

    def test_tells_the_tree_from_a_sum_of_pieces(self):
        # A sum of per-piece sums is another order, and here it differs
        # from numpy's reduce, as a tree that rounds each half up to a
        # multiple of 8 does too. The tree sum equals the reduce.
        x = spread_values(2 * simulate.BLOCK_PATHS + 3, 0)
        expected = np.add.reduce(x)
        step = simulate.BLOCK_PATHS
        pieces = sum(np.add.reduce(x[i : i + step]) for i in range(0, x.size, step))
        assert pieces != expected
        assert same_float(tree_sum(x), expected)

    @pytest.mark.parametrize("block", [64, 100])
    @pytest.mark.parametrize("size", [128, 129, 250, 256, 1001])
    def test_numpy_never_splits_128_entries_whatever_the_block(self, block, size, monkeypatch):
        # Tests shrink BLOCK_PATHS below numpy's 128-entry unsplit node; a
        # leaf then still holds up to 128 entries, for the same sums.
        monkeypatch.setattr(simulate, "BLOCK_PATHS", block)
        assert simulate._leaf_paths() == 128
        x = spread_values(size, size)
        assert same_float(tree_sum(x), np.add.reduce(x))


def hexed(stats):
    """A PolicyStats' floats as hex strings, so that equal means bit-identical."""
    return (
        stats.name,
        stats.mean_log_growth.hex(),
        stats.std_error.hex(),
        stats.analytic_elg.hex(),
        tuple(q.hex() for q in stats.final_value_quantiles),
    )


# At k = +-0.999 a final value overflows after about 1,030 winning bets
# and underflows to 0 after about 110 losing ones.
CONSTANT_FRACTIONS = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-17, -1e-17, 0.999, -0.999)),
    st.floats(-0.999, 0.999, allow_subnormal=False),
)


class TestStatisticsAlongTheTree:
    @pytest.mark.parametrize("paths", [1, 5 * simulate.BLOCK_PATHS + 7, 100_003])
    @pytest.mark.parametrize(
        "omega,history",
        [([0.55, 0.20], [1]), ([0.5, 0.2, -0.1, 0.15], [1, -1, 1])],
        ids=["m1", "m3"],
    )
    def test_equal_to_the_whole_array_oracle(self, omega, history, paths):
        # The oracle takes np.mean and np.std of whole per-path arrays; the
        # statistics, summed a leaf at a time, must give the same bits at
        # trees of one leaf, of five and of about a dozen.
        spec = make_spec(omega, history, n=12)
        policies = simulate.standard_policies(spec) + (
            ("negative", policy.BettorPolicy.constant(-0.3)),
            ("both signs", policy.BettorPolicy.varying(np.linspace(-0.4, 0.6, spec.n))),
        )
        config = simulate.SimConfig(spec=spec, policies=policies, paths=paths, seed=paths)
        got = simulate.monte_carlo_elg(config).stats
        assert list(map(hexed, got)) == list(map(hexed, bruteforce.monte_carlo_elg(config).stats))


class TestConstantBettorsFromTheHistogram:
    @settings(deadline=None, max_examples=40)
    @given(
        game=valid_games(max_depth=3),
        n=st.one_of(st.sampled_from((1, 255, 256, 2000)), st.integers(1, 300)),
        ks=st.lists(CONSTANT_FRACTIONS, min_size=1, max_size=3),
        paths=st.sampled_from((1, 2, 63, 65, 130)),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(  # about 1,980 heads of 2,000: every path overflows
        game=(model.validate_params([0.99, 0.0]), model.History((1,))),
        n=2000, ks=[0.0, 0.999], paths=65, seed=1,
    )
    @example(
        game=(model.validate_params([0.6, 0.2]), model.History((-1,))),
        n=256, ks=[0.0, 1e-17, -1e-17, -0.5], paths=1, seed=2,
    )
    def test_equal_to_per_path_exp_and_np_quantile(self, game, n, ks, paths, seed):
        # The oracle takes each path's np.exp and np.quantile. Blocks of 64
        # paths make 65 and 130 end in a partial block; n > 255 counts in
        # uint16. A head count whose final value overflows raises only if a
        # path has it.
        spec = model.GameSpec(params=game[0], history=game[1], n=n)
        config = simulate.SimConfig(
            spec=spec,
            policies=tuple((f"k{i}", policy.BettorPolicy.constant(k)) for i, k in enumerate(ks)),
            paths=paths,
            seed=seed,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "BLOCK_PATHS", 64)
            try:
                expected = bruteforce.monte_carlo_elg(config)
            except NumericalError as err:
                with pytest.raises(NumericalError, match="overflows") as got:
                    simulate.monte_carlo_elg(config)
                assert str(got.value).startswith(str(err))
                return
            got = simulate.monte_carlo_elg(config)
        assert list(map(hexed, got.stats)) == list(map(hexed, expected.stats))

    def test_overflowing_count_that_never_occurs_does_not_raise(self):
        # Past 1,911 heads of 2,000 the final value at k = 0.999 overflows,
        # but a fair coin shows about 1,000.
        spec = make_spec([0.5, 0.0], [1], n=2000)
        config = simulate.SimConfig(
            spec=spec, policies=(("k", policy.BettorPolicy.constant(0.999)),), paths=1000, seed=2
        )
        assert 2000 * math.log1p(0.999) > math.log(sys.float_info.max)
        stats = simulate.monte_carlo_elg(config).stats
        assert list(map(hexed, stats)) == list(map(hexed, bruteforce.monte_carlo_elg(config).stats))


class TestMemoryBudget:
    @pytest.mark.parametrize(
        "n,paths,policies",
        [(30, 1_000_000, 3), (2, 1_000_000, 3), (20_000, 10, 1), (100_000, 1, 3)],
    )
    def test_benchmark_and_test_sizes_accepted(self, n, paths, policies):
        # Vector bettors hold the most per path.
        simulate.check_budget(n, paths, constants=0, vectors=policies)

    def test_oversized_request_rejected_before_allocating(self):
        spec = make_spec([0.55, 0.20], [1], n=10**9)
        with pytest.raises(DomainError, match="budget"):
            simulate.SimConfig(
                spec=spec,
                policies=(("k", policy.BettorPolicy.constant(0.1)),),
                paths=10**6,
            )

    @pytest.mark.parametrize("huge", [10**400, 2**2000], ids=["10**400", "2**2000"])
    def test_count_too_large_for_a_float_rejected(self, huge):
        # The budget message used to raise OverflowError converting the size.
        with pytest.raises(DomainError, match="at least 2\\*\\*970 GiB, over the"):
            simulate.check_budget(30, huge, constants=2, vectors=1)
        with pytest.raises(DomainError, match=f"{huge} bets need at least 2\\*\\*970 GiB"):
            model.prob_sequence(make_spec([0.55, 0.20], [1], n=huge))

    def test_oversized_sample_path_rejected_before_allocating(self):
        # It used to ask numpy for 8 bytes per stage.
        with pytest.raises(DomainError, match="budget"):
            simulate.sample_path(make_spec([0.55, 0.20], [1], n=2**40), 0)

    def test_oversized_sample_paths_rejected_before_allocating(self):
        spec = make_spec([0.55, 0.20], [1], n=10**6)
        with pytest.raises(DomainError, match="budget"):
            simulate.sample_paths(spec, paths=10**6, seed=0)

    def test_sample_paths_charged_for_its_array(self, monkeypatch):
        # 8 bytes per outcome of the (paths, n) int64 array, and one worker.
        spec, paths = make_spec([0.55, 0.20], [1], n=10), 1000
        need = 8 * spec.n * paths + simulate._worker_bytes(paths, spec.n)
        monkeypatch.setattr(model, "MEMORY_BUDGET", need)
        assert simulate.sample_paths(spec, paths, seed=1).shape == (paths, spec.n)
        monkeypatch.setattr(model, "MEMORY_BUDGET", need - 1)
        with pytest.raises(DomainError, match="budget"):
            simulate.sample_paths(spec, paths, seed=1)

    def test_workers_shrink_to_fit_the_budget(self, monkeypatch):
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=12)
        paths = 2 * simulate.BLOCK_PATHS + 3
        config = simulate.SimConfig(
            spec=spec, policies=simulate.standard_policies(spec), paths=paths, seed=5
        )
        expected = bruteforce.monte_carlo_elg(config)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        assert simulate.check_budget(spec.n, paths, 2, 1) == 3
        worker = simulate._worker_bytes(simulate.BLOCK_PATHS, spec.n)
        # Per path: kvec's growth and the two constants' shared head count,
        # 9 bytes; the statistics buffer holds one leaf of the sums.
        per_path = 8 * 1 + np.min_scalar_type(spec.n).itemsize
        assert per_path == 9
        held = model.STAGE_BYTES * spec.n + 8 * simulate._leaf_paths()
        one = held + per_path * paths + worker
        for budget, workers in ((one + 2 * worker, 3), (one + worker, 2), (one, 1)):
            monkeypatch.setattr(model, "MEMORY_BUDGET", budget)
            assert simulate.check_budget(spec.n, paths, 2, 1) == workers
            with block_samplers() as threads:
                assert simulate.monte_carlo_elg(config) == expected
            assert len(threads) == workers
        monkeypatch.setattr(model, "MEMORY_BUDGET", one - 1)
        with pytest.raises(DomainError, match="budget"):
            simulate.check_budget(spec.n, paths, 2, 1)

    def test_vector_bettors_charged_no_head_count(self, monkeypatch):
        # Only constant bettors share the per-path head count: at a budget
        # of 8 bytes per path, a lone vector bettor is accepted and run,
        # and one more constant bettor, 9 bytes per path, is rejected.
        spec, paths = make_spec([0.55, 0.20], [1], n=30), 1000
        worker = simulate._worker_bytes(paths, spec.n)
        held = model.STAGE_BYTES * spec.n + 8 * simulate._leaf_paths()
        budget = held + 8 * paths + worker
        monkeypatch.setattr(model, "MEMORY_BUDGET", budget)
        vector = ("v", policy.kelly_timevarying(spec))
        simulate.monte_carlo_elg(simulate.SimConfig(spec=spec, policies=(vector,), paths=paths))
        with pytest.raises(DomainError, match="budget"):
            simulate.SimConfig(spec=spec, policies=(vector, ("k", CONSTANT_01)), paths=paths)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kinds", ["constant", "vector", "mixed"])
    @pytest.mark.parametrize(
        "n,paths",
        [(30, 2 * simulate.BLOCK_PATHS + 3), (2, 200_000)],
        ids=["block-bound", "path-bound"],
    )
    def test_traced_peak_within_the_charge(self, n, paths, kinds, workers, monkeypatch):
        # check_budget charges what monte_carlo_elg holds: the run at n = 30
        # is mostly its workers' buffers, the one at n = 2 mostly per-path
        # arrays.
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=n)
        constant, vector = policy.BettorPolicy.constant(0.1), policy.kelly_timevarying(spec)
        pair = {"constant": (constant,) * 2, "vector": (vector,) * 2, "mixed": (constant, vector)}
        policies = tuple((f"p{i}", pol) for i, pol in enumerate(pair[kinds]))
        config = simulate.SimConfig(spec=spec, policies=policies, paths=paths, seed=3)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
        simulate.monte_carlo_elg(config)  # first-call costs: lazy imports, caches
        tracemalloc.start()
        try:
            simulate.monte_carlo_elg(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vectors = sum(pol.fractions.ndim for _, pol in policies)
        per_path = 8 * vectors
        if vectors < len(policies):
            per_path += np.min_scalar_type(n).itemsize
        worker = simulate._worker_bytes(min(paths, simulate.BLOCK_PATHS), n)
        held = model.STAGE_BYTES * n + 8 * simulate._leaf_paths()
        charge = held + per_path * paths + workers * worker
        assert simulate.check_budget(n, paths, len(policies) - vectors, vectors) == workers
        assert peak <= charge

    @pytest.mark.parametrize("paths", [300, 2 * simulate.BLOCK_PATHS + 3], ids=["piece", "blocks"])
    @pytest.mark.parametrize("n", [1, 2, 30, 300])
    def test_worker_peak_within_a_row_of_its_charge(self, n, paths):
        # _worker_bytes counts a piece's words and np.bitwise_or's cast
        # buffer (8 bytes per row), which are never held at once, so one
        # worker's traced peak is at most 8 bytes per row below it. Runs of
        # one short block, and of two full blocks and a partial one.
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=n)
        limits = simulate._limits(model.transition_table(spec.params))
        rows = min(paths, simulate.BLOCK_PATHS)
        jobs = [
            (b, start, min(start + rows, paths)) for b, start in enumerate(range(0, paths, rows))
        ]

        def run():
            for _ in simulate._blocks(limits, spec.history.state, n, rows, 3, jobs):
                pass

        run()  # first-call costs
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        charge = simulate._worker_bytes(rows, n)
        assert charge - 8 * rows <= peak <= charge


@contextlib.contextmanager
def block_samplers():
    """Yield a list of the threads that start a worker's blocks inside the with-block.

    Each worker runs in a thread of its own, so the list has one entry
    per worker.
    """
    threads, blocks = [], simulate._blocks

    def recorded(*args):
        threads.append(threading.current_thread())
        return blocks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_blocks", recorded)
        yield threads


PATH_COUNTS = (
    1,
    simulate.BLOCK_PATHS - 1,
    simulate.BLOCK_PATHS + 1,
    2 * simulate.BLOCK_PATHS + 3,
)


@st.composite
def simulations(draw):
    """A SimConfig over a game of depth <= 4: constant and vector policies, any sign."""
    params, history = draw(valid_games().filter(lambda g: g[0].m <= 4))
    spec = model.GameSpec(params=params, history=history, n=draw(st.integers(1, 40)))
    fraction = st.floats(-0.99, 0.99, allow_subnormal=False)
    policies = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pol = policy.BettorPolicy.constant(draw(fraction))
        else:
            pol = policy.BettorPolicy.varying(
                draw(st.lists(fraction, min_size=spec.n, max_size=spec.n))
            )
        policies.append((f"p{i}", pol))
    return simulate.SimConfig(
        spec=spec,
        policies=tuple(policies),
        paths=draw(st.sampled_from(PATH_COUNTS)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestBlockParallel:
    @settings(deadline=None, max_examples=30)
    @given(config=simulations())
    def test_equal_to_block_loop_at_any_worker_count(self, config):
        expected = bruteforce.monte_carlo_elg(config)
        expected_paths = bruteforce.sample_paths(config.spec, config.paths, config.seed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost write
        try:
            for workers in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(simulate, "_usable_cpus", lambda: workers)
                    assert simulate.monte_carlo_elg(config) == expected
                    got = simulate.sample_paths(config.spec, config.paths, config.seed)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, expected_paths)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("words", [0, 5, 17, 10**9], ids=["floor", "row", "ragged", "block"])
    def test_piece_size_moves_no_bit(self, words, monkeypatch):
        # Consecutive draws continue a block's stream, so pieces of any
        # number of whole rows give the same words; below one row a piece
        # is still one row.
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=5)
        config = simulate.SimConfig(
            spec=spec, policies=simulate.standard_policies(spec),
            paths=simulate.BLOCK_PATHS + 7, seed=11,
        )
        expected = simulate.monte_carlo_elg(config)
        monkeypatch.setattr(simulate, "PIECE_WORDS", words)
        assert simulate.monte_carlo_elg(config) == expected

    def test_public_functions_run_on_the_main_thread_only(self, monkeypatch):
        # A worker must not call into the package: a tracer that wraps the
        # public functions keeps one stack of open spans, for one thread.
        callers = []
        for module in (model, policy, simulate):
            for name, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    def recorded(*args, _fn=fn, **kwargs):
                        callers.append((_fn.__name__, threading.current_thread()))
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, recorded)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=9)
        paths = 2 * simulate.BLOCK_PATHS + 3
        with block_samplers() as threads:
            simulate.monte_carlo_elg(
                simulate.SimConfig(
                    spec=spec, policies=simulate.standard_policies(spec), paths=paths
                )
            )
            simulate.sample_paths(spec, paths, seed=4)
        assert len(threads) == 6 and threading.main_thread() not in threads
        names = {name for name, _ in callers}
        assert {"monte_carlo_elg", "sample_paths", "transition_table"} <= names
        assert all(thread is threading.main_thread() for _, thread in callers)


class TestWorkerThreads:
    """_run_blocks starts one plain thread per worker and waits for all of
    them, as a pool whose every future is read would."""

    # Three blocks over two workers: worker 0 takes blocks 0 and 2, worker 1 block 1.
    PATHS = 2 * simulate.BLOCK_PATHS + 3
    SPEC = make_spec([0.55, 0.20], [1], n=5)

    def run(self, monkeypatch, failures):
        """The error monte_carlo_elg raises on two workers when _blocks
        raises failures[b] at block b, once no worker thread is left."""
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        config = simulate.SimConfig(
            spec=self.SPEC, policies=simulate.standard_policies(self.SPEC), paths=self.PATHS
        )
        threads, blocks, failed = [], simulate._blocks, threading.Event()

        def failing(*args):
            threads.append(threading.current_thread())
            for (b, _, _), block in zip(args[-1], blocks(*args)):
                if b == 1:
                    failed.set()
                else:
                    # Worker 0 is still busy when worker 1 fails.
                    assert failed.wait(10)
                    time.sleep(0.05)
                if b in failures:
                    raise failures[b]
                yield block

        monkeypatch.setattr(simulate, "_blocks", failing)
        before = threading.active_count()
        with pytest.raises(BaseException) as raised:
            simulate.monte_carlo_elg(config)
        assert threading.active_count() == before
        assert len(threads) == 2 and not any(thread.is_alive() for thread in threads)
        return raised.value

    def test_a_helper_thread_error_is_raised_after_every_thread_joins(self, monkeypatch):
        error = self.run(monkeypatch, {1: ValueError("block 1 failed")})
        assert type(error) is ValueError and str(error) == "block 1 failed"

    def test_the_first_error_in_worker_order_is_raised(self, monkeypatch):
        # Worker 1 fails first, but worker 0's error is the one raised.
        error = self.run(
            monkeypatch, {1: ValueError("block 1 failed"), 2: KeyError("block 2 failed")}
        )
        assert type(error) is KeyError and error.args == ("block 2 failed",)

    def test_threads_started_before_a_failed_start_are_joined(self, monkeypatch):
        started = []

        class Thread(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                super().start()
                started.append(self)

        monkeypatch.setattr(simulate, "threading", types.SimpleNamespace(Thread=Thread))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            simulate.sample_paths(self.SPEC, self.PATHS, seed=1)
        assert threading.active_count() == before
        assert len(started) == 1 and not started[0].is_alive()

    def test_no_thread_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        with block_samplers() as threads:
            simulate.sample_paths(self.SPEC, self.PATHS, seed=1)
        assert len(threads) == 3
        assert threading.active_count() == before


@st.composite
def thresholds(draw):
    """Head probabilities t in (0, 1): any, an exact multiple of 2^-53, or a
    neighbour of one."""
    exact = draw(st.integers(1, 2**53 - 1)) * 2.0**-53
    near = st.sampled_from((exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)))
    t = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), near))
    assume(0.0 < t < 1.0)
    return float(t)


class TestRawWordLimits:
    @given(t=thresholds(), data=st.data())
    def test_word_below_the_limit_exactly_when_its_uniform_is_below_t(self, t, data):
        limit = simulate._limits(np.array([t]))
        edge = int(limit[0])
        r = data.draw(
            st.one_of(
                st.integers(0, 2**64 - 1),
                st.sampled_from((edge, edge - 1)),
                st.integers(max(edge - 2**12, 0), min(edge + 2**12, 2**64 - 1)),
            )
        )
        u = (r >> 11) * 2.0**-53  # exact: an integer below 2^53 times a power of 2
        assert bool(np.less(np.array([r], dtype=np.uint64), limit)[0]) == (u < t)

    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(0, 3))
    def test_generator_random_is_the_raw_word_scaled(self, seed, block):
        # The limits stand for Generator.random's uniforms only if it makes
        # u = (r >> 11) 2^-53 of one raw word r per draw.
        raw = np.random.Philox(key=seed).jumped(block).random_raw(64)
        u = np.random.Generator(np.random.Philox(key=seed).jumped(block)).random(64)
        assert np.array_equal(u, (raw >> np.uint64(11)) * 2.0**-53)

    @given(
        seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from((0, 1, 5, 122, 1000, 2**18, 2**40)),
    )
    def test_block_counter_is_the_jumped_stream(self, seed, block):
        # _blocks sets block b's counter to (0, 0, b, 0) where the stream's
        # definition jumps b times; 9 words cross the generator's 4-word buffer.
        jumped = np.random.Philox(key=seed).jumped(block).random_raw(9)
        counter = np.random.Philox(key=seed, counter=(0, 0, block, 0)).random_raw(9)
        assert np.array_equal(counter, jumped)


class TestHeadCountWidth:
    @pytest.mark.parametrize("n", [1, 255, 256, 257])
    @pytest.mark.parametrize("kinds", ["constant", "vector", "mixed"])
    def test_equal_to_block_loop_across_the_count_width(self, n, kinds, monkeypatch):
        # The head count is uint8 up to n = 255 and uint16 from 256; at
        # n = 1 a worker's buffer has two rows. Small blocks and pieces
        # give three blocks, split over 1 to 3 workers, with partial
        # pieces, from few paths. k = 0 bets log1p(-0.0) = -0.0.
        monkeypatch.setattr(simulate, "BLOCK_PATHS", 100)
        monkeypatch.setattr(simulate, "PIECE_WORDS", 32 * n)
        spec = make_spec([0.5, 0.2, -0.1, 0.15], [1, -1, 1], n=n)
        constants = (policy.BettorPolicy.constant(0.0), policy.BettorPolicy.constant(-0.3))
        vectors = (
            policy.BettorPolicy.varying(np.linspace(-0.5, 0.5, n)),
            policy.BettorPolicy.varying(np.zeros(n)),
        )
        chosen = {"constant": constants, "vector": vectors, "mixed": constants + vectors}[kinds]
        config = simulate.SimConfig(
            spec=spec,
            policies=tuple((f"p{i}", pol) for i, pol in enumerate(chosen)),
            paths=250,
            seed=n,
        )
        assert np.min_scalar_type(n).itemsize == (1 if n < 256 else 2)
        expected = bruteforce.monte_carlo_elg(config)
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
            assert simulate.monte_carlo_elg(config) == expected


class TestMonteCarloElg:
    def test_no_bet_exact_zero(self):
        config = simulate.SimConfig(
            spec=SPEC_A2,
            policies=(("flat", policy.BettorPolicy.constant(0.0)),),
            paths=5000,
            seed=1,
        )
        stats = simulate.monte_carlo_elg(config).stats[0]
        assert stats.mean_log_growth == 0.0
        assert stats.std_error == 0.0
        assert stats.final_value_quantiles == (1.0, 1.0, 1.0)

    def test_standard_bettors_take_two_prefix_sums(self, monkeypatch):
        # One for E(H_n), which kelly_horizon and both constant bettors'
        # ELGs share, and one for the vector bettor's ELG.
        sums = []

        def counted(values, real=model.prefix_sums):
            sums.append(values.size)
            return real(values)

        monkeypatch.setattr(model, "prefix_sums", counted)
        spec = make_spec([0.55, 0.20], [1], n=30)
        config = simulate.SimConfig(spec, simulate.standard_policies(spec), paths=100, seed=1)
        simulate.monte_carlo_elg(config)
        assert sums == [30, 30]

    def test_iid_matches_closed_form(self):
        spec = make_spec([0.6, 0.0], [1], n=10)
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        config = simulate.SimConfig(
            spec=spec,
            policies=(("k", policy.BettorPolicy.constant(0.2)),),
            paths=200_000,
            seed=2,
        )
        stats = simulate.monte_carlo_elg(config).stats[0]
        assert stats.analytic_elg == pytest.approx(expected, abs=1e-12)
        assert abs(stats.mean_log_growth - expected) < 4 * stats.std_error

    def test_scenario_a_kn(self):
        config = simulate.SimConfig(
            spec=SPEC_A2,
            policies=(("kn", policy.BettorPolicy.constant(0.4)),),
            paths=100_000,
            seed=3,
        )
        stats = simulate.monte_carlo_elg(config).stats[0]
        assert stats.analytic_elg == pytest.approx(0.082, abs=5e-4)
        assert abs(stats.mean_log_growth - stats.analytic_elg) < 4 * stats.std_error

    def test_bit_identical_reruns(self):
        config = simulate.SimConfig(
            spec=SPEC_A2,
            policies=simulate.standard_policies(SPEC_A2),
            paths=30_000,
            seed=99,
        )
        first = simulate.monte_carlo_elg(config)
        second = simulate.monte_carlo_elg(config)
        assert first == second
        third = simulate.monte_carlo_elg(
            simulate.SimConfig(
                spec=SPEC_A2,
                policies=simulate.standard_policies(SPEC_A2),
                paths=30_000,
                seed=100,
            )
        )
        assert third.stats[0].mean_log_growth != first.stats[0].mean_log_growth

    def test_quantiles_nondecreasing_and_se_nonnegative(self):
        rng = random.Random(17)
        for _ in range(10):
            spec = random_spec(rng, rng.randint(1, 3), rng.randint(1, 10))
            config = simulate.SimConfig(
                spec=spec,
                policies=simulate.standard_policies(spec),
                paths=2000,
                seed=rng.randrange(2**32),
            )
            for stats in simulate.monte_carlo_elg(config).stats:
                q05, q50, q95 = stats.final_value_quantiles
                assert q05 <= q50 <= q95
                assert stats.std_error >= 0

    def test_consistency_over_random_configs(self):
        # Empirical mean within 4 standard errors of the analytic value in
        # at least 48 of 50 randomized runs.
        rng = random.Random(19)
        hits = 0
        for trial in range(50):
            spec = random_spec(rng, rng.randint(1, 2), rng.randint(1, 8))
            if trial % 2 == 0:
                pol = policy.BettorPolicy.constant(rng.uniform(-0.8, 0.8))
            else:
                pol = policy.kelly_timevarying(spec)
            config = simulate.SimConfig(
                spec=spec,
                policies=(("p", pol),),
                paths=100_000,
                seed=rng.randrange(2**32),
            )
            stats = simulate.monte_carlo_elg(config).stats[0]
            margin = 4 * stats.std_error if stats.std_error > 0 else 1e-12
            if abs(stats.mean_log_growth - stats.analytic_elg) < margin:
                hits += 1
        assert hits >= 48

    def test_overflowing_final_value_raises(self):
        spec = make_spec([0.9, 0.0], [1], n=20_000)
        config = simulate.SimConfig(
            spec=spec,
            policies=(("k", policy.BettorPolicy.constant(0.99)),),
            paths=10,
        )
        with pytest.raises(NumericalError, match="overflows"):
            simulate.monte_carlo_elg(config)

    def test_first_overflowing_policy_named(self):
        spec = make_spec([0.9, 0.0], [1], n=20_000)
        constant = policy.BettorPolicy.constant
        config = simulate.SimConfig(
            spec=spec,
            policies=(("flat", constant(0.0)), ("a", constant(0.98)), ("b", constant(0.99))),
            paths=10,
        )
        with pytest.raises(NumericalError, match="policy 'a' overflows"):
            simulate.monte_carlo_elg(config)

    def test_policies_sharing_a_name_keep_their_own_growth(self):
        # Both used to report the second policy's statistics, since the
        # growth arrays were keyed by name.
        constant = policy.BettorPolicy.constant
        pair = (("k", constant(0.1)), ("k", constant(0.2)))
        both = simulate.monte_carlo_elg(
            simulate.SimConfig(spec=SPEC_A2, policies=pair, paths=1000, seed=1)
        ).stats
        for one, got in zip(pair, both):
            alone = simulate.monte_carlo_elg(
                simulate.SimConfig(spec=SPEC_A2, policies=(one,), paths=1000, seed=1)
            ).stats
            assert alone == (got,)


def rows(table):
    """A scenario table's columns as one dict of Python values per horizon."""
    return [dict(zip(table, row)) for row in zip(*(c.tolist() for c in table.values()))]


class TestScenarioTable:
    @settings(deadline=None)
    @given(game=valid_games(), n_max=st.integers(1, 60))
    def test_rows_match_per_horizon_definitions(self, game, n_max):
        params, history = game
        kstar = policy.kelly_limit(params)
        table = simulate.scenario_table(
            model.GameSpec(params=params, history=history, n=n_max)
        )
        assert {len(column) for column in table.values()} == {n_max}
        assert table["n"].tolist() == list(range(1, n_max + 1))
        for row in rows(table):
            spec = model.GameSpec(params=params, history=history, n=row["n"])
            kn = policy.kelly_horizon(spec)
            expected = (
                policy.elg_time_invariant(spec, kstar),
                policy.elg_time_invariant(spec, kn),
                policy.elg_time_varying(spec, policy.kelly_timevarying(spec)),
                kstar,
                kn,
            )
            got = tuple(row[key] for key in ("elg_kstar", "elg_kn", "elg_kvec", "kstar", "kn"))
            assert got == expected
            assert row["elg_kvec"] >= row["elg_kn"] - 1e-12
            assert row["elg_kn"] >= row["elg_kstar"] - 1e-12

    def test_scenario_a_n2_row(self):
        table = simulate.scenario_table(make_spec([0.55, 0.20], [1], n=2))
        row = rows(table)[1]
        assert row["n"] == 2
        assert row["elg_kstar"] == pytest.approx(0.053, abs=5e-4)
        assert row["elg_kn"] == pytest.approx(0.082, abs=5e-4)
        assert row["elg_kvec"] == pytest.approx(0.088, abs=5e-4)
        assert row["kstar"] == pytest.approx(0.16667, abs=1e-5)
        assert row["kn"] == pytest.approx(0.4, abs=1e-9)

    def test_scenario_b_n2_row(self):
        table = simulate.scenario_table(make_spec([0.55, -0.20], [1], n=2))
        row = rows(table)[1]
        assert row["kstar"] == pytest.approx(0.071, abs=5e-4)
        assert row["kn"] == pytest.approx(-0.04, abs=1e-9)

    def test_scenario_c_sign_change(self):
        table = simulate.scenario_table(make_spec([0.35, 0.33], [1], n=30))
        for row in rows(table):
            if row["n"] <= 10:
                assert row["elg_kstar"] < 0
            else:
                assert row["elg_kstar"] > 0
            assert row["elg_kn"] >= 0
            assert row["elg_kvec"] > 0

    def test_dominance_every_row(self):
        rng = random.Random(29)
        scenarios = [[0.55, 0.20], [0.55, -0.20], [0.35, 0.33]]
        scenarios += [bruteforce.random_valid_omega(rng, 1) for _ in range(20)]
        for omega in scenarios:
            table = simulate.scenario_table(make_spec(omega, [1], n=15))
            for row in rows(table):
                assert row["elg_kstar"] <= row["elg_kn"] + 1e-12
                assert row["elg_kn"] <= row["elg_kvec"] + 1e-12
