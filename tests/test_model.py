import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from kelly_memory import model
from kelly_memory.errors import (
    DimensionMismatch,
    DomainError,
    HorizonTooLarge,
    HyperdiamondViolation,
    UnsupportedDepth,
)
from strategies import valid_games


def make_spec(omega, history, n):
    return model.GameSpec(
        params=model.validate_params(omega),
        history=model.History(tuple(history)),
        n=n,
    )


SCENARIO_A = ([0.55, 0.20], [1])
SCENARIO_B = ([0.55, -0.20], [1])
SCENARIO_C = ([0.35, 0.33], [1])


def random_spec(rng, m, n):
    return make_spec(
        bruteforce.random_valid_omega(rng, m),
        bruteforce.random_history(rng, m),
        n,
    )


class TestValidateParams:
    def test_scenario_a_margin(self):
        params = model.validate_params([0.55, 0.20])
        assert params.margin == pytest.approx(0.25, abs=1e-8)

    def test_center_of_diamond(self):
        params = model.validate_params([0.5, 0.0])
        assert params.l1_distance == 0.0

    def test_scenario_c_margin(self):
        params = model.validate_params([0.35, 0.33])
        assert params.margin == pytest.approx(0.02, abs=1e-8)

    def test_violation_carries_excess(self):
        with pytest.raises(HyperdiamondViolation) as exc_info:
            model.validate_params([0.2, 0.4])
        assert exc_info.value.excess == pytest.approx(0.2, abs=1e-8)

    def test_on_the_unshrunk_edge_rejected(self):
        # At distance exactly 1/2 a head follows a head with probability 1;
        # that is past DIAMOND_RADIUS by EPS_MARGIN.
        with pytest.raises(HyperdiamondViolation) as exc_info:
            model.validate_params([0.75, 0.25])
        assert exc_info.value.excess == pytest.approx(model.EPS_MARGIN, rel=1e-6)

    def test_on_the_shrunk_edge_accepted(self):
        params = model.validate_params([0.5, model.DIAMOND_RADIUS])
        assert params.l1_distance == model.DIAMOND_RADIUS and params.margin == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            model.validate_params([0.5])

    @pytest.mark.parametrize(
        "omega",
        [["a", 0.1], [0.5, [0.1]], [[0.5, 0.1]], 0.5, [True, False], [0.5, 10**400],
         [0.5, True], (0.5, np.bool_(False)), [0.5, np.array(True)], np.array([True, False])],
        ids=["str", "ragged", "2-D", "scalar", "bool", "huge", "float-bool", "float-numpy-bool",
             "float-0d-bool", "bool-array"],
    )
    def test_not_a_vector_of_numbers_rejected(self, omega):
        # ["a", 0.1] used to raise ValueError, and 0.5 TypeError. [0.5, True]
        # used to be read as [0.5, 1.0].
        with pytest.raises(DomainError, match="omega must be a sequence of real numbers"):
            model.validate_params(omega)

    def test_require_reals_does_not_scan_an_array(self):
        # The dtype of an ndarray already says whether it holds bools.
        class Unscanned(np.ndarray):
            def __iter__(self):
                raise AssertionError("the entries were scanned one by one")

        values = np.array([0.5, 1.0]).view(Unscanned)
        assert model.require_reals(values, "x").tolist() == [0.5, 1.0]

    def test_omega_stored_as_a_float_tuple(self):
        params = model.MemoryParams(np.array([0.55, 0.2]))
        assert params.omega == (0.55, 0.2) and type(params.omega[0]) is float
        assert hash(params) == hash(model.validate_params([0.55, 0.2]))

    @pytest.mark.parametrize(
        "omega", [[math.nan, 0.1], [0.5, math.nan], [math.inf, 0.1], [0.5, -math.inf]]
    )
    def test_non_finite_rejected(self, omega):
        # NaN compares False with everything, so the excess test alone
        # would let it through.
        with pytest.raises(DomainError, match="omega"):
            model.validate_params(omega)

    def test_m1_matches_interval_conditions(self):
        # Depth 1: the diamond is equivalent to |w1| < 0.5 and
        # |w1| < w0 < 1 - |w1|. Check both classifiers agree away from the
        # boundary band where the interior margin kicks in.
        rng = random.Random(7)
        for _ in range(2000):
            w0 = rng.uniform(-0.2, 1.2)
            w1 = rng.uniform(-0.7, 0.7)
            l1 = abs(w0 - 0.5) + abs(w1)
            if abs(l1 - 0.5) < 1e-8:
                continue
            interval_ok = abs(w1) < 0.5 and abs(w1) < w0 < 1 - abs(w1)
            try:
                model.validate_params([w0, w1])
                diamond_ok = True
            except HyperdiamondViolation:
                diamond_ok = False
            assert diamond_ok == interval_ok


class TestHistoryAndSpec:
    def test_history_rejects_bad_entries(self):
        with pytest.raises(DimensionMismatch):
            model.History((1, 0))

    @pytest.mark.parametrize(
        "values", [(1.0, True), (1, True), (1.0, -1), ("+1",), 1],
        ids=["float-bool", "bool", "float", "str", "scalar"],
    )
    def test_history_entries_must_be_integers(self, values):
        # (1.0, True) used to be accepted, and 1 raised TypeError.
        with pytest.raises(DomainError, match="history"):
            model.History(values)

    def test_history_stores_a_tuple(self):
        # A list used to be kept, so the History could not be hashed.
        history = model.History([1, np.int64(-1)])
        assert history.values == (1, -1) and type(history.values[1]) is int
        assert hash(history) == hash(model.History((1, -1)))

    def test_bool_horizon_rejected(self):
        # True used to be accepted as a horizon of 1.
        with pytest.raises(DomainError, match="horizon must be an integer"):
            make_spec([0.55, 0.20], [1], n=True)

    @pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_require_integer_rejects_bools(self, value):
        with pytest.raises(DomainError, match="count must be an integer"):
            model.require_integer(value, "count")

    def test_spec_checks_lengths(self):
        params = model.validate_params([0.55, 0.20])
        with pytest.raises(DimensionMismatch):
            model.GameSpec(params=params, history=model.History((1, -1)), n=2)
        with pytest.raises(DimensionMismatch):
            model.GameSpec(params=params, history=model.History((1,)), n=0)

    @pytest.mark.parametrize("n", [2.5, 2.0, math.nan])
    def test_non_integral_horizon_rejected(self, n):
        # It used to be accepted, and the first use of probs raised TypeError.
        with pytest.raises(DomainError, match="horizon"):
            make_spec([0.55, 0.20], [1], n=n)

    def test_probs_is_one_read_only_pass(self):
        spec = make_spec([0.55, 0.20], [1], n=5)
        assert spec.probs is spec.probs
        np.testing.assert_array_equal(spec.probs, model.prob_sequence(spec))
        with pytest.raises(ValueError):
            spec.probs[0] = 0.5

    def test_induced_probs(self):
        assert model.History((1, -1, 1)).induced_probs == (1.0, 0.0, 1.0)


def cond_prob(params, window):
    """The head probability after ``window``, most recent first, read from the table."""
    return model.transition_table(params)[model.History(tuple(window)).state]


class TestCondProb:
    def test_scenario_a_after_head(self):
        params = model.validate_params([0.55, 0.20])
        assert cond_prob(params, [1]) == pytest.approx(0.75, abs=1e-12)

    def test_negative_weight_after_head(self):
        params = model.validate_params([0.55, -0.20])
        assert cond_prob(params, [1]) == pytest.approx(0.35, abs=1e-12)

    def test_memoryless_ignores_window(self):
        params = model.validate_params([0.6, 0.0])
        assert cond_prob(params, [1]) == pytest.approx(0.6)
        assert cond_prob(params, [-1]) == pytest.approx(0.6)

    def test_always_inside_unit_interval(self):
        rng = random.Random(11)
        for _ in range(300):
            m = rng.randint(1, 4)
            params = model.validate_params(bruteforce.random_valid_omega(rng, m))
            window = bruteforce.random_history(rng, m)
            p = cond_prob(params, window)
            assert model.EPS_MARGIN < p < 1 - model.EPS_MARGIN


def window_of(state, m):
    """The +1/-1 window, most recent first, that a bit-packed state encodes."""
    return tuple(1 if state >> i & 1 else -1 for i in range(m))


class TestTransitionTable:
    @given(game=valid_games())
    def test_matches_pure_python_oracle(self, game):
        params, _ = game
        table = model.transition_table(params)
        assert table.shape == (2**params.m,)
        for state in range(2**params.m):
            expected = bruteforce.conditional_head_prob(
                params.omega, window_of(state, params.m)
            )
            assert abs(table[state] - expected) <= 1e-15

    def test_history_state_packs_most_recent_first(self):
        assert model.History((1,)).state == 1
        assert model.History((-1, 1, 1)).state == 0b110
        for state in range(2**4):
            assert model.History(window_of(state, 4)).state == state

    def test_depth_cap(self):
        params = model.validate_params(
            [0.5] + [0.01] * (model.MAX_TABLE_DEPTH + 1)
        )
        with pytest.raises(UnsupportedDepth):
            model.transition_table(params)

    def test_depth_at_the_cap_accepted(self):
        params = model.validate_params([0.5] + [0.01] * model.MAX_TABLE_DEPTH)
        assert model.transition_table(params).size == 2**model.MAX_TABLE_DEPTH


class TestProbSequence:
    def test_scenario_a(self):
        probs = model.prob_sequence(make_spec(*SCENARIO_A, n=2))
        assert probs == pytest.approx([0.75, 0.65], abs=1e-12)

    def test_scenario_b(self):
        probs = model.prob_sequence(make_spec(*SCENARIO_B, n=2))
        assert probs == pytest.approx([0.35, 0.61], abs=1e-12)

    def test_iid_is_flat(self):
        probs = model.prob_sequence(make_spec([0.6, 0.0, 0.0], [1, -1], n=8))
        assert probs == pytest.approx([0.6] * 8, abs=1e-15)

    def test_entries_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(100):
            m = rng.randint(1, 5)
            probs = model.prob_sequence(random_spec(rng, m, n=60))
            assert np.all(probs > 0) and np.all(probs < 1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def benchmark_shaped_game(rng, m, n):
    """A game drawn as the benchmark draws its kelly game: l1 distance 0.45."""
    shares = [0.2 + rng.random() for _ in range(m + 1)]
    signed = [rng.choice((-1.0, 1.0)) * 0.45 * s / sum(shares) for s in shares]
    return make_spec([0.5 + signed[0]] + signed[1:], bruteforce.random_history(rng, m), n)


def walk(spec):
    """prob_sequence(spec) and its loop steps, counted by the m calls to mul per step."""
    calls = []

    def counted(a, b):
        calls.append(None)
        return a * b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "mul", counted)
        probs = model.prob_sequence(spec)
    return probs, len(calls) // spec.params.m


class TestRepeatedWindow:
    @settings(deadline=None)
    @given(game=valid_games(max_depth=8), n=st.integers(1, 3000))
    def test_equal_to_full_loop(self, game, n):
        params, history = game
        spec = model.GameSpec(params=params, history=history, n=n)
        assert same_bits(model.prob_sequence(spec), bruteforce.prob_sequence(spec))

    @settings(deadline=None, max_examples=30)
    @given(
        lag=st.floats(0.4999, 0.5 - 2e-9),
        sign=st.sampled_from((1.0, -1.0)),
        head=st.sampled_from((1, -1)),
        n=st.integers(1, 3000),
    )
    def test_near_boundary_game_without_repeat(self, lag, sign, head, n):
        # |p_k - p_inf| shrinks by the factor 2 lag per stage, by far more
        # than one ulp, so no window repeats and every stage is walked.
        spec = make_spec([0.5, sign * lag], [head], n)
        probs, steps = walk(spec)
        assert steps == n
        assert same_bits(probs, bruteforce.prob_sequence(spec))

    def test_benchmark_shaped_game_stops_early(self):
        rng = random.Random(17)
        for _ in range(20):
            spec = benchmark_shaped_game(rng, 6, 100_000)
            probs, steps = walk(spec)
            assert steps < 2_000
            assert same_bits(probs, bruteforce.prob_sequence(spec))

    def test_constant_sequence_stops_at_its_first_checkpoints(self):
        spec = make_spec([0.6, 0.0, 0.0], [1, -1], n=10**5)
        probs, steps = walk(spec)
        assert steps == 3
        assert same_bits(probs, bruteforce.prob_sequence(spec))


class TestClosedForm:
    def test_k0_returns_p0(self):
        params = model.validate_params([0.55, 0.20])
        assert model.closed_form_p_k(params, 0.75, 0) == pytest.approx(0.75, abs=1e-15)

    def test_k1(self):
        params = model.validate_params([0.55, 0.20])
        assert model.closed_form_p_k(params, 0.75, 1) == pytest.approx(0.65, abs=1e-12)

    def test_large_k_hits_steady_state(self):
        params = model.validate_params([0.55, 0.20])
        assert model.closed_form_p_k(params, 0.75, 300) == pytest.approx(
            0.5833333333, abs=1e-9
        )

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_p0_on_the_closed_interval(self, p0):
        assert model.closed_form_p_k(model.validate_params([0.55, 0.20]), p0, 0) == p0

    def test_rejects_deeper_memory(self):
        params = model.validate_params([0.55, 0.1, 0.1])
        with pytest.raises(UnsupportedDepth):
            model.closed_form_p_k(params, 0.7, 1)

    @pytest.mark.parametrize(
        "p0,k,match",
        [
            # -1 and 2.5 used to give 0.375 and 0.575, NaN a NaN, and
            # 10**400 an OverflowError.
            (0.5, -1, "k >= 0 and p0 in"),
            (0.5, 2.5, "k must be an integer"),
            (0.5, 2.0, "k must be an integer"),
            pytest.param(0.5, 10**400, "k is too large", id="0.5-10**400"),
            (math.nan, 3, "k >= 0 and p0 in"),
            (-0.1, 3, "k >= 0 and p0 in"),
            (1.5, 3, "k >= 0 and p0 in"),
        ],
    )
    def test_bad_arguments_rejected(self, p0, k, match):
        with pytest.raises(DomainError, match=match):
            model.closed_form_p_k(model.validate_params([0.55, 0.20]), p0, k)

    def test_matches_recursion_everywhere(self):
        rng = random.Random(5)
        for _ in range(50):
            spec = random_spec(rng, 1, n=201)
            probs = model.prob_sequence(spec)
            p0 = probs[0]
            for k in (0, 1, 2, 5, 17, 50, 200):
                assert model.closed_form_p_k(spec.params, p0, k) == pytest.approx(
                    probs[k], abs=1e-12
                )

    def test_three_routes_agree_pairwise(self):
        # Recursion, closed form, and state-space propagation must agree on
        # every k up to 200.
        rng = random.Random(127)
        for _ in range(5):
            spec = random_spec(rng, 1, n=201)
            probs = model.prob_sequence(spec)
            ss = model.state_space(spec.params, spec.history)
            p0 = probs[0]
            for k in range(201):
                closed = model.closed_form_p_k(spec.params, p0, k)
                propagated = ss.probability_at(k)
                assert abs(closed - probs[k]) < 1e-10
                assert abs(propagated - probs[k]) < 1e-10
                assert abs(propagated - closed) < 1e-10


class TestSteadyState:
    @pytest.mark.parametrize(
        "omega,expected",
        [
            ([0.55, 0.20], 0.35 / 0.6),
            ([0.55, -0.20], 0.75 / 1.4),
            ([0.35, 0.33], 0.02 / 0.34),
        ],
    )
    def test_reference_values(self, omega, expected):
        assert model.steady_state(model.validate_params(omega)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_fixed_point_of_recursion(self):
        rng = random.Random(13)
        for _ in range(200):
            m = rng.randint(1, 5)
            params = model.validate_params(bruteforce.random_valid_omega(rng, m))
            p_inf = model.steady_state(params)
            w = params.omega
            step = w[0] - sum(w[1:]) + 2 * sum(w[1:]) * p_inf
            assert step == pytest.approx(p_inf, abs=1e-15)
            assert 0 < p_inf < 1


class TestLambdaN:
    def test_scenario_a_n2(self):
        params = model.validate_params([0.55, 0.20])
        assert model.lambda_n(params, 2) == pytest.approx(0.7, abs=1e-12)

    def test_memoryless_is_inverse_n(self):
        params = model.validate_params([0.6, 0.0])
        for n in (1, 2, 5, 40):
            assert model.lambda_n(params, n) == pytest.approx(1.0 / n, abs=1e-15)

    def test_single_bet_weights_p0_fully(self):
        params = model.validate_params([0.55, 0.20])
        assert model.lambda_n(params, 1) == pytest.approx(1.0, abs=1e-15)

    def test_range_and_decay(self):
        rng = random.Random(17)
        for _ in range(100):
            params = model.validate_params(bruteforce.random_valid_omega(rng, 1))
            values = [model.lambda_n(params, n) for n in range(1, 60)]
            assert all(0 < v <= 1 for v in values)
        assert model.lambda_n(params, 10_000) < 1e-3

    def test_rejects_deeper_memory(self):
        with pytest.raises(UnsupportedDepth):
            model.lambda_n(model.validate_params([0.5, 0.1, 0.1]), 3)

    @pytest.mark.parametrize(
        "n,match",
        [
            # 2.5 used to give 0.599, and 10**400 an OverflowError.
            (2.5, "n must be an integer"),
            (2.0, "n must be an integer"),
            (math.nan, "n must be an integer"),
            pytest.param(10**400, "n is too large", id="10**400"),
        ],
    )
    def test_bad_horizon_rejected(self, n, match):
        with pytest.raises(DomainError, match=match):
            model.lambda_n(model.validate_params([0.55, 0.20]), n)

    def test_bool_horizon_rejected(self):
        # True used to give lambda_1 = 1.
        with pytest.raises(DomainError, match="n must be an integer"):
            model.lambda_n(model.validate_params([0.55, 0.20]), True)

    def test_huge_integer_horizon_is_finite(self):
        assert 0 < model.lambda_n(model.validate_params([0.55, 0.20]), 10**300) < 1e-299


def m3_polynomial(omega, history):
    """E(H_2) at depth 3 as an explicit polynomial in the history."""
    w0, w1, w2, w3 = omega
    x1, x2, x3 = history
    return (
        x1 * (2 * w1**2 + w1 + w2)
        + x2 * (2 * w1 * w2 + w2 + w3)
        + x3 * (2 * w1 * w3 + w3)
        + 2 * w0 * w1
        + 2 * w0
        - w1
    )


class TestExpectedHeads:
    def test_scenario_a_n2(self):
        spec = make_spec(*SCENARIO_A, n=2)
        assert model.expected_heads(spec) == pytest.approx(1.4, abs=1e-12)
        lam = model.lambda_n(spec.params, 2)
        p_inf = model.steady_state(spec.params)
        blended = 2 * (lam * 0.75 + (1 - lam) * p_inf)
        assert model.expected_heads(spec) == pytest.approx(blended, abs=1e-12)

    def test_iid(self):
        for n in (1, 4, 9):
            spec = make_spec([0.6, 0.0], [1], n=n)
            assert model.expected_heads(spec) == pytest.approx(0.6 * n, abs=1e-12)

    def test_depth3_polynomial(self):
        rng = random.Random(23)
        histories = [
            (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
        ]
        for _ in range(30):
            omega = bruteforce.random_valid_omega(rng, 3)
            for history in histories:
                spec = make_spec(omega, history, n=2)
                assert model.expected_heads(spec) == pytest.approx(
                    m3_polynomial(omega, history), abs=1e-12
                )

    def test_blend_identity_depth1(self):
        rng = random.Random(29)
        for _ in range(100):
            spec = random_spec(rng, 1, n=rng.randint(1, 80))
            lam = model.lambda_n(spec.params, spec.n)
            p0 = model.prob_sequence(spec)[0]
            p_inf = model.steady_state(spec.params)
            blended = spec.n * (lam * p0 + (1 - lam) * p_inf)
            assert model.expected_heads(spec) == pytest.approx(blended, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(game=valid_games(), n=st.integers(1, 100_000))
    def test_within_two_ulp_of_the_exact_sum(self, game, n):
        # A plain left-to-right cumsum is off by thousands of ulps at
        # n = 1e5, which moves the 12th digit of K_n.
        spec = model.GameSpec(*game, n=n)
        exact = math.fsum(spec.probs.tolist())
        assert abs(model.expected_heads(spec) - exact) <= 2 * math.ulp(exact)

    def test_within_two_ulp_of_the_exact_sum_at_a_million(self):
        spec = make_spec([0.55, 0.15, -0.1, 0.12], [1, -1, 1], n=10**6)
        exact = math.fsum(spec.probs.tolist())
        assert abs(model.expected_heads(spec) - exact) <= 2 * math.ulp(exact)

    @settings(deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
        cut=st.integers(1, 300),
    )
    def test_prefix_sum_entry_reads_its_prefix_alone(self, values, cut):
        # Row n of scenario_table equals the horizon-n game only because of this.
        whole = model.prefix_sums(np.array(values))
        part = model.prefix_sums(np.array(values[:cut]))
        assert part.tolist() == whole[:cut].tolist()
        assert all(
            abs(s - math.fsum(values[: k + 1])) <= 2 * math.ulp(s) for k, s in enumerate(whole)
        )

    def test_prefix_sums_exact_when_each_term_outgrows_the_sum(self):
        # Here each step's rounding error also sits in the running sum's
        # low bits, the half of TwoSum that sums of p_k hardly reach.
        values = [0.1 * 3.0**k for k in range(40)]
        exact = [math.fsum(values[: k + 1]) for k in range(40)]
        assert model.prefix_sums(np.array(values)).tolist() == exact


class TestStateSpace:
    def test_depth3_structure(self):
        omega = [0.55, 0.1, -0.05, 0.02]
        params = model.validate_params(omega)
        ss = model.state_space(params, model.History((1, -1, 1)))
        np.testing.assert_allclose(ss.A[0], [0, 1, 0])
        np.testing.assert_allclose(ss.A[1], [0, 0, 1])
        np.testing.assert_allclose(ss.A[2], [2 * 0.02, 2 * -0.05, 2 * 0.1])
        np.testing.assert_allclose(ss.b, [0, 0, 0.55 - 0.1 + 0.05 - 0.02])
        np.testing.assert_allclose(ss.c, [0, 0, 1])
        np.testing.assert_allclose(ss.v0, [1.0, 0.0, 1.0])
        assert float(ss.c @ ss.v0) == 1.0  # c picks out p_{-1}

    def test_scalar_reduction(self):
        params = model.validate_params([0.55, 0.20])
        ss = model.state_space(params, model.History((1,)))
        assert ss.A[0, 0] == pytest.approx(0.4)
        assert ss.b[0] == pytest.approx(0.35)
        assert ss.b[0] / (1 - ss.A[0, 0]) == pytest.approx(
            model.steady_state(params), abs=1e-15
        )

    def test_steady_state_matches_closed_form(self):
        rng = random.Random(31)
        for _ in range(60):
            m = rng.randint(1, 5)
            omega = bruteforce.random_valid_omega(rng, m)
            params = model.validate_params(omega)
            ss = model.state_space(params, model.History(bruteforce.random_history(rng, m)))
            assert ss.steady_state() == pytest.approx(
                model.steady_state(params), abs=1e-12
            )

    def test_propagation_matches_recursion(self):
        rng = random.Random(37)
        for m in range(1, 6):
            spec = random_spec(rng, m, n=201)
            probs = model.prob_sequence(spec)
            ss = model.state_space(spec.params, spec.history)
            for k in (0, 1, 2, 3, 10, 57, 200):
                assert ss.probability_at(k) == pytest.approx(probs[k], abs=1e-10)

    @pytest.mark.parametrize(
        "k,match",
        [(-1, "k must be >= 0"), (2.5, "k must be an integer"), (True, "k must be an integer")],
        ids=["-1", "2.5", "True"],
    )
    def test_bad_stage_rejected(self, k, match):
        # -1 used to give 0.99999..., and 2.5 a TypeError from matrix_power.
        ss = model.state_space(model.validate_params([0.55, 0.20]), model.History((1,)))
        with pytest.raises(DomainError, match=match):
            ss.probability_at(k)

    def test_transition_matrix_decays(self):
        rng = random.Random(41)
        for m in range(1, 6):
            spec = random_spec(rng, m, n=1)
            ss = model.state_space(spec.params, spec.history)
            assert np.abs(np.linalg.matrix_power(ss.A, 200)).max() < 1e-6
            det = np.linalg.det(np.eye(m) - ss.A)
            total = sum(spec.params.omega[1:])
            assert det == pytest.approx(1 - 2 * total, abs=1e-10)
            assert abs(det) > 0


class TestGeometricConvergence:
    def test_depth1_contraction(self):
        rng = random.Random(43)
        for _ in range(50):
            spec = random_spec(rng, 1, n=80)
            probs = model.prob_sequence(spec)
            p_inf = model.steady_state(spec.params)
            rho = abs(2 * spec.params.omega[1])
            gap0 = abs(probs[0] - p_inf)
            for k in range(80):
                assert abs(probs[k] - p_inf) <= rho**k * gap0 + 1e-12


class TestEnumerationOracle:
    def test_scenario_a_n2(self):
        spec = make_spec(*SCENARIO_A, n=2)
        assert model.enumerate_expected_heads(spec) == pytest.approx(1.4, abs=1e-12)

    def test_iid(self):
        spec = make_spec([0.6, 0.0], [1], n=3)
        assert model.enumerate_expected_heads(spec) == pytest.approx(1.8, abs=1e-12)

    def test_depth3_polynomial(self):
        rng = random.Random(47)
        for _ in range(10):
            omega = bruteforce.random_valid_omega(rng, 3)
            history = bruteforce.random_history(rng, 3)
            spec = make_spec(omega, history, n=2)
            assert model.enumerate_expected_heads(spec) == pytest.approx(
                m3_polynomial(omega, history), abs=1e-12
            )

    def test_horizon_guard(self):
        spec = make_spec([0.55, 0.20], [1], n=21)
        with pytest.raises(HorizonTooLarge):
            model.enumerate_expected_heads(spec)

    def test_horizon_at_the_cap_accepted(self, monkeypatch):
        # 2^20 paths of 20 steps take about 170 MB, so a smaller cap stands in.
        monkeypatch.setattr(model, "MAX_ENUM_HORIZON", 3)
        assert model.all_paths(3).shape == (8, 3)
        with pytest.raises(HorizonTooLarge):
            model.all_paths(4)

    @pytest.mark.parametrize("n", [2.5, 2.0, math.nan])
    def test_non_integral_path_length_rejected(self, n):
        # It used to raise TypeError from np.arange.
        with pytest.raises(DomainError, match="horizon"):
            model.all_paths(n)

    def test_bool_path_length_rejected(self):
        # True used to give the two paths of length 1.
        with pytest.raises(DomainError, match="horizon must be an integer"):
            model.all_paths(True)

    def test_negative_path_length_rejected(self):
        # all_paths(-1) used to return one empty path, as all_paths(0) does.
        with pytest.raises(DomainError, match="horizon must be >= 0, got -1"):
            model.all_paths(-1)
        assert model.all_paths(0).shape == (1, 0)

    def test_matches_analytic_randomized(self):
        rng = random.Random(53)
        for _ in range(500):
            m = rng.randint(1, 3)
            spec = random_spec(rng, m, n=rng.randint(1, 12))
            assert model.enumerate_expected_heads(spec) == pytest.approx(
                model.expected_heads(spec), abs=1e-12
            )

    @settings(deadline=None)
    @given(game=valid_games(), n=st.integers(1, 8))
    def test_matches_pure_python_oracle(self, game, n):
        params, history = game
        spec = model.GameSpec(params=params, history=history, n=n)
        paths = model.all_paths(n)
        probs = model.path_probabilities(spec, paths)
        for path, prob in bruteforce.iter_paths(params.omega, history.values, n):
            # all_paths row r spells r in binary, with +1 for a 1 bit.
            row = int("".join("1" if x == 1 else "0" for x in path), 2)
            assert abs(probs[row] - prob) <= 1e-12
        assert model.enumerate_expected_heads(spec) == pytest.approx(
            bruteforce.expected_heads(params.omega, history.values, n), abs=1e-12
        )

    def test_path_probabilities_sum_to_one(self):
        rng = random.Random(61)
        for _ in range(30):
            m = rng.randint(1, 3)
            spec = random_spec(rng, m, n=rng.randint(1, 10))
            probs = model.path_probabilities(spec, model.all_paths(spec.n))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)


class TestBudgetError:
    def test_size_in_gib(self):
        with pytest.raises(DomainError) as info:
            model.check_memory(3 * 2**30, "x")
        assert str(info.value) == "x need about 3 GiB, over the 2 GiB budget"

    def test_size_past_floats_is_a_bound(self):
        # From 2**1000 bytes on, the size in GiB is given as a bound.
        with pytest.raises(DomainError, match=r"x need at least 2\*\*970 GiB"):
            model.check_memory(2**1000, "x")
        with pytest.raises(DomainError, match=r"x need about 9\.98e\+291 GiB"):
            model.check_memory(2**1000 - 1, "x")

    def test_the_whole_budget_may_be_taken(self):
        # Accepted without raising, up to the last byte.
        model.check_memory(model.MEMORY_BUDGET - 5, "x")
        model.check_memory(model.MEMORY_BUDGET, "x")
        with pytest.raises(DomainError, match="budget"):
            model.check_memory(model.MEMORY_BUDGET + 1, "x")

    def test_a_horizon_is_charged_its_stages(self, monkeypatch):
        spec = make_spec(*SCENARIO_C, n=1000)
        monkeypatch.setattr(model, "MEMORY_BUDGET", model.STAGE_BYTES * spec.n)
        assert model.prob_sequence(spec).size == spec.n
        monkeypatch.setattr(model, "MEMORY_BUDGET", model.STAGE_BYTES * spec.n - 1)
        with pytest.raises(DomainError, match="1000 bets need"):
            model.prob_sequence(spec)

    def test_a_state_space_is_charged_five_matrices(self, monkeypatch):
        params, history = model.validate_params([0.5, 0.1, -0.2, 0.1]), model.History((1, -1, 1))
        monkeypatch.setattr(model, "MEMORY_BUDGET", 40 * 3 * 3)
        model.state_space(params, history)
        monkeypatch.setattr(model, "MEMORY_BUDGET", 40 * 3 * 3 - 1)
        with pytest.raises(DomainError, match="state matrices of depth 3 need"):
            model.state_space(params, history)

    @pytest.mark.parametrize("m", [50, 200])
    def test_state_space_traced_peak_within_the_charge(self, m):
        # Building the realization and reading p_k from it hold about five
        # m x m matrices; small objects add a few KiB whatever m is.
        params = model.validate_params([0.5] + [0.4 / m] * m)
        history = model.History((1, -1) * (m // 2))

        def use():
            ss = model.state_space(params, history)
            return ss.probability_at(7), ss.steady_state()

        use()  # first-call costs: lazy imports, caches
        tracemalloc.start()
        try:
            use()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * m * m + 16 * 2**10
