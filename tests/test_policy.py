import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bruteforce
from kelly_memory import model, policy
from kelly_memory.errors import DimensionMismatch, DomainError, KellyMemoryError


def make_spec(omega, history, n):
    return model.GameSpec(
        params=model.validate_params(omega),
        history=model.History(tuple(history)),
        n=n,
    )


SPEC_A2 = make_spec([0.55, 0.20], [1], n=2)
SPEC_B2 = make_spec([0.55, -0.20], [1], n=2)


def random_spec(rng, m, n):
    return make_spec(
        bruteforce.random_valid_omega(rng, m),
        bruteforce.random_history(rng, m),
        n,
    )


FRACTION_VALUES = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, 0.999999, -1.0, 1.0, 2**70)),
    st.booleans(),
    st.integers(-3, 3),
    st.builds(np.float32, st.floats(-2.0, 2.0, width=32)),
    st.builds(np.int64, st.integers(-2, 2)),
)
POLICY_INPUTS = st.recursive(
    st.one_of(
        FRACTION_VALUES,
        st.none(),
        st.text(max_size=4),
        st.sampled_from(("0.3", "nan", b"0.3", 0.3j)),
        st.builds(np.array, FRACTION_VALUES),
        st.builds(np.empty, st.sampled_from((0, (0, 2), (2, 0)))),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.builds(np.array, st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3)),
        st.builds(
            lambda v: np.array(v).reshape(1, -1),
            st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3),
        ),
    ),
    max_leaves=8,
)


class TestBettorPolicy:
    def test_fraction_bounds(self):
        with pytest.raises(DomainError):
            policy.BettorPolicy.constant(1.0)
        with pytest.raises(DomainError):
            policy.BettorPolicy.varying([0.2, -1.0])

    @pytest.mark.parametrize(
        "ks,bad",
        [
            ([0.2, math.nan, 1.5], "nan"),
            (np.array([0.2, 0.1, -1.0, 2.0]), "-1.0"),
            ((0.5, 1, 0.5), "1.0"),
        ],
    )
    def test_first_bad_fraction_named(self, ks, bad):
        with pytest.raises(DomainError, match=rf"^betting fraction {bad} outside"):
            policy.BettorPolicy.varying(ks)

    def test_varying_over_an_array_holds_a_read_only_copy(self):
        ks = np.linspace(-0.9, 0.9, 7)
        pol = policy.BettorPolicy.varying(ks)
        np.testing.assert_array_equal(pol.fractions, ks)
        assert pol.fractions.dtype == np.float64
        assert not pol.fractions.flags.writeable
        ks[0] = 0.5
        assert pol.fractions[0] == -0.9

    def test_shape_is_the_kind(self):
        assert policy.BettorPolicy.constant(0.3).fractions.shape == ()
        assert policy.BettorPolicy.varying([0.3]).fractions.shape == (1,)
        assert policy.BettorPolicy(np.array([0.5, 0.3])).fractions.shape == (2,)

    @pytest.mark.parametrize(
        "make,arg",
        [
            (policy.BettorPolicy.varying, [[0.1, 0.2]]),
            (policy.BettorPolicy.varying, 0.3),
            (policy.BettorPolicy.varying, []),
            (policy.BettorPolicy.constant, [0.3]),
            (policy.BettorPolicy.constant, "x"),
            (policy.BettorPolicy.constant, "0.3"),
            (policy.BettorPolicy.constant, None),
            (policy.BettorPolicy, [[0.1], [0.1, 0.2]]),
        ],
    )
    def test_wrong_shape_or_type_rejected(self, make, arg):
        # A 2-D vector used to be accepted, and the others raised
        # TypeError or ValueError.
        with pytest.raises(KellyMemoryError):
            make(arg)

    @settings(max_examples=300)
    @given(
        make=st.sampled_from(
            (policy.BettorPolicy, policy.BettorPolicy.constant, policy.BettorPolicy.varying)
        ),
        arg=POLICY_INPUTS,
    )
    def test_any_input_gives_a_valid_policy_or_a_package_error(self, make, arg):
        try:
            pol = make(arg)
        except KellyMemoryError:
            return
        ks = pol.fractions
        assert isinstance(ks, np.ndarray) and ks.dtype == np.float64
        assert not ks.flags.writeable
        assert ks.ndim <= 1 and ks.size >= 1
        assert np.all(np.abs(ks) < 1.0)
        if make is policy.BettorPolicy.constant:
            assert ks.ndim == 0
        if make is policy.BettorPolicy.varying:
            assert ks.ndim == 1


    @pytest.mark.parametrize(
        "make,arg",
        [
            (policy.BettorPolicy, False),
            (policy.BettorPolicy.constant, True),
            (policy.BettorPolicy.constant, np.bool_(False)),
            (policy.BettorPolicy, np.array([True])),
            (policy.BettorPolicy.varying, [0.1, True]),
            (policy.BettorPolicy.varying, (0.1, np.bool_(False))),
            (policy.BettorPolicy.varying, [0.1, np.array(False)]),
        ],
        ids=["bool", "constant-bool", "numpy-bool", "bool-array", "float-bool",
             "float-numpy-bool", "float-0d-bool"],
    )
    def test_bools_rejected(self, make, arg):
        # A False used to be read as the fraction 0.0, and a True was
        # rejected only as the fraction 1.0, outside (-1, 1).
        with pytest.raises(DomainError, match="betting fractions must be real numbers"):
            make(arg)


class TestKellyClassical:
    def test_reference_values(self):
        assert policy.kelly_classical(0.35 / 0.6) == pytest.approx(0.16667, abs=1e-5)
        assert policy.kelly_classical(0.02 / 0.34) == pytest.approx(-0.88235, abs=1e-5)

    def test_fair_coin(self):
        assert policy.kelly_classical(0.5) == 0.0

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                policy.kelly_classical(p)

    @pytest.mark.parametrize("p", ["0.5", [0.5], True, 10**400], ids=["str", "list", "bool", "huge"])
    def test_not_a_real_number_rejected(self, p):
        # A string or a list used to raise TypeError from the comparison.
        with pytest.raises(DomainError, match="head probability must be a real number"):
            policy.kelly_classical(p)


class TestKellyHorizon:
    def test_scenario_a(self):
        assert policy.kelly_horizon(SPEC_A2) == pytest.approx(0.4, abs=1e-9)

    def test_scenario_b(self):
        assert policy.kelly_horizon(SPEC_B2) == pytest.approx(-0.04, abs=1e-9)

    def test_iid_reduces_to_classical(self):
        for n in (1, 3, 17):
            spec = make_spec([0.6, 0.0], [1], n=n)
            assert policy.kelly_horizon(spec) == pytest.approx(0.2, abs=1e-12)

    def test_tends_to_limit(self):
        spec = make_spec([0.55, 0.20], [1], n=4000)
        assert policy.kelly_horizon(spec) == pytest.approx(
            policy.kelly_limit(spec.params), abs=1e-3
        )


class TestKellyLimit:
    @pytest.mark.parametrize(
        "omega,expected",
        [
            ([0.55, 0.20], 0.16667),
            ([0.55, -0.20], 0.07143),
            ([0.35, 0.33], -0.88235),
        ],
    )
    def test_reference_values(self, omega, expected):
        assert policy.kelly_limit(model.validate_params(omega)) == pytest.approx(
            expected, abs=1e-5
        )


class TestKellyTimeVarying:
    def test_scenario_a(self):
        pol = policy.kelly_timevarying(SPEC_A2)
        assert pol.fractions.shape == (2,)
        assert pol.fractions == pytest.approx((0.5, 0.3), abs=1e-9)

    def test_scenario_b(self):
        pol = policy.kelly_timevarying(SPEC_B2)
        assert pol.fractions == pytest.approx((-0.3, 0.22), abs=1e-9)

    def test_iid_constant_vector(self):
        pol = policy.kelly_timevarying(make_spec([0.6, 0.0], [1], n=5))
        assert pol.fractions == pytest.approx((0.2,) * 5, abs=1e-12)

    def test_mean_is_horizon_fraction(self):
        rng = random.Random(67)
        for _ in range(200):
            m = rng.randint(1, 3)
            spec = random_spec(rng, m, n=rng.randint(1, 100))
            pol = policy.kelly_timevarying(spec)
            mean = sum(pol.fractions) / spec.n
            assert mean == pytest.approx(policy.kelly_horizon(spec), abs=1e-12)


class TestElgTimeInvariant:
    def test_scenario_a_kstar(self):
        assert policy.elg_time_invariant(SPEC_A2, 0.35 / 0.6 * 2 - 1) == pytest.approx(
            0.053, abs=5e-4
        )

    def test_scenario_a_kn(self):
        assert policy.elg_time_invariant(SPEC_A2, 0.4) == pytest.approx(0.082, abs=5e-4)

    def test_no_bet_no_growth(self):
        assert policy.elg_time_invariant(SPEC_A2, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            policy.elg_time_invariant(SPEC_A2, 1.0)
        with pytest.raises(DomainError, match="betting fraction must be a real number"):
            policy.elg_time_invariant(SPEC_A2, "0.1")

    def test_matches_path_enumeration(self):
        rng = random.Random(71)
        for _ in range(30):
            m = rng.randint(1, 3)
            omega = bruteforce.random_valid_omega(rng, m)
            history = bruteforce.random_history(rng, m)
            n = rng.randint(1, 8)
            k = rng.uniform(-0.9, 0.9)
            spec = make_spec(omega, history, n)
            assert policy.elg_time_invariant(spec, k) == pytest.approx(
                bruteforce.elg_constant(omega, history, n, k), abs=1e-12
            )

    def test_derivative_vanishes_at_optimum(self):
        rng = random.Random(73)
        h = 1e-6
        for _ in range(50):
            spec = random_spec(rng, rng.randint(1, 3), rng.randint(1, 40))
            kn = policy.kelly_horizon(spec)
            grad = (
                policy.elg_time_invariant(spec, kn + h)
                - policy.elg_time_invariant(spec, kn - h)
            ) / (2 * h)
            assert abs(grad) < 1e-6

    def test_sign_matches_edge(self):
        rng = random.Random(79)
        for _ in range(100):
            spec = random_spec(rng, rng.randint(1, 3), rng.randint(1, 30))
            h = model.expected_heads(spec) / spec.n
            kn = policy.kelly_horizon(spec)
            if abs(h - 0.5) > 1e-12:
                assert (kn > 0) == (h > 0.5)


class TestElgTimeVarying:
    def test_scenario_a_kvec(self):
        pol = policy.BettorPolicy.varying([0.5, 0.3])
        assert policy.elg_time_varying(SPEC_A2, pol) == pytest.approx(0.088, abs=5e-4)

    def test_constant_vector_matches_invariant(self):
        pol = policy.BettorPolicy.varying([0.4, 0.4])
        assert policy.elg_time_varying(SPEC_A2, pol) == pytest.approx(
            policy.elg_time_invariant(SPEC_A2, 0.4), abs=1e-15
        )
        assert policy.elg_time_varying(SPEC_A2, pol) == pytest.approx(0.082, abs=5e-4)

    def test_time_invariant_policy_accepted(self):
        pol = policy.BettorPolicy.constant(0.4)
        assert policy.elg_time_varying(SPEC_A2, pol) == pytest.approx(
            policy.elg_time_invariant(SPEC_A2, 0.4), abs=1e-15
        )

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            policy.elg_time_varying(SPEC_A2, policy.BettorPolicy.varying([0.1, 0.1, 0.1]))

    def test_matches_path_enumeration(self):
        rng = random.Random(83)
        for _ in range(20):
            m = rng.randint(1, 2)
            omega = bruteforce.random_valid_omega(rng, m)
            history = bruteforce.random_history(rng, m)
            n = rng.randint(1, 7)
            ks = [rng.uniform(-0.9, 0.9) for _ in range(n)]
            spec = make_spec(omega, history, n)
            pol = policy.BettorPolicy.varying(ks)
            assert policy.elg_time_varying(spec, pol) == pytest.approx(
                bruteforce.elg_vector(omega, history, n, ks), abs=1e-12
            )


class TestElg:
    def test_constant_is_elg_time_invariant(self):
        rng = random.Random(109)
        for _ in range(50):
            spec = random_spec(rng, rng.randint(1, 3), rng.randint(1, 40))
            k = rng.uniform(-0.9, 0.9)
            assert policy.elg(spec, policy.BettorPolicy.constant(k)) == (
                policy.elg_time_invariant(spec, k)
            )

    def test_vector_is_elg_time_varying(self):
        rng = random.Random(113)
        for _ in range(50):
            spec = random_spec(rng, rng.randint(1, 3), rng.randint(1, 40))
            pol = policy.BettorPolicy.varying([rng.uniform(-0.9, 0.9) for _ in range(spec.n)])
            assert policy.elg(spec, pol) == policy.elg_time_varying(spec, pol)

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatch):
            policy.elg(SPEC_A2, policy.BettorPolicy.varying([0.1, 0.1, 0.1]))


class TestOptimality:
    def test_constant_fraction_optimum(self):
        rng = random.Random(89)
        spec = random_spec(rng, 2, 12)
        kn = policy.kelly_horizon(spec)
        best = policy.elg_time_invariant(spec, kn)
        for _ in range(1000):
            k = rng.uniform(-0.999, 0.999)
            assert best >= policy.elg_time_invariant(spec, k) - 1e-15

    def test_vector_optimum_coordinatewise(self):
        rng = random.Random(97)
        spec = random_spec(rng, 1, 6)
        pol = policy.kelly_timevarying(spec)
        best = policy.elg_time_varying(spec, pol)
        for _ in range(200):
            j = rng.randrange(spec.n)
            bumped = list(pol.fractions)
            bumped[j] = min(0.999, max(-0.999, bumped[j] + rng.uniform(-0.2, 0.2)))
            assert best >= policy.elg_time_varying(
                spec, policy.BettorPolicy.varying(bumped)
            ) - 1e-15


class TestDominanceChain:
    @pytest.mark.parametrize(
        "omega", [[0.55, 0.20], [0.55, -0.20], [0.35, 0.33]]
    )
    def test_reference_scenarios(self, omega):
        params = model.validate_params(omega)
        kstar = policy.kelly_limit(params)
        for n in range(1, 31):
            spec = make_spec(omega, [1], n)
            elg_star = policy.elg_time_invariant(spec, kstar)
            elg_n = policy.elg_time_invariant(spec, policy.kelly_horizon(spec))
            elg_vec = policy.elg_time_varying(spec, policy.kelly_timevarying(spec))
            assert elg_star <= elg_n + 1e-12
            assert elg_n <= elg_vec + 1e-12

    def test_random_specs(self):
        rng = random.Random(101)
        for _ in range(50):
            spec = random_spec(rng, 1, rng.randint(1, 30))
            kstar = policy.kelly_limit(spec.params)
            elg_star = policy.elg_time_invariant(spec, kstar)
            elg_n = policy.elg_time_invariant(spec, policy.kelly_horizon(spec))
            elg_vec = policy.elg_time_varying(spec, policy.kelly_timevarying(spec))
            assert elg_star <= elg_n + 1e-12
            assert elg_n <= elg_vec + 1e-12


class TestPayoffModel:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            policy.PayoffModel(outcomes=(1.0,), frequencies=(1.0,))
        with pytest.raises(DomainError):
            policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.6, 0.3))
        with pytest.raises(DomainError):
            policy.PayoffModel(outcomes=(1.0, -1.5), frequencies=(0.5, 0.5))
        with pytest.raises(DomainError):
            policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(1.2, -0.2))
        with pytest.raises(DomainError):
            policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(math.nan, 0.5))
        with pytest.raises(DomainError):
            policy.PayoffModel(outcomes=(math.inf, -1.0), frequencies=(0.5, 0.5))

    def test_outcomes_and_frequencies_differ_in_length(self):
        with pytest.raises(DimensionMismatch, match="differ in length"):
            policy.PayoffModel((1, -1, 2), (0.5, 0.5))

    def test_non_numbers_rejected(self):
        # Strings used to raise TypeError from the finiteness check.
        with pytest.raises(DomainError, match="outcomes must be a sequence of real numbers"):
            policy.PayoffModel(("a", "b"), (0.5, 0.5))
        with pytest.raises(DomainError, match="frequencies"):
            policy.PayoffModel((1.0, -1.0), 0.5)

    def test_values_stored_as_float_tuples(self):
        payoff = policy.PayoffModel([1, -1], np.array([0.5, 0.5]))
        assert payoff.outcomes == (1.0, -1.0) and payoff.frequencies == (0.5, 0.5)
        assert hash(payoff) == hash(policy.PayoffModel((1.0, -1.0), (0.5, 0.5)))


class TestElgMultiOutcome:
    def test_even_money_reduction(self):
        rng = random.Random(103)
        for _ in range(50):
            spec = random_spec(rng, 1, rng.randint(1, 12))
            h = model.expected_heads(spec) / spec.n
            payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(h, 1 - h))
            k = rng.uniform(-0.9, 0.9)
            assert policy.elg_multioutcome(payoff, k) == pytest.approx(
                policy.elg_time_invariant(spec, k), abs=1e-12
            )

    def test_no_bet(self):
        payoff = policy.PayoffModel(outcomes=(2.0, -0.5), frequencies=(0.4, 0.6))
        assert policy.elg_multioutcome(payoff, 0.0) == 0.0

    def test_derived_value(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.7, 0.3))
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        assert policy.elg_multioutcome(payoff, 0.4) == pytest.approx(expected, abs=1e-15)
        assert policy.elg_multioutcome(payoff, 0.4) == pytest.approx(0.0823, abs=5e-5)

    def test_barrier(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.7, 0.3))
        with pytest.raises(DomainError):
            policy.elg_multioutcome(payoff, 1.0)

    @pytest.mark.parametrize("k", [math.nan, "0.1", [0.1]], ids=["nan", "str", "list"])
    def test_bad_fraction_rejected(self, k):
        # NaN used to return NaN.
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.7, 0.3))
        with pytest.raises(DomainError, match="betting fraction"):
            policy.elg_multioutcome(payoff, k)

    def test_zero_frequency_outcome_skipped(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0, -0.2), frequencies=(0.7, 0.3, 0.0))
        assert policy.elg_multioutcome(payoff, 0.4) == pytest.approx(
            0.7 * math.log(1.4) + 0.3 * math.log(0.6), abs=1e-15
        )


class TestOptimizeMultiOutcome:
    def test_even_money_closed_form(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.7, 0.3))
        best = policy.optimize_multioutcome(payoff)
        assert best.fraction == pytest.approx(0.4, abs=1e-10)
        assert not best.unbounded

    def test_symmetric_no_edge(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(0.5, 0.5))
        assert policy.optimize_multioutcome(payoff).fraction == pytest.approx(
            0.0, abs=1e-10
        )

    def test_asymmetric_payoff(self):
        payoff = policy.PayoffModel(outcomes=(2.0, -1.0), frequencies=(0.5, 0.5))
        assert policy.optimize_multioutcome(payoff).fraction == pytest.approx(
            0.25, abs=1e-10
        )

    def test_unbounded_when_single_signed(self):
        payoff = policy.PayoffModel(outcomes=(1.0, -1.0), frequencies=(1.0, 0.0))
        best = policy.optimize_multioutcome(payoff)
        assert best.unbounded
        assert best.fraction == pytest.approx(policy.UNBOUNDED_FRACTION, rel=1e-6)

    def test_local_optimality(self):
        rng = random.Random(107)
        for _ in range(50):
            outcomes = sorted(rng.uniform(-0.9, 2.0) for _ in range(3))
            if outcomes[0] >= 0 or outcomes[-1] <= 0:
                continue
            raw = [rng.uniform(0.05, 1.0) for _ in range(3)]
            total = sum(raw)
            freqs = [r / total for r in raw]
            freqs[-1] = 1.0 - sum(freqs[:-1])
            payoff = policy.PayoffModel(outcomes=tuple(outcomes), frequencies=tuple(freqs))
            best = policy.optimize_multioutcome(payoff)
            for delta in (-1e-4, 1e-4, -1e-2, 1e-2):
                try:
                    other = policy.elg_multioutcome(payoff, best.fraction + delta)
                except DomainError:
                    continue
                assert best.elg >= other - 1e-12

    def test_tiny_outcome_barrier_far_out(self):
        # The barrier -1/1e-20 is far beyond where an absolute shrink of the
        # interval survives rounding; 1 + K x used to reach exactly 0.
        payoff = policy.PayoffModel(outcomes=(1e-20, -1.0), frequencies=(0.5, 0.5))
        best = policy.optimize_multioutcome(payoff)
        assert best.fraction == pytest.approx(-5e19, rel=1e-9)
        assert not best.unbounded

    @settings(deadline=None, max_examples=300)
    @given(
        outcomes=st.lists(
            st.one_of(
                st.just(0.0),
                st.builds(
                    lambda sign, mag: sign * mag,
                    st.sampled_from((1.0, -1.0)),
                    st.floats(1e-300, 1e300),
                ),
            ),
            min_size=2,
            max_size=5,
        ),
        weights=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    )
    # 1 + K x overflows at the optimum of these finite payoffs.
    @example(outcomes=[1e305, 1.0], weights=[1.0, 1.0, 0.0, 0.0, 0.0])
    @example(outcomes=[1e300, -1e-300], weights=[1.0, 1.0, 0.0, 0.0, 0.0])
    def test_any_finite_payoff_gives_feasible_fraction(self, outcomes, weights):
        weights = weights[: len(outcomes)]
        total = sum(weights)
        assume(total > 0)
        freqs = tuple(w / total for w in weights)
        try:
            payoff = policy.PayoffModel(outcomes=tuple(outcomes), frequencies=freqs)
            best = policy.optimize_multioutcome(payoff)
        except KellyMemoryError:
            return
        assert math.isfinite(best.fraction)
        for x, f in zip(payoff.outcomes, payoff.frequencies):
            if f > 0:
                assert 1.0 + best.fraction * x > 0.0
        assert math.isfinite(best.elg)
