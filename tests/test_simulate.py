import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from kelly_memory import model, policy, simulate
from kelly_memory.errors import DimensionMismatch, DomainError


def make_spec(omega, history, n):
    return model.GameSpec(
        params=model.validate_params(omega),
        history=model.History(tuple(history)),
        n=n,
    )


SPEC_A2 = make_spec([0.55, 0.20], [1], n=2)


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


class TestRunBettor:
    def test_two_wins(self):
        traj = simulate.run_bettor([1, 1], policy.BettorPolicy.constant(0.4))
        np.testing.assert_allclose(traj, [1.4, 1.96], atol=1e-15)

    def test_win_then_loss(self):
        traj = simulate.run_bettor([1, -1], policy.BettorPolicy.constant(0.4))
        np.testing.assert_allclose(traj, [1.4, 0.84], atol=1e-15)

    def test_no_bet_flat(self):
        traj = simulate.run_bettor([1, -1, -1], policy.BettorPolicy.constant(0.0), 5.0)
        np.testing.assert_allclose(traj, [5.0, 5.0, 5.0], atol=0)

    def test_time_varying_stages(self):
        pol = policy.BettorPolicy.varying([0.5, 0.3])
        traj = simulate.run_bettor([1, -1], pol)
        np.testing.assert_allclose(traj, [1.5, 1.5 * 0.7], atol=1e-15)

    def test_length_mismatch(self):
        pol = policy.BettorPolicy.varying([0.5, 0.3])
        with pytest.raises(DimensionMismatch):
            simulate.run_bettor([1, -1, 1], pol)

    def test_value_stays_positive(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 40)
            path = [rng.choice((-1, 1)) for _ in range(n)]
            k = rng.uniform(-0.99, 0.99)
            traj = simulate.run_bettor(path, policy.BettorPolicy.constant(k))
            assert np.all(traj > 0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=0)
        with pytest.raises(DomainError):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=10, seed=-1)
        with pytest.raises(DomainError):
            simulate.SimConfig(spec=SPEC_A2, policies=(), paths=10, initial_value=0.0)
        bad = policy.BettorPolicy.varying([0.1, 0.1, 0.1])
        with pytest.raises(DimensionMismatch):
            simulate.SimConfig(spec=SPEC_A2, policies=(("bad", bad),), paths=10)


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

    def test_initial_value_scales_quantiles(self):
        config = simulate.SimConfig(
            spec=SPEC_A2,
            policies=(("kn", policy.BettorPolicy.constant(0.4)),),
            paths=4000,
            seed=23,
            initial_value=100.0,
        )
        stats = simulate.monte_carlo_elg(config).stats[0]
        assert stats.final_value_quantiles[2] <= 100.0 * 1.4**2 + 1e-9
        assert stats.final_value_quantiles[0] >= 100.0 * 0.6**2 - 1e-9


@st.composite
def valid_games(draw):
    """(params, history): depth 1 to 6, anywhere in the hyperdiamond."""
    m = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = draw(st.lists(coord, min_size=m + 1, max_size=m + 1))
    radius = draw(st.floats(0.0, 0.5 - 1e-6))
    size = sum(abs(v) for v in raw)
    scale = radius / size if size > 0 else 0.0
    omega = [0.5 + scale * raw[0]] + [scale * v for v in raw[1:]]
    history = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    return model.validate_params(omega), model.History(tuple(history))


class TestScenarioTable:
    @settings(deadline=None)
    @given(game=valid_games(), n_max=st.integers(1, 60))
    def test_rows_match_per_horizon_definitions(self, game, n_max):
        params, history = game
        kstar = policy.kelly_limit(params)
        table = simulate.scenario_table(params, history, n_max=n_max)
        assert [row.n for row in table] == list(range(1, n_max + 1))
        for row in table:
            spec = model.GameSpec(params=params, history=history, n=row.n)
            kn = policy.kelly_horizon(spec)
            expected = (
                policy.elg_time_invariant(spec, kstar),
                policy.elg_time_invariant(spec, kn),
                policy.elg_time_varying(spec, policy.kelly_timevarying(spec)),
                kstar,
                kn,
            )
            got = (row.elg_kstar, row.elg_kn, row.elg_kvec, row.kstar, row.kn)
            assert got == pytest.approx(expected, rel=0, abs=1e-12)
            assert row.elg_kvec >= row.elg_kn - 1e-12
            assert row.elg_kn >= row.elg_kstar - 1e-12

    def test_scenario_a_n2_row(self):
        table = simulate.scenario_table(
            model.validate_params([0.55, 0.20]), model.History((1,)), n_max=2
        )
        row = table[1]
        assert row.n == 2
        assert row.elg_kstar == pytest.approx(0.053, abs=5e-4)
        assert row.elg_kn == pytest.approx(0.082, abs=5e-4)
        assert row.elg_kvec == pytest.approx(0.088, abs=5e-4)
        assert row.kstar == pytest.approx(0.16667, abs=1e-5)
        assert row.kn == pytest.approx(0.4, abs=1e-9)

    def test_scenario_b_n2_row(self):
        table = simulate.scenario_table(
            model.validate_params([0.55, -0.20]), model.History((1,)), n_max=2
        )
        row = table[1]
        assert row.kstar == pytest.approx(0.071, abs=5e-4)
        assert row.kn == pytest.approx(-0.04, abs=1e-9)

    def test_scenario_c_sign_change(self):
        table = simulate.scenario_table(
            model.validate_params([0.35, 0.33]), model.History((1,)), n_max=30
        )
        for row in table:
            if row.n <= 10:
                assert row.elg_kstar < 0
            else:
                assert row.elg_kstar > 0
            assert row.elg_kn >= 0
            assert row.elg_kvec > 0

    def test_dominance_every_row(self):
        rng = random.Random(29)
        scenarios = [[0.55, 0.20], [0.55, -0.20], [0.35, 0.33]]
        scenarios += [bruteforce.random_valid_omega(rng, 1) for _ in range(20)]
        for omega in scenarios:
            table = simulate.scenario_table(
                model.validate_params(omega), model.History((1,)), n_max=15
            )
            for row in table:
                assert row.elg_kstar <= row.elg_kn + 1e-12
                assert row.elg_kn <= row.elg_kvec + 1e-12

    def test_bad_n_max(self):
        with pytest.raises(DomainError):
            simulate.scenario_table(
                model.validate_params([0.55, 0.20]), model.History((1,)), n_max=0
            )
