import csv
import dataclasses
import json
import math
import os
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bruteforce
from kelly_memory import cli, estimate, model, simulate
from kelly_memory.errors import (
    DimensionMismatch,
    DomainError,
    EmptyResult,
    HyperdiamondViolation,
    InputError,
    InsufficientData,
    NonConvergence,
    SingularDesign,
)
from strategies import moves_files, outcome_files, price_files, valid_games


def simulate_outcomes(omega, history, n, seed):
    spec = model.GameSpec(
        params=model.validate_params(omega),
        history=model.History(tuple(history)),
        n=n,
    )
    return simulate.sample_path(spec, stream_seed=seed)


class TestIngestPrices:
    def test_plain_moves(self):
        np.testing.assert_array_equal(
            estimate.ingest_prices([100, 101, 99]), [1, -1]
        )

    def test_tie_dropped(self):
        np.testing.assert_array_equal(
            estimate.ingest_prices([100, 100, 101]), [1]
        )

    def test_tie_down(self):
        np.testing.assert_array_equal(
            estimate.ingest_prices([100, 100, 101], tie_rule="down"), [-1, 1]
        )

    def test_tie_up(self):
        np.testing.assert_array_equal(
            estimate.ingest_prices([100, 100, 101], tie_rule="up"), [1, 1]
        )

    def test_no_usable_moves(self):
        with pytest.raises(EmptyResult):
            estimate.ingest_prices([100, 100], tie_rule="drop")
        with pytest.raises(EmptyResult):
            estimate.ingest_prices([100])

    def test_nonpositive_price(self):
        with pytest.raises(DomainError):
            estimate.ingest_prices([100, -5, 101])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_price(self, bad):
        with pytest.raises(DomainError, match="finite"):
            estimate.ingest_prices([1.0, 2.0, bad, 3.0])

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            estimate.ingest_prices([1, 2], tie_rule="flip")

    @pytest.mark.parametrize(
        "prices",
        [np.ones((3, 2)), [[100.0, 101.0]], ["100", "101"], [True, True], [100.0, True],
         [100, np.bool_(True)]],
        ids=["2-D", "nested", "strings", "bool", "float-bool", "int-numpy-bool"],
    )
    def test_not_a_vector_of_numbers_rejected(self, prices):
        # A 2-D array used to be accepted, moves taken along its rows, and
        # [100.0, True] was read as the prices 100.0 and 1.0.
        with pytest.raises(DomainError, match="prices must be a sequence of real numbers"):
            estimate.ingest_prices(prices)


class TestObservationSet:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            estimate.ObservationSet(data=(1, 0, -1), m=1)

    def test_rejects_too_short(self):
        with pytest.raises(InsufficientData):
            estimate.ObservationSet(data=(1,), m=1)

    def test_rejects_bad_depth(self):
        with pytest.raises(DimensionMismatch):
            estimate.ObservationSet(data=(1, -1), m=0)

    @pytest.mark.parametrize("m", [2.5, 2.0, float("nan"), True])
    def test_non_integral_depth_rejected(self, m):
        # 2.5 used to be accepted.
        with pytest.raises(DomainError, match="model depth must be an integer"):
            estimate.ObservationSet(data=(1, -1, 1, -1), m=m)

    def test_depth_is_stored_as_an_int(self):
        # np.int64's largest value used to overflow in the length check.
        with pytest.raises(InsufficientData):
            estimate.ObservationSet(data=(1, -1), m=np.int64(2**63 - 1))
        assert type(estimate.ObservationSet(data=(1, -1, 1), m=np.int64(1)).m) is int

    @pytest.mark.parametrize(
        "data", [[[1, -1], [1]], ["1", "-1"], None], ids=["ragged", "strings", "None"]
    )
    def test_not_a_vector_of_outcomes_rejected(self, data):
        with pytest.raises(DomainError, match="observations must be"):
            estimate.ObservationSet(data=data, m=1)

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "flag", [True, np.True_, np.array(True)], ids=["bool", "numpy-bool", "0d-bool"]
    )
    def test_bools_rejected(self, flag, at):
        # numpy read [1, -1, True, 1] as [1, -1, 1, 1], so a True was a head.
        data = [1, -1, 1, -1, 1]
        data[at] = flag
        with pytest.raises(DomainError, match="observations must be"):
            estimate.ObservationSet(data=data, m=1)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.int8])
    def test_an_array_is_held_as_a_read_only_int64_copy(self, dtype):
        data = np.array([1, -1, 1, 1], dtype=dtype)
        obs = estimate.ObservationSet(data=data, m=1)
        assert obs.data.dtype == np.int64 and not obs.data.flags.writeable
        assert data.flags.writeable
        data[0] = -1
        assert obs.data.tolist() == [1, -1, 1, 1]


def regression(obs):
    """The row-by-row design X, y of ``obs``, once build_regression's normal
    equations are checked to be its X'X and X'y, byte for byte."""
    X, y = bruteforce.regression(obs.data, obs.m)
    gram, xty = estimate.build_regression(obs)
    assert gram.dtype == xty.dtype == np.float64 and gram.flags.c_contiguous
    assert gram.shape == (obs.m + 1,) * 2 and gram.tobytes() == (X.T @ X).tobytes()
    assert xty.shape == (obs.m + 1,) and xty.tobytes() == (X.T @ y).tobytes()
    return X, y


@st.composite
def lagged_outcomes(draw):
    """(data, m) at m = 1-8: every length from one row (m + 1 outcomes) to
    3m + 2, where the first and last m outcomes overlap or nearly meet, and
    longer runs."""
    m = draw(st.integers(1, 8))
    size = draw(st.integers(m + 1, 3 * m + 2) | st.integers(3 * m + 2, 300))
    return draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size)), m


class TestBuildRegression:
    def test_hand_example(self):
        obs = estimate.ObservationSet(data=(1, -1, 1, -1), m=1)
        X, y = regression(obs)
        np.testing.assert_allclose(X, [[1, 1], [1, -1], [1, 1]])
        np.testing.assert_allclose(y, [0, 1, 0])
        assert [a.tolist() for a in estimate.build_regression(obs)] == [[[3, 1], [1, 3]], [1, -1]]

    def test_all_heads(self):
        obs = estimate.ObservationSet(data=(1,) * 6, m=1)
        X, y = regression(obs)
        assert np.all(y == 1)
        assert np.all(X[:, 1] == 1)

    def test_single_row_boundary(self):
        obs = estimate.ObservationSet(data=(1, -1, 1, -1), m=3)
        X, y = regression(obs)
        assert X.shape == (1, 4)
        np.testing.assert_allclose(X, [[1, 1, -1, 1]])
        np.testing.assert_allclose(y, [0])

    @settings(deadline=None, max_examples=300)
    @given(case=lagged_outcomes())
    @example(case=([1, -1], 1)).via("one row")
    @example(case=([-1] * 9, 8)).via("one row, all tails")
    @example(case=([1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1], 5)).via("first and last m overlap")
    def test_equals_the_row_by_row_design_bit_for_bit(self, case):
        data, m = case
        regression(estimate.ObservationSet(data=data, m=m))

    def test_conditional_mean_property(self):
        # Grouped by lag pattern, the mean response should approach the
        # model's conditional head probability.
        omega = [0.55, 0.20]
        data = simulate_outcomes(omega, [1], n=40_000, seed=905)
        obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=1)
        X, y = regression(obs)
        for lag, expected in ((1, 0.75), (-1, 0.35)):
            mask = X[:, 1] == lag
            count = mask.sum()
            sigma = np.sqrt(expected * (1 - expected) / count)
            assert abs(y[mask].mean() - expected) < 3 * sigma


def fit_charge(outcomes, m):
    """The bytes build_regression charges a fit of ``outcomes`` outcomes at depth ``m``."""
    return 2 * outcomes + 24 * (m + 1) ** 2 + 2**12


class TestFitBudget:
    FITS = [estimate.build_regression, estimate.ols_fit, estimate.constrained_fit]

    def test_a_fit_is_charged_its_rows_and_its_normal_matrix(self, monkeypatch):
        obs = estimate.ObservationSet(data=simulate_outcomes([0.55, 0.2], [1], 40, 3), m=3)
        monkeypatch.setattr(model, "MEMORY_BUDGET", fit_charge(40, 3))
        for fit in self.FITS:
            fit(obs)
        monkeypatch.setattr(model, "MEMORY_BUDGET", fit_charge(40, 3) - 1)
        for fit in self.FITS:
            with pytest.raises(DomainError, match="37 regression rows at depth 3 need"):
                fit(obs)

    @pytest.mark.parametrize(
        "m,size", [(1, 5000), (3, 20_000), (60, 4000), (500, 1002), (1000, 2002)]
    )
    @pytest.mark.parametrize("fit", [estimate.ols_fit, estimate.constrained_fit])
    def test_traced_peak_within_the_charge(self, fit, m, size):
        # Per outcome a lag pass's bytes dominate; near m rows, X'X does.
        # Small objects add under 1 KiB whatever the size.
        obs = estimate.ObservationSet(data=simulate_outcomes([0.5, 0.1], [1], size, m), m=m)
        fit(obs)  # first-call costs: lazy imports, caches
        tracemalloc.start()
        try:
            fit(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fit_charge(size, m) + 2**10


class TestOlsFit:
    def test_recovers_truth_on_long_sample(self):
        omega = [0.55, 0.20]
        data = simulate_outcomes(omega, [1], n=100_000, seed=11)
        obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=1)
        fit = estimate.ols_fit(obs)
        assert abs(fit.omega_hat[0] - 0.55) < 0.02
        assert abs(fit.omega_hat[1] - 0.20) < 0.02
        assert not fit.constrained and not fit.projected

    def test_alternating_data_hits_diamond_boundary(self):
        data = tuple(1 if i % 2 == 0 else -1 for i in range(400))
        fit = estimate.ols_fit(estimate.ObservationSet(data=data, m=1))
        assert fit.omega_hat[0] == pytest.approx(0.5, abs=1e-8)
        assert fit.omega_hat[1] == pytest.approx(-0.5, abs=1e-8)

    def test_fair_iid_data(self):
        rng = np.random.default_rng(13)
        data = tuple(int(v) for v in rng.choice([-1, 1], size=50_000))
        fit = estimate.ols_fit(estimate.ObservationSet(data=data, m=1))
        assert abs(fit.omega_hat[0] - 0.5) < 0.02
        assert abs(fit.omega_hat[1]) < 0.02

    def test_constant_data_is_singular(self):
        with pytest.raises(SingularDesign):
            estimate.ols_fit(estimate.ObservationSet(data=(1,) * 50, m=1))

    def test_singular_cutoff_is_closed(self, monkeypatch):
        # A design whose eigenvalue ratio equals the cutoff is singular; one
        # just above it is not.
        obs = estimate.ObservationSet(data=(1, -1, -1, 1, 1, 1, -1, 1, -1, -1), m=2)
        X, _ = regression(obs)
        eig = np.linalg.eigvalsh(X.T @ X)
        monkeypatch.setattr(estimate, "_SINGULAR_RTOL", eig[0] / eig[-1])
        with pytest.raises(SingularDesign):
            estimate.ols_fit(obs)
        monkeypatch.setattr(estimate, "_SINGULAR_RTOL", math.nextafter(eig[0] / eig[-1], 0.0))
        estimate.ols_fit(obs)

    def test_collinear_data_singular_at_a_million_rows(self):
        # At period 4, x_{t-3} is -x_{t-1}. The smallest eigenvalue is
        # rounding, about 1e-11, and the largest about 2e6: the test is
        # their ratio, not their product.
        obs = estimate.ObservationSet(data=np.tile([1, 1, -1, -1], 250_000), m=3)
        with pytest.raises(SingularDesign):
            estimate.ols_fit(obs)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            estimate.ols_fit(estimate.ObservationSet(data=(1, -1, 1), m=1))

    @pytest.mark.parametrize("data,m", [((1, -1, 1), 1), ((1, -1, 1, 1, -1), 2)])
    def test_insufficient_rows_message(self, data, m):
        match = f"need at least {2 * m + 2} observations at depth {m}, got {len(data)}"
        with pytest.raises(InsufficientData, match=match):
            estimate.ols_fit(estimate.ObservationSet(data=data, m=m))

    def test_residual_orthogonality(self):
        rng = random.Random(17)
        for _ in range(10):
            m = rng.randint(1, 3)
            omega = bruteforce.random_valid_omega(rng, m)
            history = bruteforce.random_history(rng, m)
            data = simulate_outcomes(omega, history, n=2000, seed=rng.randrange(2**32))
            obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=m)
            fit = estimate.ols_fit(obs)
            X, y = regression(obs)
            resid = X.T @ (y - X @ np.asarray(fit.omega_hat))
            assert np.abs(resid).max() < 1e-8 * len(obs)

    @given(
        m=st.integers(1, 4),
        data=st.lists(st.sampled_from((1, -1)), min_size=10, max_size=300),
    )
    def test_largest_eigenvalue_at_least_the_row_count(self, m, data):
        # Every diagonal entry of X'X is the row count, since each column
        # holds 1 or +-1, so the singular test never divides by zero.
        X, _ = regression(estimate.ObservationSet(data=data, m=m))
        assert np.linalg.eigvalsh(X.T @ X)[-1] >= X.shape[0]


class TestConstrainedFit:
    def test_interior_ols_returned_unchanged(self):
        omega = [0.55, 0.20]
        data = simulate_outcomes(omega, [1], n=20_000, seed=19)
        obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=1)
        ols = estimate.ols_fit(obs)
        fit = estimate.constrained_fit(obs)
        assert fit.omega_hat == ols.omega_hat
        assert fit.rss == ols.rss
        assert fit.constrained and not fit.projected
        assert fit.iterations == 0

    def test_projected_is_derived_from_iterations(self):
        # It used to be a fifth field, free to disagree with iterations.
        assert [f.name for f in dataclasses.fields(estimate.FitResult)] == [
            "omega_hat", "rss", "constrained", "iterations"
        ]
        assert estimate.FitResult((0.5, 0.1), 1.0, True, 3).projected
        assert not estimate.FitResult((0.5, 0.1), 1.0, True, 0).projected

    def test_alternating_data_projected_to_boundary(self):
        data = tuple(1 if i % 2 == 0 else -1 for i in range(400))
        obs = estimate.ObservationSet(data=data, m=1)
        ols = estimate.ols_fit(obs)
        fit = estimate.constrained_fit(obs)
        assert fit.projected
        dist = abs(fit.omega_hat[0] - 0.5) + abs(fit.omega_hat[1])
        assert dist <= estimate.DIAMOND_RADIUS + 1e-12
        assert dist == pytest.approx(estimate.DIAMOND_RADIUS, abs=1e-6)
        assert fit.rss >= ols.rss

    def test_rss_never_below_ols(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(30, 200)
            data = tuple(rng.choice((-1, 1)) for _ in range(n))
            obs = estimate.ObservationSet(data=data, m=rng.randint(1, 2))
            try:
                ols = estimate.ols_fit(obs)
            except SingularDesign:
                continue
            fit = estimate.constrained_fit(obs)
            assert fit.rss >= ols.rss - 1e-12
            dist = abs(fit.omega_hat[0] - 0.5) + sum(abs(w) for w in fit.omega_hat[1:])
            assert dist <= estimate.DIAMOND_RADIUS + 1e-12

    def test_boundary_fit_passes_the_models_test(self):
        # The projected point used to land outside the hyperdiamond by one
        # ulp, 5.55112e-17, and validate_params rejected the estimate.
        obs = estimate.ObservationSet(data=(1, -1, 1, -1, 1, 1, 1, -1), m=1)
        fit = estimate.constrained_fit(obs)
        assert fit.projected
        assert model.validate_params(fit.omega_hat).margin >= 0.0
        np.testing.assert_allclose(fit.omega_hat, [0.7, -0.3], rtol=0, atol=1e-8)

    @settings(deadline=None, max_examples=150)
    @given(m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), n=st.integers(20, 3000),
           raw=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=10, max_size=10),
           shortfall=st.sampled_from((0.0, 1e-12, 1e-9, 1e-5)),
           pattern=st.none() | st.lists(st.sampled_from((1, -1)), min_size=2, max_size=12))
    def test_every_fit_passes_the_models_test(self, m, seed, n, raw, shortfall, pattern):
        # Outcomes sampled from a game at or near the hyperdiamond's edge, or
        # a repeated pattern such as +1 -1, whose OLS point may lie outside.
        if pattern is None:
            size = sum(abs(v) for v in raw[: m + 1])
            assume(size > 0)
            scale = (model.DIAMOND_RADIUS - shortfall) / size
            omega = [0.5 + scale * raw[0]] + [scale * v for v in raw[1 : m + 1]]
            try:
                data = simulate_outcomes(omega, [1] * m, n, seed)
            except HyperdiamondViolation:
                assume(False)
        else:
            data = np.resize(pattern, n)
        obs = estimate.ObservationSet(data=data, m=m)
        try:
            ols = estimate.ols_fit(obs)
            fit = estimate.constrained_fit(obs)
        except (InsufficientData, SingularDesign, NonConvergence):
            return
        # The estimate passes as returned and as the CLI prints it.
        model.validate_params(fit.omega_hat)
        model.validate_params(json.loads(cli.render({"w": fit.omega_hat}, "json", None))["w"])
        if model.diamond_distance(ols.omega_hat) <= model.DIAMOND_RADIUS - (m + 1) * 1e-12:
            assert fit.iterations == 0 and fit.omega_hat == ols.omega_hat
        else:
            assert fit.projected

    @given(w=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_print_slack_covers_the_printed_digits(self, w):
        # A coefficient below 1 printed to JSON_SIG_DIGITS digits moves by at
        # most half a unit of its last digit, half of _PRINT_SLACK, and by
        # half an ulp more when the text is read back.
        assert estimate._PRINT_SLACK == 10.0**-cli.JSON_SIG_DIGITS
        printed = json.loads(cli.render({"w": w}, "json", None))["w"]
        assert abs(printed - w) <= estimate._PRINT_SLACK / 2 + 2**-54

    def test_ols_on_the_target_is_returned(self, monkeypatch):
        # The target is closed: an OLS point exactly at its radius is kept.
        obs = estimate.ObservationSet(simulate_outcomes([0.55, 0.20], [1], 2000, 19), m=1)
        ols = estimate.ols_fit(obs)
        monkeypatch.setattr(estimate, "DIAMOND_RADIUS", model.diamond_distance(ols.omega_hat))
        monkeypatch.setattr(estimate, "_PRINT_SLACK", 0.0)
        fit = estimate.constrained_fit(obs)
        assert fit.iterations == 0 and fit.omega_hat == ols.omega_hat

    def test_convergence_needs_a_change_below_the_tolerance(self, monkeypatch):
        # A step whose change equals _PG_TOL does not stop the loop.
        obs = estimate.ObservationSet(data=(1, 1, 1, -1, 1, -1, 1, 1, -1), m=2)
        points, project = [], estimate.project_hyperdiamond
        monkeypatch.setattr(
            estimate, "project_hyperdiamond", lambda w, r: points.append(project(w, r)) or points[-1]
        )
        iterations = estimate.constrained_fit(obs).iterations
        last = float(np.max(np.abs(points[-1] - points[-2])))
        monkeypatch.setattr(estimate, "_PG_TOL", last)
        assert estimate.constrained_fit(obs).iterations > iterations

    def test_iteration_cap(self, monkeypatch):
        # This fit converges at its fifth step, within a cap of 5 but not of 4.
        obs = estimate.ObservationSet(data=(1, 1, 1, -1, 1, -1, 1, 1, -1), m=2)
        monkeypatch.setattr(estimate, "_PG_MAX_ITER", 5)
        assert estimate.constrained_fit(obs).iterations == 5
        monkeypatch.setattr(estimate, "_PG_MAX_ITER", 4)
        with pytest.raises(NonConvergence, match="did not converge in 4 iterations"):
            estimate.constrained_fit(obs)

    def test_statistical_consistency(self):
        # Median recovery error over seeds should shrink as N grows.
        omega = [0.55, 0.20]
        medians = []
        for n in (1_000, 10_000, 100_000):
            errors = []
            for seed in range(20):
                data = simulate_outcomes(omega, [1], n=n, seed=10_000 * n + seed)
                obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=1)
                fit = estimate.constrained_fit(obs)
                errors.append(max(abs(w - t) for w, t in zip(fit.omega_hat, omega)))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


class TestProjectHyperdiamond:
    def test_interior_point_unchanged(self):
        point = np.array([0.52, 0.1, -0.05])
        np.testing.assert_allclose(
            estimate.project_hyperdiamond(point, 0.5), point, atol=1e-15
        )

    def test_single_excess_coordinate(self):
        np.testing.assert_allclose(
            estimate.project_hyperdiamond([0.5, 0.8], 0.5), [0.5, 0.5], atol=1e-12
        )

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            estimate.project_hyperdiamond([0.5, 0.1], 0.0)

    @pytest.mark.parametrize(
        "omega,radius",
        [
            ([math.nan, 0.1], 0.5),
            ([0.5, math.inf], 0.5),
            ([-math.inf, 0.1], 0.5),
            ([0.5, 0.1], math.nan),
            ([0.5, 0.1], math.inf),
            ([], 0.5),
            ([[0.5, 0.1]], 0.5),
            ([0.5, 0.1], "0.5"),
            ([1e308, 1e308], 0.5),
        ],
        ids=["nan", "inf", "-inf", "nan-radius", "inf-radius", "empty", "2-D", "str-radius",
             "overflow"],
    )
    def test_bad_input_rejected(self, omega, radius):
        # NaN and an empty omega used to raise IndexError.
        with pytest.raises(DomainError):
            estimate.project_hyperdiamond(omega, radius)

    @pytest.mark.parametrize(
        "omega,expected", [([1e300, 1e300], [0.75, 0.25]), ([1e308, 0.0, 0.0], [1.0, 0.0, 0.0])]
    )
    def test_huge_entries_keep_the_radius(self, omega, expected):
        # A threshold near 1e300 used to swallow the radius and give
        # [0.5, 0.0]; d = u[0] - u is exact, and capped, so [1e308, 0, 0]
        # does not overflow either.
        np.testing.assert_array_equal(estimate.project_hyperdiamond(omega, 0.5), expected)

    def test_radius_below_rounding(self):
        # The l1 step used to find no qualifying rank and raise IndexError.
        np.testing.assert_array_equal(estimate.project_hyperdiamond([0.0], 1e-300), [0.5])

    def test_feasible_idempotent_nonexpansive(self):
        rng = np.random.default_rng(29)
        radius = estimate.DIAMOND_RADIUS
        for _ in range(500):
            dim = rng.integers(2, 7)
            a = rng.normal(scale=1.5, size=dim) + np.eye(dim)[0] * 0.5
            b = rng.normal(scale=1.5, size=dim) + np.eye(dim)[0] * 0.5
            pa = estimate.project_hyperdiamond(a, radius)
            pb = estimate.project_hyperdiamond(b, radius)
            for p in (pa, pb):
                assert abs(p[0] - 0.5) + np.abs(p[1:]).sum() <= radius + 1e-12
            np.testing.assert_allclose(
                estimate.project_hyperdiamond(pa, radius), pa, atol=1e-12
            )
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(31)
        radius = 0.5
        for _ in range(5):
            dim = 3
            point = rng.normal(scale=2.0, size=dim)
            point[0] += 0.5
            projected = estimate.project_hyperdiamond(point, radius)
            best = np.linalg.norm(point - projected)
            # Random feasible candidates: random l1 radii spread over
            # coordinates with random signs, shifted to the diamond center.
            for _ in range(10_000):
                raw = rng.dirichlet(np.ones(dim)) * rng.uniform(0, radius)
                cand = raw * rng.choice((-1.0, 1.0), size=dim)
                cand[0] += 0.5
                assert np.linalg.norm(point - cand) >= best - 1e-12


class TestFileIO:
    def test_plain_signed_lines(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("+1\n-1\n\n1\n-1\n")
        np.testing.assert_array_equal(estimate.read_outcomes(f), [1, -1, 1, -1])

    def test_two_numbers_per_line_rejected(self, tmp_path):
        # numpy's reader reads two columns here; only one is an outcome file.
        f = tmp_path / "o.txt"
        f.write_text("1,-1\n-1,1\n")
        with pytest.raises(InputError, match="o.txt:1: '1,-1' is not numeric"):
            estimate.read_outcomes(f)

    def test_zero_one_lines(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("1\n0\n1\n")
        np.testing.assert_array_equal(estimate.read_outcomes(f), [1, -1, 1])

    def test_csv_column(self, tmp_path):
        f = tmp_path / "o.csv"
        f.write_text("day,move\n1,1\n2,-1\n3,1\n")
        np.testing.assert_array_equal(
            estimate.read_outcomes(f, column="move"), [1, -1, 1]
        )

    def test_missing_column(self, tmp_path):
        f = tmp_path / "o.csv"
        f.write_text("day,move\n1,1\n")
        with pytest.raises(InputError):
            estimate.read_outcomes(f, column="direction")

    def test_non_numeric_line(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("up\ndown\n")
        with pytest.raises(InputError):
            estimate.read_outcomes(f)

    def test_bad_values(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("1\n2\n")
        with pytest.raises(DomainError):
            estimate.read_outcomes(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("\n\n")
        with pytest.raises(EmptyResult):
            estimate.read_outcomes(f)

    def test_prices_csv(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price,volume\na,100,5\nb,101,6\nc,99,2\n")
        assert estimate.read_prices(f).tolist() == [100.0, 101.0, 99.0]

    def test_well_formed_csv_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        # Only the header passes through the csv module; a slide back to the
        # row-by-row reader would otherwise show only as lost speed. The
        # header spans two lines, which the C reader must skip.
        rows, reader = [], csv.reader

        class CountingReader:
            def __init__(self, *args, **kwargs):
                self._reader = reader(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self._reader))
                return rows[-1]

            @property
            def line_num(self):
                return self._reader.line_num

        monkeypatch.setattr(estimate.csv, "reader", CountingReader)
        body = "".join(f'{i},"note, {i}",{100 + i % 7}\r\n' for i in range(1000))
        f = tmp_path / "p.csv"
        f.write_bytes(('date,"a ""quoted""\r\nnote",price\r\n' + body).encode())
        prices = estimate.read_prices(f)
        assert prices.tolist() == [100.0 + i % 7 for i in range(1000)]
        assert rows == [["date", 'a "quoted"\r\nnote', "price"]]

    @pytest.mark.parametrize("header", ["price,price", "price, Price", "move,move"])
    def test_duplicate_column_names(self, tmp_path, header):
        # The last column of a repeated name counts, as with csv.DictReader.
        f = tmp_path / "p.csv"
        f.write_text(f"{header}\n1,2\n1,-1\n")
        assert outcome(estimate.read_prices, f) == outcome(bruteforce.read_prices, f)
        assert outcome(estimate.read_outcomes, f, "move") == outcome(
            bruteforce.read_outcomes, f, "move"
        )

    def test_prices_missing_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,close\na,100\n")
        with pytest.raises(InputError):
            estimate.read_prices(f)


def outcome(fn, *args):
    """fn's values as text (so NaN equals NaN), or the error's class and its 'path:line' prefix."""
    try:
        return repr([float(v) for v in fn(*args)])
    except InputError as exc:
        return type(exc), str(exc).split(": ")[0]


def in_file(text):
    """(directory, path): ``text`` (str or bytes) written byte for byte to a
    file in a new temporary directory, removed when the directory is
    cleaned up."""
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "data.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return tmp, path


TIE_RULES = ("drop", "up", "down")


class TestLoopOracles:
    """The array readers and ingest match the line-at-a-time versions exactly."""

    @settings(deadline=None, max_examples=200)
    @given(
        prices=st.lists(
            st.one_of(
                st.sampled_from((100.0, 101.0, 99.5, 5e-324, 1e308)),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=20,
        )
    )
    def test_ingest_prices(self, prices):
        for rule in TIE_RULES:
            assert outcome(estimate.ingest_prices, prices, rule) == outcome(
                bruteforce.ingest_prices, prices, rule
            )

    @settings(deadline=None, max_examples=150)
    @given(text=price_files())
    def test_price_files(self, text):
        tmp, path = in_file(text)
        with tmp:
            assert outcome(estimate.read_prices, path) == outcome(bruteforce.read_prices, path)
            try:
                prices = estimate.read_prices(path)
            except InputError:
                return
            for rule in TIE_RULES:
                assert outcome(estimate.ingest_prices, prices, rule) == outcome(
                    bruteforce.ingest_prices, prices, rule
                )

    @settings(deadline=None, max_examples=200)
    @given(case=outcome_files())
    def test_outcome_files(self, case):
        text, column = case
        tmp, path = in_file(text)
        with tmp:
            assert outcome(estimate.read_outcomes, path, column) == outcome(
                bruteforce.read_outcomes, path, column
            )

    @pytest.mark.parametrize(
        "text", ["1\u20281\n", "1\x0b-1\n", " \t\n1\n", "1_0\n", "1\n\x1e\n"]
    )
    def test_lines_numpy_rejects(self, tmp_path, text):
        # Line breaks and digit forms that str.splitlines and float accept
        # but numpy's reader does not; the line-at-a-time reread takes them.
        path = tmp_path / "o.txt"
        path.write_bytes(text.encode())
        assert outcome(estimate.read_outcomes, path) == outcome(bruteforce.read_outcomes, path)


def read_named(fn, path, *args):
    """fn's values as text (so NaN equals NaN), or its error's class and
    whole message, the path written as FILE."""
    try:
        return repr([float(v) for v in fn(path, *args)])
    except InputError as exc:
        return type(exc), str(exc).replace(str(path), "FILE")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedText:
    """A pipe is read once and parsed as a regular file of the same bytes is,
    blank and padded lines, CRLF, quoted rows and bad values included."""

    @staticmethod
    def assert_pipe_reads_as_the_file(fn, text, *args):
        data = text.encode()
        assume(len(data) < 2**16)  # the pipe holds it all before it is read
        tmp, path = in_file(data)
        with tmp:
            expected = read_named(fn, path, *args)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            assert read_named(fn, Path(f"/dev/fd/{read_end}"), *args) == expected
        finally:
            os.close(read_end)

    @settings(deadline=None, max_examples=100)
    @given(text=price_files())
    def test_price_files(self, text):
        self.assert_pipe_reads_as_the_file(estimate.read_prices, text)

    @settings(deadline=None, max_examples=100)
    @given(case=outcome_files())
    def test_outcome_files(self, case):
        text, column = case
        self.assert_pipe_reads_as_the_file(estimate.read_outcomes, text, column)

    @settings(deadline=None, max_examples=50)
    @given(moves=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=50))
    @example(moves=[1, -1, 1])
    def test_a_moves_file_takes_the_byte_pass(self, moves):
        # A pipe in ingest's format used to go to numpy's text reader.
        text = "".join("+1\n" if x == 1 else "-1\n" for x in moves)
        with mock.patch.object(estimate, "_loadtxt", refuse):
            self.assert_pipe_reads_as_the_file(estimate.read_outcomes, text)


def read_result(path):
    """read_outcomes' values with their dtype, or its error's class and whole message."""
    try:
        values = estimate.read_outcomes(path)
    except InputError as exc:
        return type(exc), str(exc)
    return values.dtype, values.tolist()


def refuse(*args, **kwargs):
    raise AssertionError("this reader must not be reached")


class TestMovesFiles:
    """A file exactly as ingest writes it is read in one byte pass; every
    other file goes to the line reader, with its values and messages."""

    @settings(deadline=None, max_examples=400)
    @given(case=moves_files())
    def test_same_values_or_error_as_the_line_reader(self, case):
        data, change = case
        tmp, path = in_file(data)
        with tmp:
            got = read_result(path)
            with mock.patch.object(estimate, "_read_moves", lambda path, source: None):
                assert got == read_result(path)
            try:
                expected = outcome(bruteforce.read_outcomes, path)
            except UnicodeDecodeError:
                expected = InputError, str(path)
            assert outcome(estimate.read_outcomes, path) == expected
            if change == "none":
                with mock.patch.object(estimate, "_loadtxt", refuse):
                    assert read_result(path) == got

    @settings(deadline=None, max_examples=50)
    @given(moves=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=50))
    def test_a_moves_file_never_reaches_numpy_text_reader(self, moves):
        tmp, path = in_file("".join("+1\n" if x == 1 else "-1\n" for x in moves))
        with tmp, mock.patch.object(estimate, "_loadtxt", refuse):
            assert read_result(path) == (np.int64, moves)

    def test_the_read_is_charged_before_it_is_made(self, capsys, tmp_path, monkeypatch):
        # 100 lines: 300 bytes read and 800 for the int64 moves.
        path = tmp_path / "moves.txt"
        path.write_bytes(b"+1\n-1\n" * 50)
        monkeypatch.setattr(model, "MEMORY_BUDGET", 1100)
        assert read_result(path) == (np.int64, [1, -1] * 50)
        monkeypatch.setattr(model, "MEMORY_BUDGET", 1099)
        monkeypatch.setattr(Path, "open", refuse)
        monkeypatch.setattr(estimate, "_loadtxt", refuse)
        assert cli.main(["estimate", str(path), "--m", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 100 outcome lines need about ")
        assert captured.err.count("\n") == 1

    def test_an_empty_file_holds_no_outcomes(self, tmp_path):
        path = tmp_path / "moves.txt"
        path.write_bytes(b"")
        assert read_result(path) == (EmptyResult, f"{path}: no outcome values found")


# The bytes a text reader charges per byte of a regular file: numpy's C
# reader with the outcome decode, and the line-by-line reader.
PARSE_BYTES, FALLBACK_BYTES = 15, 32


_ZERO_ONE = "".join(random.Random(6).choices(("0\n", "1\n"), k=30_000))
# (reader, text, bytes per byte charged): the files of about 30,000 lines
# that hold the most per byte on each path.
WORST_TEXT_FILES = {
    # One 0/1 value per 2 bytes, decoded.
    "outcomes": ("outcomes", _ZERO_ONE, PARSE_BYTES),
    # Every value out of range: the decode sorts them all for its message.
    "outcomes-bad": ("outcomes", "2\n" * 30_000, PARSE_BYTES),
    "column": ("column", "o\n" + _ZERO_ONE, PARSE_BYTES),
    "prices": ("prices", "price\n" + "1\n" * 30_000, PARSE_BYTES),
    # numpy's reader rejects the underscore, float reads 0_1 as 1. A line of
    # two characters is the dearest: a single character's str is shared.
    "outcomes-by-line": ("outcomes", "-1\n" * 30_000 + "0_1\n", FALLBACK_BYTES),
    "column-by-row": ("column", "o\n" + _ZERO_ONE + "0_1\n", FALLBACK_BYTES),
    "prices-by-row": ("prices", "price\n" + "1\n" * 30_000 + "0_1\n", FALLBACK_BYTES),
}


def read_text_file(reader, path):
    if reader == "prices":
        return estimate.read_prices(path)
    return estimate.read_outcomes(path, "o" if reader == "column" else None)


class TestTextReadersCharged:
    """A regular file that is not a moves file is charged by its size
    before numpy's C reader parses it, and again before the line-by-line
    reader does."""

    @pytest.mark.parametrize(
        "text,read,values,command",
        [
            ("1\n0\n" * 500, estimate.read_outcomes, [1, -1] * 500, ["estimate", "--m", "1"]),
            ("price\n" + "2.5\n1\n" * 500, estimate.read_prices, [2.5, 1.0] * 500, ["ingest"]),
        ],
        ids=["outcomes", "prices"],
    )
    def test_numpy_reader_charged_first(
        self, text, read, values, command, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "data.csv"
        path.write_text(text)
        size = path.stat().st_size
        monkeypatch.setattr(model, "MEMORY_BUDGET", PARSE_BYTES * size)
        assert read(path).tolist() == values
        monkeypatch.setattr(model, "MEMORY_BUDGET", PARSE_BYTES * size - 1)
        monkeypatch.setattr(estimate, "_loadtxt", refuse)
        assert cli.main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {size} bytes of text need about ")
        assert captured.err.count("\n") == 1

    def test_prices_accepted_at_the_charge_on_the_cli(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "prices.csv"
        path.write_text("price\n1\n2\n2\n1\n")
        monkeypatch.setattr(model, "MEMORY_BUDGET", PARSE_BYTES * path.stat().st_size)
        assert cli.main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out == "+1\n-1\n"

    @pytest.mark.parametrize("reader", ["outcomes", "column", "prices"])
    def test_line_by_line_reader_charged_before_it_runs(self, reader, tmp_path, monkeypatch):
        header = {"outcomes": "", "column": "o\n", "prices": "price\n"}[reader]
        path = tmp_path / "data.csv"
        path.write_text(header + "1\n0\n" * 50 + "0_1\n")
        size = path.stat().st_size
        monkeypatch.setattr(model, "MEMORY_BUDGET", FALLBACK_BYTES * size)
        values = read_text_file(reader, path).tolist()
        assert values == ([1.0, 0.0] * 50 + [1.0] if reader == "prices" else [1, -1] * 50 + [1])
        monkeypatch.setattr(model, "MEMORY_BUDGET", FALLBACK_BYTES * size - 1)
        monkeypatch.setattr(Path, "read_text", refuse)
        with pytest.raises(DomainError, match=f"^{path}: {size} bytes of text need about "):
            read_text_file(reader, path)

    @pytest.mark.parametrize("case", list(WORST_TEXT_FILES))
    def test_traced_peak_within_the_charge(self, case, tmp_path):
        reader, text, per_byte = WORST_TEXT_FILES[case]
        path = tmp_path / "data.csv"
        path.write_text(text)

        def read():
            try:
                read_text_file(reader, path)
            except DomainError:
                assert case == "outcomes-bad"

        read()  # first-call costs: lazy imports, caches
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_byte * path.stat().st_size

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_uncharged(self, monkeypatch):
        # A pipe's size is not known before it is read.
        monkeypatch.setattr(model, "MEMORY_BUDGET", 0)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"0\n1\n1\n")
            os.close(write_end)
            assert read_result(Path(f"/dev/fd/{read_end}")) == (np.int64, [-1, 1, 1])
        finally:
            os.close(read_end)


def reference_fit(obs, constrained):
    """The fit by orthogonal factorization of a row-by-row design.

    Returns None for a singular design. The constrained fit runs the
    package's projected gradient from the projected lstsq point, onto the
    hyperdiamond shrunk by 1e-12 per coefficient, with step one over the
    largest eigenvalue of X'X.
    """
    X, y = bruteforce.regression(obs.data, obs.m)
    s = np.linalg.svd(X, compute_uv=False)
    if s[0] == 0.0 or (s[-1] / s[0]) ** 2 <= 1e-10:
        return None
    w = np.linalg.lstsq(X, y, rcond=None)[0]
    radius = estimate.DIAMOND_RADIUS - (obs.m + 1) * 1e-12
    if constrained and abs(w[0] - 0.5) + np.abs(w[1:]).sum() > radius:
        gram, xty = X.T @ X, X.T @ y
        step = 1.0 / np.linalg.eigvalsh(gram)[-1]
        w = estimate.project_hyperdiamond(w, radius)
        for _ in range(10_000):
            w_next = estimate.project_hyperdiamond(w - step * (gram @ w - xty), radius)
            change = np.abs(w_next - w).max()
            w = w_next
            if change < 1e-10:
                break
        else:
            return NonConvergence
    return w, float(np.sum((y - X @ w) ** 2))


class TestSolverEquivalence:
    """Normal equations against lstsq on the same regression."""

    @settings(deadline=None, max_examples=150)
    @given(game=valid_games(), n=st.integers(10, 400), seed=st.integers(0, 2**32 - 1),
           constrained=st.booleans())
    def test_matches_lstsq(self, game, n, seed, constrained):
        params, history = game
        assume(params.m <= 4)
        spec = model.GameSpec(params=params, history=history, n=n)
        obs = estimate.ObservationSet(data=simulate.sample_path(spec, stream_seed=seed), m=params.m)
        assume(len(obs) - obs.m >= obs.m + 2)
        fit = estimate.constrained_fit if constrained else estimate.ols_fit
        ref = reference_fit(obs, constrained)
        if ref is None:
            with pytest.raises(SingularDesign):
                fit(obs)
            return
        if ref is NonConvergence:
            with pytest.raises(NonConvergence):
                fit(obs)
            return
        w, rss = ref
        got = fit(obs)
        np.testing.assert_allclose(got.omega_hat, w, rtol=0, atol=1e-12)
        assert got.rss == pytest.approx(rss, rel=1e-12, abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(game=valid_games(max_depth=5), n=st.integers(12, 400), seed=st.integers(0, 2**32 - 1),
           constrained=st.booleans())
    def test_bit_for_bit_on_the_row_by_row_design(self, game, n, seed, constrained):
        # X'X and X'y are sums of integers, so the solve sees the same bits
        # from either design, and the RSS is the exact sum of (y - X w)^2
        # over the rows, correctly rounded.
        params, history = game
        spec = model.GameSpec(params=params, history=history, n=n)
        obs = estimate.ObservationSet(data=simulate.sample_path(spec, stream_seed=seed), m=params.m)
        assume(len(obs) - obs.m >= obs.m + 2)
        try:
            fit = (estimate.constrained_fit if constrained else estimate.ols_fit)(obs)
        except (SingularDesign, NonConvergence):
            assume(False)
        X, y = bruteforce.regression(obs.data, obs.m)
        w = np.array(fit.omega_hat)
        assert fit.rss == float(bruteforce.exact_rss(obs.data, obs.m, w))
        if not fit.projected:
            assert w.tobytes() == np.linalg.solve(X.T @ X, X.T @ y).tobytes()

    def test_exact_rss_of_a_near_perfect_fit(self):
        # Alternating outcomes follow y = 1/2 - x_{t-1}/2 exactly, so OLS
        # leaves no residual. The constrained fit, moved about 1e-9 inside
        # the hyperdiamond, leaves about 2e-16 where y'y is 100, which any
        # float form of y'y - 2 w'X'y + w'X'X w would cancel to noise.
        data = tuple(1 if i % 2 else -1 for i in range(200))
        obs = estimate.ObservationSet(data=data, m=1)
        assert estimate.ols_fit(obs).rss == 0.0
        fit = estimate.constrained_fit(obs)
        assert fit.rss == float(bruteforce.exact_rss(data, 1, fit.omega_hat))
        assert 1e-16 < fit.rss < 1e-15

    @pytest.mark.parametrize("fit", [estimate.ols_fit, estimate.constrained_fit])
    @pytest.mark.parametrize(
        "data,m",
        [
            ((1,) * 50, 1),  # constant
            ((-1,) * 49 + (1,), 2),  # constant lags but one response
            (tuple(1 if i % 2 else -1 for i in range(50)), 2),  # x_{t-2} = -x_{t-1}
        ],
    )
    def test_singular_designs(self, fit, data, m):
        with pytest.raises(SingularDesign):
            fit(estimate.ObservationSet(data=data, m=m))
