import csv
import dataclasses
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from strategies import outcome_files, price_files, valid_games


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


class TestBuildRegression:
    def test_hand_example(self):
        obs = estimate.ObservationSet(data=(1, -1, 1, -1), m=1)
        X, y = estimate.build_regression(obs)
        np.testing.assert_allclose(X, [[1, 1], [1, -1], [1, 1]])
        np.testing.assert_allclose(y, [0, 1, 0])

    def test_all_heads(self):
        obs = estimate.ObservationSet(data=(1,) * 6, m=1)
        X, y = estimate.build_regression(obs)
        assert np.all(y == 1)
        assert np.all(X[:, 1] == 1)

    def test_single_row_boundary(self):
        obs = estimate.ObservationSet(data=(1, -1, 1, -1), m=3)
        X, y = estimate.build_regression(obs)
        assert X.shape == (1, 4)
        np.testing.assert_allclose(X, [[1, 1, -1, 1]])
        np.testing.assert_allclose(y, [0])

    def test_conditional_mean_property(self):
        # Grouped by lag pattern, the mean response should approach the
        # model's conditional head probability.
        omega = [0.55, 0.20]
        data = simulate_outcomes(omega, [1], n=40_000, seed=905)
        obs = estimate.ObservationSet(data=tuple(int(v) for v in data), m=1)
        X, y = estimate.build_regression(obs)
        for lag, expected in ((1, 0.75), (-1, 0.35)):
            mask = X[:, 1] == lag
            count = mask.sum()
            sigma = np.sqrt(expected * (1 - expected) / count)
            assert abs(y[mask].mean() - expected) < 3 * sigma


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
        X, _ = estimate.build_regression(obs)
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
            X, y = estimate.build_regression(obs)
            resid = X.T @ (y - X @ np.asarray(fit.omega_hat))
            assert np.abs(resid).max() < 1e-8 * len(obs)

    @given(
        m=st.integers(1, 4),
        data=st.lists(st.sampled_from((1, -1)), min_size=10, max_size=300),
    )
    def test_largest_eigenvalue_at_least_the_row_count(self, m, data):
        # Every diagonal entry of X'X is the row count, since each column
        # holds 1 or +-1, so the singular test never divides by zero.
        X, _ = estimate.build_regression(estimate.ObservationSet(data=data, m=m))
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
    """(directory, path): ``text`` written byte for byte to a file in a new
    temporary directory, removed when the directory is cleaned up."""
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "data.csv"
    path.write_bytes(text.encode())
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
