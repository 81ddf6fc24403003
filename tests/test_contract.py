"""The input contract of the package's exports: every call returns finite
values or raises a KellyMemoryError, never another exception.

CALLS names each public callable of ``kelly_memory`` (the exception
classes aside: they are what the contract raises) with a way to call it
on drawn arguments. An argument typed as one of the package's records
(a GameSpec, MemoryParams, BettorPolicy, PayoffModel, ObservationSet or
SimConfig) is a record built by its own constructor, which has its own
entry, so junk reaches it there. Every other argument is drawn from valid
values and from junk: NaN, +-inf, -0.0, bools, numpy scalars, huge and
negative ints, strings and wrong shapes. Counts stay small or far over
the memory budget, so no call allocates much.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kelly_memory as km
from strategies import valid_games

HUGE_INTS = st.sampled_from((2**62, 2**64, 10**30, 10**400))
JUNK = st.one_of(
    st.sampled_from(
        (math.nan, math.inf, -math.inf, -0.0, True, False, np.bool_(True), None, "", "a", "1",
         "0.5", [], (), [[0.5, 0.1]], [0.5, [0.1]], ["a", 0.1], [0.5, True], np.zeros((2, 2)),
         np.zeros(0), np.array(0.5), np.float64(math.nan), np.float32(0.25))
    ),
    HUGE_INTS,
    st.integers(-(2**70), -1),
    st.floats(),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1).filter(lambda i: not 0 < i < 2**62)),
)


def arg(valid):
    """A valid value from ``valid``, or junk."""
    return st.one_of(valid, JUNK)


FRACTION = st.floats(-0.99, 0.99)
PROB = st.floats(0.0, 1.0)
COUNT = st.integers(0, 8)
SEED = st.integers(0, 2**64 - 1)
PATHS = st.integers(1, 300)
SIGNS = st.sampled_from((1, -1))
OMEGA = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)
FREQUENCIES = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4).map(
    lambda w: [v / sum(w) for v in w]
)
PAYOFFS = st.lists(st.floats(-1.0, 5.0), min_size=2, max_size=4)


@st.composite
def params(draw):
    return draw(valid_games(max_depth=4))[0]


@st.composite
def histories(draw, m=None):
    size = draw(st.integers(1, 4)) if m is None else m
    return km.History(draw(st.lists(SIGNS, min_size=size, max_size=size)))


@st.composite
def specs(draw, huge=True):
    p = draw(params())
    n = draw(st.one_of(st.integers(1, 8), HUGE_INTS) if huge else st.integers(1, 8))
    return km.GameSpec(p, draw(histories(p.m)), n)


@st.composite
def policies(draw, n=None):
    n = draw(st.integers(1, 8)) if n is None else n
    if draw(st.booleans()):
        return km.BettorPolicy.constant(draw(FRACTION))
    return km.BettorPolicy.varying(draw(st.lists(FRACTION, min_size=n, max_size=n)))


@st.composite
def payoffs(draw):
    size = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    outcomes = draw(st.lists(st.floats(-1.0, 5.0), min_size=size, max_size=size))
    return km.PayoffModel(outcomes, [w / sum(weights) for w in weights])


@st.composite
def observations(draw):
    m = draw(st.integers(1, 3))
    return km.ObservationSet(draw(st.lists(SIGNS, min_size=m + 1, max_size=60)), m)


@st.composite
def configs(draw):
    spec = draw(specs(huge=False))
    named = draw(st.lists(policies(spec.n), min_size=1, max_size=3))
    return km.SimConfig(spec, tuple((f"p{i}", p) for i, p in enumerate(named)),
                        draw(PATHS), draw(SEED))


def bettor_policy(draw):
    make = draw(st.sampled_from((km.BettorPolicy, km.BettorPolicy.constant,
                                 km.BettorPolicy.varying)))
    return make(draw(arg(st.one_of(FRACTION, st.lists(FRACTION, min_size=1, max_size=4)))))


def state_space_values(draw):
    p = draw(params())
    ss = km.state_space(p, draw(histories(p.m)))
    return ss.probability_at(draw(arg(COUNT))), ss.steady_state()


# Each public callable and how to call it. None marks a result record: the
# package builds it from values it has already checked, and it checks nothing.
CALLS = {
    # model
    "GameSpec": lambda d: km.GameSpec(d(params()), d(histories()), d(arg(st.integers(1, 8)))),
    "History": lambda d: km.History(d(arg(st.lists(SIGNS, min_size=1, max_size=4)))),
    "MemoryParams": lambda d: km.MemoryParams(d(arg(OMEGA))),
    "StateSpace": state_space_values,
    "closed_form_p_k": lambda d: km.closed_form_p_k(d(params()), d(arg(PROB)), d(arg(COUNT))),
    "enumerate_expected_heads": lambda d: km.enumerate_expected_heads(d(specs())),
    "expected_heads": lambda d: km.expected_heads(d(specs())),
    "lambda_n": lambda d: km.lambda_n(d(params()), d(arg(COUNT))),
    "prob_sequence": lambda d: km.prob_sequence(d(specs())),
    "state_space": lambda d: km.state_space(d(params()), d(histories())),
    "steady_state": lambda d: km.steady_state(d(params())),
    "validate_params": lambda d: km.validate_params(d(arg(OMEGA))),
    # policy
    "BettorPolicy": bettor_policy,
    "MultiOutcomeOptimum": None,
    "PayoffModel": lambda d: km.PayoffModel(d(arg(PAYOFFS)), d(arg(FREQUENCIES))),
    "elg_multioutcome": lambda d: km.elg_multioutcome(d(payoffs()), d(arg(FRACTION))),
    "elg_time_invariant": lambda d: km.elg_time_invariant(d(specs()), d(arg(FRACTION))),
    "elg_time_varying": lambda d: km.elg_time_varying(d(specs()), d(policies())),
    "kelly_classical": lambda d: km.kelly_classical(d(arg(PROB))),
    "kelly_horizon": lambda d: km.kelly_horizon(d(specs())),
    "kelly_limit": lambda d: km.kelly_limit(d(params())),
    "kelly_timevarying": lambda d: km.kelly_timevarying(d(specs())),
    "optimize_multioutcome": lambda d: km.optimize_multioutcome(d(payoffs())),
    # estimate
    "FitResult": None,
    "ObservationSet": lambda d: km.ObservationSet(
        d(arg(st.lists(SIGNS, min_size=2, max_size=20))), d(arg(st.integers(1, 3)))
    ),
    "build_regression": lambda d: km.build_regression(d(observations())),
    "constrained_fit": lambda d: km.constrained_fit(d(observations())),
    "ingest_prices": lambda d: km.ingest_prices(
        d(arg(st.lists(st.floats(0.5, 200.0), max_size=30))),
        d(arg(st.sampled_from(("drop", "up", "down")))),
    ),
    "ols_fit": lambda d: km.ols_fit(d(observations())),
    "project_hyperdiamond": lambda d: km.project_hyperdiamond(
        d(arg(OMEGA)), d(arg(st.floats(0.01, 1.0)))
    ),
    # simulate
    "SimConfig": lambda d: km.SimConfig(
        d(specs()), (("k", d(policies(1))),), d(arg(PATHS)), d(arg(SEED))
    ),
    "SimResult": None,
    "monte_carlo_elg": lambda d: km.monte_carlo_elg(d(configs())),
    "sample_path": lambda d: km.sample_path(d(specs()), d(arg(SEED))),
    "sample_paths": lambda d: km.sample_paths(d(specs()), d(arg(PATHS)), d(arg(SEED))),
    "scenario_table": lambda d: km.scenario_table(d(specs())),
}


def finite(value) -> bool:
    """Whether every number in ``value``, a result of the package, is finite."""
    if isinstance(value, (str, int, np.integer, np.bool_)):  # bool is an int
        return True
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biu" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


@pytest.mark.parametrize("name", sorted(name for name, call in CALLS.items() if call))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_export_returns_finite_values_or_a_package_error(name, data):
    try:
        result = CALLS[name](data.draw)
    except km.KellyMemoryError:
        return
    assert finite(result), result
