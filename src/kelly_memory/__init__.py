"""Kelly-optimal bet sizing for binary games with Markov memory."""

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyResult,
    HorizonTooLarge,
    HyperdiamondViolation,
    InputError,
    InsufficientData,
    KellyMemoryError,
    NonConvergence,
    NumericalError,
    SingularDesign,
    UnsupportedDepth,
)
from .model import (
    EPS_MARGIN,
    GameSpec,
    History,
    MemoryParams,
    StateSpace,
    closed_form_p_k,
    enumerate_expected_heads,
    expected_heads,
    lambda_n,
    prob_sequence,
    state_space,
    steady_state,
    validate_params,
)
from .policy import (
    BettorPolicy,
    MultiOutcomeOptimum,
    PayoffModel,
    elg_multioutcome,
    elg_time_invariant,
    elg_time_varying,
    kelly_classical,
    kelly_horizon,
    kelly_limit,
    kelly_timevarying,
    optimize_multioutcome,
)
from .estimate import (
    FitResult,
    ObservationSet,
    build_regression,
    constrained_fit,
    ingest_prices,
    ols_fit,
    project_hyperdiamond,
)
from .simulate import (
    SimConfig,
    SimResult,
    monte_carlo_elg,
    sample_path,
    sample_paths,
    scenario_table,
)

__version__ = "0.1.0"
