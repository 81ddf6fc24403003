"""Kelly-optimal bet sizing for binary games with Markov memory.

Numpy is loaded with a one-thread OpenBLAS unless the caller set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS first.
"""

import os as _os
import sys as _sys

# The package needs almost no BLAS, yet OpenBLAS starts a worker per CPU
# when it loads, and reads its thread count only then. The variable is
# set around that one import and removed again, so the caller's
# environment, and every child process, sees what it saw before.
if "numpy" not in _sys.modules and not any(
    var in _os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _sys

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
