"""Levy-frailty Marshall-Olkin distributions, end to end.

Exact finite-n formulas and samplers for exchangeable lifetime vectors
driven by a Levy subordinator, the extreme-value limit laws of their upper
order statistics for huge system sizes, and a reproducible Monte Carlo
harness for convergence studies.
"""

__version__ = "0.1.0"

from .asymptotics import (
    GumbelLaw,
    InverseStableLaw,
    LimitKind,
    LimitLaw,
    NormalLaw,
    StableLaw,
    f_n,
    g_n,
    lemma_suite,
    limit_law_for,
    normalize,
    sample_limit,
    sample_limit_with_stats,
    u_n,
    zoom_out_statistic,
)
from .distribution import (
    ExactN,
    LfmoModel,
    LogScaleN,
    exact_tail_probability,
    mean_last_order_statistic,
    sample_exchangeable_mo,
    sample_upper_order_statistics,
    sample_vector,
    shock_rates,
    tail_probability_mc,
)
from .errors import (
    BudgetExceededError,
    InvalidDimensionError,
    LfmoError,
    PrecisionLossError,
    UnsupportedRegimeError,
)
from .montecarlo import (
    CellResult,
    Ecdf,
    ExperimentConfig,
    ExperimentResult,
    KsResult,
    convergence_study_config,
    decomposition_check,
    gumbel_switch_error_bound,
    ks_critical_value,
    ks_one_sample,
    ks_two_sample,
    mo_equivalence_check,
    run_experiment,
)
from .stable import StableParams, c_alpha, sample_stable
from .subordinator import (
    CompoundPoisson,
    ConstantSteps,
    ExponentialSteps,
    LinearDrift,
    ParetoSteps,
    crossing_times_batch,
    laplace_exponent,
    parse_subordinator,
    sample_increments,
)
