"""Numerical laboratory for the two-species Ehrenfest urn.

Exact finite-size mixing curves for the left-urn ball count and for the
full pair chain, certified upper and lower bounds on those curves,
negative-dependence certificates for the survival indicators, cutoff-regime
classification of parameter families, and reproducible Monte Carlo
cross-checks.
"""

from types import ModuleType as _ModuleType

from .model import (
    ALPHA_FLOOR,
    CapacityError,
    InitialState,
    ModelParams,
    ParamFamily,
    PredictedTimes,
    gamma,
    parse_alpha_rule,
    parse_m_rule,
    predicted_times,
    tilde_gamma,
)
from .dist import (
    FULL_SCAN_LIMIT,
    Pmf,
    SurvivalPair,
    binomial_pmf,
    chain_law,
    chain_tv,
    convolve,
    distance_curve,
    observable_mean_variance,
    observed_law,
    observed_tv,
    stationary_chain,
    stationary_observed,
    survival,
    tv,
    tv_product,
)
from .bounds import (
    chebyshev_lower_bound,
    clt_lower_bound,
    coupling_union_bound,
    kolmogorov_lower_bound,
    l2_upper_bound,
    product_chain_upper_bound,
)
from .negdep import (
    NegDepReport,
    NegDepRow,
    brute_force_joint_moment,
    exact_chi_square,
    factorial_moment_comparison,
    joint_moment,
    mean_z,
    mgf_compare,
    verify_negative_dependence,
)
from .mc import (
    SampleBatch,
    draw_stream,
    empirical_pmf,
    sample_batch,
    sample_coupled,
)
from .phase import (
    ContradictionError,
    DeclaredLimits,
    FamilySample,
    MixingTimeResult,
    NoCrossingError,
    RegimeReport,
    chain_regime,
    classify,
    mixing_time,
    observable_regime,
    product_condition_ratio,
    validate_declared,
)

__version__ = "0.1.0"

# Every name imported above, in import order; the submodules are not listed.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
del _ModuleType
