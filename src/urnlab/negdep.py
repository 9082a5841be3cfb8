"""Negative-dependence certificates for the survival indicators.

Condition on the (uniformly random) placement of the heavy balls and each
ball's "not redrawn yet" indicator becomes a Bernoulli whose rate depends on
its species.  Joint moments over a subset of positions are then hypergeometric
mixtures of the two survival probabilities, and they sit below the matching
product moments: the indicators are negatively dependent.  This module
computes both sides exactly, brute-forces them on small instances, and
evaluates the chi-square of the coupled law that the observable bounds lean
on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from .model import CapacityError, InitialState, ModelParams
from .dist import _log_comb, survival
from .bounds import coupling_union_bound

BRUTE_FORCE_LIMIT = 10**6
CHI_SQUARE_MAX_BALLS = 10
SLACK_TOL = -1e-12


def mean_z(params: ModelParams, t: float) -> float:
    """Mean survival of a uniformly placed ball: (m e^{-alpha t} + n e^{-t}) / N."""
    return coupling_union_bound(params, t) / params.total_balls


def _hypergeometric_log_weights(
    params: ModelParams, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-member counts a of a size-subset with nonzero weight, and their
    log weights log C(m, a) + log C(n, size - a) - log C(N, size)."""
    support = np.arange(
        max(0, size - params.regular_count), min(size, params.heavy_count) + 1
    )
    log_weights = (
        _log_comb(params.heavy_count, support)
        + _log_comb(params.regular_count, size - support)
        - _log_comb(params.total_balls, size)
    )
    return support, log_weights


def joint_moment(params: ModelParams, t: float, size: int) -> float:
    """E[product of `size` survival indicators] under the exchangeable placement.

    Conditioning on how many of the subset's members are heavy (a
    hypergeometric count) gives
        sum_a C(m, a) C(n, size - a) / C(N, size) * x^a y^(size - a)
    with x, y the heavy and regular survivals.  Weights are evaluated with
    log-gamma so the formula stays usable at large N.
    """
    if not 1 <= size <= params.total_balls:
        raise ValueError(f"size must lie in [1, {params.total_balls}], got {size}")
    if t < 0.0:
        raise ValueError("time must be non-negative")
    support, log_weights = _hypergeometric_log_weights(params, size)
    log_terms = log_weights - params.heavy_rate * t * support - t * (size - support)
    # Scalar left-to-right sum: np.sum's pairwise order would move the last bits.
    total = 0.0
    for log_term in log_terms.tolist():
        total += math.exp(log_term)
    return total


def brute_force_joint_moment(params: ModelParams, t: float, size: int) -> float:
    """Same moment by enumerating every heavy placement with equal weight.

    Exponential in the instance size, so guarded at C(N, m) <= 10^6
    placements.  Used as the independent cross-check for joint_moment.
    """
    if not 1 <= size <= params.total_balls:
        raise ValueError(f"size must lie in [1, {params.total_balls}], got {size}")
    placements = math.comb(params.total_balls, params.heavy_count)
    if placements > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"{placements} heavy placements exceed the {BRUTE_FORCE_LIMIT} guard"
        )
    pair = survival(params, t)
    x, y = pair.heavy_survival, pair.regular_survival
    # Subset = positions 0..size-1; exchangeability makes the choice immaterial.
    products = [x**a * y ** (size - a) for a in range(size + 1)]
    total = 0.0
    for placement in combinations(range(params.total_balls), params.heavy_count):
        heavy_in_subset = bisect_left(placement, size)
        total += products[heavy_in_subset]
    return total / placements


def factorial_moment_comparison(
    params: ModelParams, size: int, k: int
) -> tuple[float, float]:
    """k-th falling-factorial moments of the heavy counts in a size-subset.

    Returns (binomial side, hypergeometric side):
        (size)_k (m / N)^k   vs   (size)_k (m)_k / (N)_k.
    The binomial side dominates for every k, which is the moment form of the
    negative dependence.  Both are 0 for k > size.
    """
    if size < 0 or k < 0:
        raise ValueError("size and k must be non-negative")
    if size > params.total_balls:
        raise ValueError("size cannot exceed the number of balls")
    if k > size:
        return 0.0, 0.0
    falling = float(math.perm(size, k))
    ratio_binom = (params.heavy_count / params.total_balls) ** k
    ratio_hyper = 1.0
    for i in range(k):
        ratio_hyper *= (params.heavy_count - i) / (params.total_balls - i)
        if ratio_hyper == 0.0:
            break
    return falling * ratio_binom, falling * ratio_hyper


def mgf_compare(params: ModelParams, u: float, size: int) -> tuple[float, float]:
    """Moment generating functions E[u^B] and E[u^H] of the heavy-member count.

    B is Binomial(size, m/N), H the hypergeometric count.  For u >= 1 the
    binomial side dominates (same negative-dependence content as the
    factorial moments).  A side past the float range is math.inf.
    """
    if u <= 0.0:
        raise ValueError("u must be positive")
    if not 1 <= size <= params.total_balls:
        raise ValueError(f"size must lie in [1, {params.total_balls}], got {size}")
    frac = params.heavy_count / params.total_balls
    try:
        binom_side = math.exp(size * math.log1p(frac * (u - 1.0)))
    except OverflowError:
        binom_side = math.inf
    support, log_weights = _hypergeometric_log_weights(params, size)
    with np.errstate(over="ignore"):
        hyper_side = float(np.exp(logsumexp(log_weights + support * math.log(u))))
    return binom_side, hyper_side


@dataclass(frozen=True)
class NegDepRow:
    size: int
    joint: float
    product: float
    slack: float
    brute: float | None = None


@dataclass(frozen=True)
class NegDepReport:
    """Subset-size table certifying E[prod Z] <= (E[Z])^size at one time point."""

    total_balls: int
    heavy_count: int
    heavy_rate: float
    t: float
    rows: tuple[NegDepRow, ...]
    min_slack: float
    passed: bool
    brute_max_error: float | None

    def to_json_dict(self) -> dict:
        return {"schema": "negdep-report/1", **asdict(self)}


def verify_negative_dependence(
    params: ModelParams, t: float, max_size: int, brute_force: str = "auto"
) -> NegDepReport:
    """Tabulate joint vs product moments for sizes 1..max_size.

    brute_force: "auto" adds the enumeration column when C(N, m) fits the
    guard, "never" skips it, "always" demands it (CapacityError if too big).
    """
    if not 1 <= max_size <= params.total_balls:
        raise ValueError(
            f"max_size must lie in [1, {params.total_balls}], got {max_size}"
        )
    if brute_force not in ("auto", "never", "always"):
        raise ValueError(f"unknown brute_force mode {brute_force!r}")
    use_brute = brute_force == "always" or (
        brute_force == "auto"
        and math.comb(params.total_balls, params.heavy_count) <= BRUTE_FORCE_LIMIT
    )
    z = mean_z(params, t)
    rows = []
    brute_max_error = 0.0 if use_brute else None
    for size in range(1, max_size + 1):
        joint = joint_moment(params, t, size)
        product = z**size
        brute = None
        if use_brute:
            brute = brute_force_joint_moment(params, t, size)
            brute_max_error = max(brute_max_error, abs(brute - joint))
        rows.append(
            NegDepRow(
                size=size, joint=joint, product=product, slack=product - joint,
                brute=brute,
            )
        )
    min_slack = min(row.slack for row in rows)
    return NegDepReport(
        **asdict(params),
        t=t,
        rows=tuple(rows),
        min_slack=min_slack,
        passed=min_slack >= SLACK_TOL,
        brute_max_error=brute_max_error,
    )


def exact_chi_square(params: ModelParams, init: InitialState, t: float) -> float:
    """Chi-square of the coupled law against the uniform law on {0,1}^N.

    The coupled configuration keeps coordinate i at its initial value where
    the survival indicator fires and resamples it fairly otherwise.  With the
    initial pattern held fixed (r + h ones; exchangeability makes the
    positions irrelevant) and the heavy placement averaged uniformly, the law
    is a uniform mixture of product measures.  Enumerates all C(N, m)
    placements and the full 2^N cube, so it is guarded at N <= 10.

    At alpha = 1 the indicators are independent and the result equals
    (1 + mean_z^2)^N - 1 exactly; for alpha < 1 it sits strictly below.
    """
    if params.total_balls > CHI_SQUARE_MAX_BALLS:
        raise CapacityError(
            f"chi-square enumeration needs N <= {CHI_SQUARE_MAX_BALLS}, "
            f"got {params.total_balls}"
        )
    init.validate(params)
    if t < 0.0:
        raise ValueError("time must be non-negative")
    n_balls = params.total_balls
    ones = init.total_left
    pair = survival(params, t)
    accumulated = np.zeros(2**n_balls)
    placements = list(combinations(range(n_balls), params.heavy_count))
    for placement in placements:
        heavy_positions = set(placement)
        law = np.ones(1)
        for i in range(n_balls):
            keep = pair.heavy_survival if i in heavy_positions else pair.regular_survival
            on = (1.0 + keep) / 2.0 if i < ones else (1.0 - keep) / 2.0
            law = np.kron(law, np.array([1.0 - on, on]))
        accumulated += law
    mixture = accumulated / len(placements)
    return float(2**n_balls * (mixture @ mixture) - 1.0)
