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

import functools
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .model import CapacityError, ModelParams, check_integer, check_time
from .dist import _log_dbinom, survival
from .bounds import coupling_union_bound

BRUTE_FORCE_LIMIT = 10**6
SLACK_TOL = -1e-12


def mean_z(params: ModelParams, t: float) -> float:
    """Mean survival of a uniformly placed ball: (m e^{-alpha t} + n e^{-t}) / N."""
    return coupling_union_bound(params, t) / params.total_balls


@functools.lru_cache(maxsize=4)
def _log_half_binomial(count: int) -> np.ndarray:
    """log Binomial(count, 1/2) pmf at 0..count, i.e. log C(count, j) - count log 2;
    built once per count, from its lower half and the symmetry j -> count - j,
    and read-only, since callers share it."""
    half = _log_dbinom(0, count // 2, count, 0.5)
    table = np.concatenate((half, half[: (count + 1) // 2][::-1]))
    table.setflags(write=False)
    return table


def _log_sum_exp(values: np.ndarray) -> float:
    """log sum exp(values), -inf when every value is -inf."""
    top = float(values.max())
    if top == -math.inf:
        return top
    return top + math.log(float(np.exp(values - top).sum()))


def _hypergeometric_log_weights(
    params: ModelParams, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-member counts a of a size-subset with nonzero weight, and their
    log weights log C(m, a) + log C(n, size - a) - log C(N, size).

    The tables hold log C(c, j) - c log 2, whose powers of 2 cancel between
    the three factors (m + n = N), and log C(N, size) is taken as the log of
    the weights' own sum (Vandermonde), so the weights sum to 1 in rounding.
    """
    m, n = params.heavy_count, params.regular_count
    first, last = max(0, size - n), min(size, m)
    support = np.arange(first, last + 1)
    log_terms = (
        _log_half_binomial(m)[first : last + 1]
        + _log_half_binomial(n)[size - last : size - first + 1][::-1]
    )
    return support, log_terms - _log_sum_exp(log_terms)


def joint_moment(params: ModelParams, t: float, size: int) -> float:
    """E[product of `size` survival indicators] under the exchangeable placement.

    Conditioning on how many of the subset's members are heavy (a
    hypergeometric count) gives
        sum_a C(m, a) C(n, size - a) / C(N, size) * x^a y^(size - a)
    with x, y the heavy and regular survivals.  Weights are evaluated in log
    space from Loader's binomial tables (dist._log_dbinom), so the formula
    stays usable at large N.
    """
    check_integer("size", size, 1, params.total_balls)
    check_time(t)
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
    check_integer("size", size, 1, params.total_balls)
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
    check_integer("size", size, 0, params.total_balls)
    check_integer("k", k, 0, math.inf)
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
    if not (math.isfinite(u) and u > 0.0):
        raise ValueError("u must be finite and positive")
    check_integer("size", size, 1, params.total_balls)
    frac = params.heavy_count / params.total_balls
    try:
        binom_side = math.exp(size * math.log1p(frac * (u - 1.0)))
    except OverflowError:
        binom_side = math.inf
    support, log_weights = _hypergeometric_log_weights(params, size)
    with np.errstate(over="ignore"):
        hyper_side = float(np.exp(_log_sum_exp(log_weights + support * math.log(u))))
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
    """Subset-size table certifying E[prod Z] <= (E[Z])^size at one time point,
    one row per size 1..max_size; brute_max_error is None without brute force."""

    total_balls: int
    heavy_count: int
    heavy_rate: float
    t: float
    rows: tuple[NegDepRow, ...]
    min_slack: float
    passed: bool
    brute_max_error: float | None


def verify_negative_dependence(
    params: ModelParams, t: float, max_size: int, brute_force: str = "auto"
) -> NegDepReport:
    """Tabulate joint vs product moments for sizes 1..max_size.

    brute_force: "auto" adds the enumeration column when C(N, m) fits the
    guard, "never" skips it, "always" demands it (CapacityError if too big).
    """
    check_integer("max_size", max_size, 1, params.total_balls)
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


def exact_chi_square(params: ModelParams, t: float) -> float:
    """Chi-square of the coupled law against the uniform law on {0,1}^N.

    The coupled configuration keeps coordinate i at its start where the
    survival indicator fires and resamples it fairly otherwise, so its law is
    the uniform mixture over heavy placements p of product laws mu_p, and
    2^N sum_x mu_p(x) mu_q(x) = prod_i (1 + k_p(i) k_q(i)) whatever the start,
    k the survival of the species at i.  The overlap j = |p & q| has the
    hypergeometric weights w_j, so with x, y the heavy and regular survivals
        chi^2 = sum_j w_j [(1 + x^2)^j (1 + xy)^(2(m - j)) (1 + y^2)^(N - 2m + j) - 1],
    non-negative terms summed in log space (math.inf past the float range).
    At alpha = 1 it equals (1 + mean_z^2)^N - 1; for alpha < 1 it sits below.
    """
    pair = survival(params, t)
    x, y = pair.heavy_survival, pair.regular_survival
    n_balls, m = params.total_balls, params.heavy_count
    overlap, log_weights = _hypergeometric_log_weights(params, m)
    exponents = (
        overlap * math.log1p(x * x)
        + 2 * (m - overlap) * math.log1p(x * y)
        + (n_balls - 2 * m + overlap) * math.log1p(y * y)
    )
    # log expm1(e) = e + log(-expm1(-e)): exact at both ends, -inf at e = 0
    with np.errstate(divide="ignore", over="ignore"):
        log_terms = log_weights + exponents + np.log(-np.expm1(-exponents))
        return float(np.exp(_log_sum_exp(log_terms)))
