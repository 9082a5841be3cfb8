"""Analytic upper and lower bounds on the urn's mixing curves.

Upper bounds come in three strengths: a per-ball coupling union bound, a
chi-square (L2) bound for the observable, and a product-form L2 bound for the
full chain.  Lower bounds watch the half-line statistic "left-urn total below
N/2 - k": Chebyshev gives a closed form, the exact-CDF variant sharpens it,
and a central-limit version is reported for reference only (it is asymptotic,
not a finite-N certificate).
"""

from __future__ import annotations

import math

from .model import ModelParams
from .dist import distance_curve, observable_mean_variance, survival

_SQRT2 = math.sqrt(2.0)


def coupling_union_bound(params: ModelParams, t: float) -> float:
    """Expected number of not-yet-redrawn balls, m e^{-alpha t} + n e^{-t}.

    A valid bound on the chain distance once below 1, but returned raw
    (it starts at N when t = 0); clamp downstream where needed.  Divided by
    N it is the population-averaged survival z of l2_upper_bound and
    negdep.mean_z.
    """
    pair = survival(params, t)
    return (
        params.heavy_count * pair.heavy_survival
        + params.regular_count * pair.regular_survival
    )


def l2_upper_bound(params: ModelParams, t: float) -> float:
    """Chi-square upper bound on the observable distance, clamped to 1.

    value = (1/2) sqrt((1 + z^2)^N - 1) with z the population-averaged
    survival.  The inner expression is evaluated as expm1(N log1p(z^2)) so tiny
    z keeps full relative precision, its argument capped at 709 against overflow
    (the bound is 1 from log 5 on).  At alpha = 1 the chi-square of the coupled
    law equals (1 + z^2)^N - 1 exactly, so the constant cannot be improved.
    """
    z = coupling_union_bound(params, t) / params.total_balls
    inner = math.expm1(min(709.0, params.total_balls * math.log1p(z * z)))
    return min(1.0, 0.5 * math.sqrt(inner))


def product_chain_upper_bound(params: ModelParams, t: float) -> float:
    """L2-type bound on the full-chain distance, clamped to 1.

    value = sqrt(2 m e^{-2 alpha t} + 2 N e^{-2 t}); each species contributes
    the chi-square of its own coordinate.
    """
    pair = survival(params, t)
    inner = (
        2.0 * params.heavy_count * pair.heavy_survival**2
        + 2.0 * params.total_balls * pair.regular_survival**2
    )
    return min(1.0, math.sqrt(inner))


def _half_line_margin(params: ModelParams, t: float) -> float:
    """Standardised gap c = (N/2 - E[left total]) / sqrt(N) from the all-right start."""
    mean, _ = observable_mean_variance(params, t)
    return (params.total_balls / 2.0 - mean) / math.sqrt(params.total_balls)


def chebyshev_lower_bound(params: ModelParams, t: float) -> float:
    """Certified lower bound on the observable distance via Chebyshev tails.

    With c the standardised mean gap and the threshold k = ceil(c sqrt(N)/2),
    both error terms of the half-line test are at most 1/c^2, giving
    1 - 2/c^2; returns 0 when c <= sqrt(2) (the bound is vacuous there).
    """
    c = _half_line_margin(params, t)
    if c <= _SQRT2:
        return 0.0
    return 1.0 - 2.0 / (c * c)


def kolmogorov_lower_bound(params: ModelParams, t: float) -> float:
    """Certified lower bound on the observable distance: the half-line gap
    from the all-right start (dist._half_line_gap), which equals the exact
    distance dist.observed_tv(params, t, InitialState(0, 0)).  One evaluation
    of distance_curve(params, ("kolmogorov",)); a curve over many times, or
    beside the exact distance, builds its tables once per time."""
    return distance_curve(params, ("kolmogorov",))(t)[0]


def clt_lower_bound(params: ModelParams, t: float) -> float:
    """Normal-approximation estimate Phi(c) - Phi(-c) of the observable distance.

    Asymptotic only: accurate to O(1/sqrt(N)) but not a finite-N certificate,
    so the bounds table prints it for reference and never enters it in the
    sandwich check.
    """
    c = _half_line_margin(params, t)
    return max(0.0, math.erf(c / _SQRT2))

