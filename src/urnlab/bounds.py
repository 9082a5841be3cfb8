"""Analytic upper and lower bounds on the urn's mixing curves.

Upper bounds come in three strengths: a per-ball coupling union bound, a
chi-square (L2) bound for the observable, and a product-form L2 bound for the
full chain.  Lower bounds watch the half-line statistic "left-urn total below
N/2 - k": Chebyshev gives a closed form, the exact-CDF variant sharpens it,
and a central-limit version is reported for reference only (it is asymptotic,
not a finite-N certificate, and is flagged as such).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import InitialState, ModelParams
from .dist import observable_mean_variance, observed_law, stationary_observed, survival

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
    """Best half-line separation: max_j |CDF_t(j) - CDF_inf(j)| from the all-right start.

    Each half-line event is a single event, so the maximum gap is a certified
    lower bound on total variation, and it dominates the Chebyshev value
    because the latter certifies one particular half-line.
    """
    law = observed_law(params, InitialState(0, 0), t)
    target = stationary_observed(params)
    # clamped to 1 as in dist.tv: each table may carry up to 1e-12 of mass drift
    return min(1.0, float(np.abs(law.cdf() - target.cdf()).max()))


def clt_lower_bound(params: ModelParams, t: float) -> float:
    """Normal-approximation estimate Phi(c) - Phi(-c) of the observable distance.

    Asymptotic only: accurate to O(1/sqrt(N)) but not a finite-N certificate.
    Curves built from it carry asymptotic=True.
    """
    c = _half_line_margin(params, t)
    return max(0.0, math.erf(c / _SQRT2))


# kind -> (target, bound function name, asymptotic).  Looked up by name per call,
# so a wrapper set on the module attribute (as perfbench/spans.py does) is called.
_BOUND_KINDS = {
    "coupling_ub": ("chain", "coupling_union_bound", False),
    "l2_ub": ("observable", "l2_upper_bound", False),
    "chain_l2_ub": ("chain", "product_chain_upper_bound", False),
    "chebyshev_lb": ("observable", "chebyshev_lower_bound", False),
    "kolmogorov_lb": ("observable", "kolmogorov_lower_bound", False),
    "clt_lb": ("observable", "clt_lower_bound", True),
}

CURVE_KINDS = (*_BOUND_KINDS, "exact")


@dataclass(frozen=True)
class BoundCurve:
    """A sampled curve t -> value with provenance.

    kind identifies the producing rule (one of CURVE_KINDS); target says
    which distance it brackets.  raw_values keeps the unclamped values for
    kinds that clamp (the coupling bound).  asymptotic flags estimates that
    are not finite-N certificates.
    """

    kind: str
    target: str
    times: tuple[float, ...]
    values: tuple[float, ...]
    raw_values: tuple[float, ...] | None = None
    asymptotic: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(t < 0.0 for t in self.times):
            raise ValueError("times must be non-negative")


def bound_curve(params: ModelParams, kind: str, times) -> BoundCurve:
    """Evaluate one named bound on a time grid.  kind "exact" is handled by
    the distance routines, not here."""
    times = tuple(float(t) for t in times)
    if kind not in _BOUND_KINDS:
        raise ValueError(f"bound_curve cannot evaluate kind {kind!r}")
    target, name, asymptotic = _BOUND_KINDS[kind]
    values = tuple(globals()[name](params, t) for t in times)
    clamped = kind == "coupling_ub"  # the only bound returned raw
    return BoundCurve(
        kind=kind,
        target=target,
        times=times,
        values=tuple(min(1.0, v) for v in values) if clamped else values,
        raw_values=values if clamped else None,
        asymptotic=asymptotic,
    )
