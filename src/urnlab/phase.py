"""Cutoff-regime classification and exact mixing times.

The large-N behaviour of the urn is organised by two exponents: gamma for the
observable (left-urn total) and tilde-gamma = beta - alpha for the full pair
chain.  Negative exponent: the heavy species is irrelevant and mixing happens
on the classical schedule (insensitivity).  Non-negative exponent with a
diverging heavy contribution: cutoff at a delayed time.  Non-negative
exponent with the heavy contribution pinned at a finite level ell: the
distance decays over a whole relaxation-time scale and there is no cutoff.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .model import (
    CapacityError,
    ModelParams,
    ParamFamily,
    PredictedTimes,
    gamma,
    predicted_times,
    tilde_gamma,
)
from . import dist
from .bounds import BoundCurve

INSENSITIVITY = "Insensitivity"
DELAYED_CUTOFF = "DelayedCutoff"
NO_CUTOFF = "NoCutoff"
UNDETERMINED = "Undetermined"

EXPONENT_AGREE_TOL = 0.05
ELL_GROWTH_TOL = 0.20
BRACKET_WIDTH_FACTOR = 1e-3
NO_CROSSING_FACTOR = 100.0
RATIO_STATE_LIMIT = 20_000_000


class NoCrossingError(RuntimeError):
    """The distance curve never reached the requested threshold."""


class ContradictionError(ValueError):
    """Declared limits violate an implication that always holds for the model."""


@dataclass(frozen=True)
class MixingTimeResult:
    """First crossing of a distance curve below epsilon, with its bracket."""

    target: str
    epsilon: float
    time: float
    bracket_lo: float
    bracket_hi: float
    value_lo: float
    value_hi: float
    evaluations: int


def mixing_time(
    params: ModelParams, epsilon: float, target: str = "observable"
) -> MixingTimeResult:
    """Locate the first time the distance drops to epsilon.

    The distance is dist.distance_curve(params, target): the maximum over
    the four corner starts (one of each mirror pair evaluated), which are
    the maximisers only empirically.

    Scans a geometric grid seeded by the predicted cutoff times for the first
    point below epsilon, then bisects that bracket down to width
    1e-3 * relaxation_time.  First-crossing semantics: the search takes the
    curve to be non-increasing, so the crossing is unique; the bracket
    endpoints are re-checked and a violation raises.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    curve = dist.distance_curve(params, target)
    evaluations = 0

    def evaluate(t: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return curve(t)

    at_zero = evaluate(0.0)
    if at_zero <= epsilon:
        return MixingTimeResult(
            target=target,
            epsilon=epsilon,
            time=0.0,
            bracket_lo=0.0,
            bracket_hi=0.0,
            value_lo=at_zero,
            value_hi=at_zero,
            evaluations=evaluations,
        )
    times = predicted_times(params)
    # heavy_cutoff is -inf only when m = 0, and regular_cutoff is positive
    scale = max(times.regular_cutoff, times.heavy_cutoff)
    ceiling = NO_CROSSING_FACTOR * scale
    lo, value_lo = 0.0, at_zero
    hi = value_hi = None
    t = scale / 64.0
    while t <= ceiling:
        value = evaluate(t)
        if value <= epsilon:
            hi, value_hi = t, value
            break
        lo, value_lo = t, value
        t *= 2.0
    if hi is None:
        raise NoCrossingError(
            f"{target} distance stayed above {epsilon} on [0, {ceiling:.6g}]"
        )
    width_goal = BRACKET_WIDTH_FACTOR * params.relaxation_time
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        value = evaluate(mid)
        if value <= epsilon:
            hi, value_hi = mid, value
        else:
            lo, value_lo = mid, value
    if not (value_lo >= epsilon >= value_hi):
        raise RuntimeError(
            "bracket invariant failed: the curve is not first-crossing monotone "
            f"around [{lo}, {hi}]"
        )
    return MixingTimeResult(
        target=target,
        epsilon=epsilon,
        time=0.5 * (lo + hi),
        bracket_lo=lo,
        bracket_hi=hi,
        value_lo=value_lo,
        value_hi=value_hi,
        evaluations=evaluations,
    )


def product_condition_ratio(params: ModelParams, epsilon: float = 0.25) -> float:
    """Chain mixing time over relaxation time; diverges exactly when the chain
    has cutoff, stays bounded when it does not.

    This is a chain quantity, not an observable one.  A family whose
    observable is NoCutoff but whose heavy count diverges (m ~ e sqrt N with
    alpha = 1/log N, say) still has chain cutoff: the chain mixes within a
    bounded shift of t^H = log m / (2 alpha), so the ratio grows like
    (1/2) log m even though the observable ratio stays bounded.

    Guarded on the chain state count (n + 1)(m + 1), which also decides the
    largest family size classify reports the ratio for.  The search builds
    the stationary tables once; each evaluation builds one regular table
    (shared by the evaluated corners) and one heavy table per corner, plus
    O((n + m) log m) per corner in dist.tv_product.
    """
    states = (params.regular_count + 1) * (params.heavy_count + 1)
    if states > RATIO_STATE_LIMIT:
        raise CapacityError(
            f"chain state space {states} exceeds the {RATIO_STATE_LIMIT} guard "
            "for exact mixing-time evaluation"
        )
    result = mixing_time(params, epsilon, target="chain")
    return result.time / params.relaxation_time


def cutoff_profile(
    params: ModelParams,
    center_time: float,
    offsets,
    window_unit: float | None = None,
    target: str = "observable",
) -> BoundCurve:
    """Exact distance curve sampled at center + offset * window_unit.

    window_unit defaults to the relaxation time when the observable delay
    exponent is non-negative (delayed and no-cutoff regimes have windows of
    that scale) and to 1 otherwise.
    """
    if window_unit is None:
        window_unit = params.relaxation_time if gamma(params) >= 0.0 else 1.0
    if window_unit <= 0.0:
        raise ValueError("window_unit must be positive")
    curve = dist.distance_curve(params, target)
    times = tuple(center_time + window_unit * float(o) for o in offsets)
    if any(t < 0.0 for t in times):
        raise ValueError("every sampled time must be non-negative")
    return BoundCurve(
        kind="exact",
        target=target,
        times=times,
        values=tuple(curve(t) for t in times),
    )


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeclaredLimits:
    """Large-N limits supplied by the user in declared mode.

    ell is the limit of (2 beta - 1) log N: a finite non-negative number, or
    math.inf when it diverges; it may be omitted (None) when gamma_inf < 0,
    where it plays no role.
    """

    gamma_inf: float
    tilde_gamma_inf: float
    m_diverges: bool
    ell: float | None = None


@dataclass(frozen=True)
class FamilySample:
    total_balls: int
    heavy_count: int
    heavy_rate: float
    beta: float
    gamma: float
    tilde_gamma: float
    ell_at_size: float


@dataclass(frozen=True)
class RegimeReport:
    """Classification outcome for a parameter family."""

    mode: str
    samples: tuple[FamilySample, ...]
    gamma_inf: float | None
    tilde_gamma_inf: float | None
    ell: float | None
    ell_diverges: bool | None
    m_diverges: bool
    observable_regime: str
    chain_regime: str
    largest: ModelParams
    times: PredictedTimes
    ratio_epsilon: float
    product_condition_ratio: float | None
    ratio_size: int | None

    def to_json_dict(self) -> dict:
        body = {"schema": "regime-report/1", **asdict(self)}
        del body["largest"]
        return {("predicted_times" if k == "times" else k): v for k, v in body.items()}


def observable_regime(
    gamma_inf: float | None, ell: float | None, ell_diverges: bool | None
) -> str:
    if gamma_inf is None:
        return UNDETERMINED
    if gamma_inf < 0.0:
        return INSENSITIVITY
    if ell_diverges:
        return DELAYED_CUTOFF
    if ell is None or ell < 0.0:
        return UNDETERMINED
    return NO_CUTOFF


def chain_regime(tilde_gamma_inf: float | None, m_diverges: bool) -> str:
    if tilde_gamma_inf is None:
        return UNDETERMINED
    if tilde_gamma_inf < 0.0:
        return INSENSITIVITY
    return DELAYED_CUTOFF if m_diverges else NO_CUTOFF


def validate_declared(limits: DeclaredLimits) -> None:
    """Reject declared limits that violate an always-true implication."""
    if limits.tilde_gamma_inf < 0.0 <= limits.gamma_inf:
        raise ContradictionError(
            "violated implication: tilde_gamma_inf < 0 forces gamma_inf < 0 "
            "(the chain exponent dominates the observable exponent)"
        )
    if limits.gamma_inf >= 0.0 and not limits.m_diverges:
        raise ContradictionError(
            "violated implication: gamma_inf >= 0 forces the heavy count to "
            "diverge (it needs beta bounded away from 1/2 from above)"
        )
    if limits.ell is not None:
        if limits.ell < 0.0 and limits.gamma_inf >= 0.0:
            raise ContradictionError(
                "violated implication: gamma_inf >= 0 keeps (2 beta - 1) log N "
                "non-negative, so its limit ell cannot be negative"
            )
        if math.isfinite(limits.ell) and not limits.m_diverges:
            raise ContradictionError(
                "violated implication: a finite ell forces the heavy count "
                "to grow like sqrt(N) exp(ell / 2)"
            )
    if limits.gamma_inf >= 0.0 and limits.ell is None:
        raise ValueError(
            "gamma_inf >= 0 requires a declared ell (finite value or math.inf)"
        )


def _relative_agreement(last: float, prev: float) -> bool:
    if math.isinf(last) or math.isinf(prev):
        return last == prev
    return abs(last - prev) <= EXPONENT_AGREE_TOL * max(1.0, abs(last))


def _finite_n_ell(params: ModelParams) -> float:
    return (2.0 * params.beta - 1.0) * params.log_size


def classify(
    family: ParamFamily,
    mode: str = "extrapolate",
    declared: DeclaredLimits | None = None,
    ratio: str = "auto",
    ratio_epsilon: float = 0.25,
) -> RegimeReport:
    """Classify a parameter family into its observable and chain regimes.

    extrapolate mode estimates the limits from the two largest sizes: an
    exponent whose values disagree by more than 5% (relative, with an
    absolute floor of 1) is Undetermined; ell is declared divergent when it
    grows by more than 20% between the two largest sizes.  declared mode
    takes the limits as given, after checking them for contradictions.

    ratio: "auto" computes the product-condition ratio at the largest size
    whose chain state space fits the capacity guard, "never" skips it.
    """
    if mode not in ("extrapolate", "declared"):
        raise ValueError(f"unknown mode {mode!r}")
    if ratio not in ("auto", "never"):
        raise ValueError(f"unknown ratio policy {ratio!r}")
    instances = family.instances()
    samples = tuple(
        FamilySample(
            **asdict(p),
            beta=p.beta,
            gamma=gamma(p),
            tilde_gamma=tilde_gamma(p),
            ell_at_size=_finite_n_ell(p),
        )
        for p in instances
    )
    largest = instances[-1]

    if mode == "declared":
        if declared is None:
            raise ValueError("declared mode needs a DeclaredLimits value")
        validate_declared(declared)
        gamma_inf = declared.gamma_inf
        tilde_inf = declared.tilde_gamma_inf
        m_div = declared.m_diverges
        if declared.ell is None:
            ell, ell_div = None, None
        elif math.isinf(declared.ell):
            ell, ell_div = None, True
        else:
            ell, ell_div = declared.ell, False
    else:
        if len(instances) < 2:
            raise ValueError("extrapolate mode needs at least two sizes")
        last, prev = samples[-1], samples[-2]
        gamma_inf = last.gamma if _relative_agreement(last.gamma, prev.gamma) else None
        tilde_inf = (
            last.tilde_gamma
            if _relative_agreement(last.tilde_gamma, prev.tilde_gamma)
            else None
        )
        m_div = last.heavy_count > prev.heavy_count
        if prev.ell_at_size > 0.0:
            ell_div = last.ell_at_size / prev.ell_at_size > 1.0 + ELL_GROWTH_TOL
        else:
            ell_div = last.ell_at_size - prev.ell_at_size > ELL_GROWTH_TOL
        ell = None if ell_div else last.ell_at_size

    obs_label = observable_regime(gamma_inf, ell, ell_div)
    chain_label = chain_regime(tilde_inf, m_div)

    ratio_value = ratio_size = None
    if ratio == "auto":
        for candidate in reversed(instances):
            try:
                ratio_value = product_condition_ratio(candidate, ratio_epsilon)
                ratio_size = candidate.total_balls
                break
            except CapacityError:
                continue

    return RegimeReport(
        mode=mode,
        samples=samples,
        gamma_inf=gamma_inf,
        tilde_gamma_inf=tilde_inf,
        ell=ell,
        ell_diverges=ell_div,
        m_diverges=m_div,
        observable_regime=obs_label,
        chain_regime=chain_label,
        largest=largest,
        times=predicted_times(largest),
        ratio_epsilon=ratio_epsilon,
        product_condition_ratio=ratio_value,
        ratio_size=ratio_size,
    )
