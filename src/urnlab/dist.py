"""Exact finite-N distribution laws for the two-species urn.

Everything here rests on one fact about a single ball with clock rate r:
started on a given side, by time t it has been redrawn at least once with
probability 1 - exp(-r t), and conditionally on that its side is a fair coin.
So each coordinate of the chain is a sum of independent Bernoullis and its law
is a convolution of two binomials, one for the balls that started left and one
for the balls that started right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .model import CapacityError, InitialState, ModelParams, corners

FULL_SCAN_LIMIT = 100_000

_MASS_RENORM_TOL = 1e-12
_MASS_ERROR_TOL = 1e-9
_NEGATIVE_TOL = -1e-12


class Pmf:
    """Probability mass function on {0, 1, ..., K}, stored densely.

    Entries that cancellation pushed slightly negative are clamped to zero.
    Total mass is renormalised when it drifts past 1e-12 and rejected when
    it drifts past max(1e-9, 5e-15 * size), more than log-space summation
    roundoff can explain (that much drift means a bug, not roundoff).  The
    underlying array is frozen so instances can be shared freely.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        arr = np.array(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a pmf needs a non-empty 1-d array of probabilities")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite")
        low = arr.min()
        if low < _NEGATIVE_TOL:
            raise ValueError(f"pmf entry {low} is too negative to be roundoff")
        if low < 0.0:
            arr = np.maximum(arr, 0.0)
        total = float(arr.sum())
        drift = abs(total - 1.0)
        if drift > max(_MASS_ERROR_TOL, 5e-15 * arr.size):
            raise ValueError(f"pmf mass {total} is too far from 1")
        if drift > _MASS_RENORM_TOL:
            arr = arr / total
        arr.setflags(write=False)
        self.probs = arr

    def __len__(self) -> int:
        return self.probs.size

    @property
    def max_value(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def variance(self) -> float:
        values = np.arange(self.probs.size)
        mu = float(values @ self.probs)
        return float(((values - mu) ** 2) @ self.probs)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)


def _log_comb(n: int, k) -> np.ndarray:
    """log C(n, k) through log-gamma, elementwise over k."""
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def binomial_pmf(trials: int, success_prob: float) -> Pmf:
    """Binomial(trials, success_prob) computed through log-gamma.

    The log-space route avoids the overflow of direct factorial ratios, but
    cancellation in the log-gamma difference costs digits: single entries
    carry a relative error of about 1e-12 at 1e4 trials and about 1e-9 at
    1e6.  Entries beyond about 38 standard deviations from the mean underflow
    in exp to exact zeros, which convolve skips.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise ValueError("trials must be an integer")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    p = float(success_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability {p} outside [0, 1]")
    k = np.arange(trials + 1, dtype=float)
    log_pmf = _log_comb(trials, k) + xlogy(k, p) + xlog1py(trials - k, -p)
    return Pmf(np.exp(log_pmf))


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Law of the sum of independent variables with laws a and b.

    Direct convolution of the non-zero spans only (first to last non-zero
    entry of each table): O(span(a) * span(b)) multiply-adds.  The trimmed
    entries are exact zeros, so no mass is dropped, and the result keeps the
    full length len(a) + len(b) - 1.  No FFT, so the result carries no
    spectral roundoff and tiny tail masses survive.
    """
    nonzero_a, nonzero_b = np.flatnonzero(a.probs), np.flatnonzero(b.probs)
    first_a, first_b = nonzero_a[0], nonzero_b[0]
    core = np.convolve(
        a.probs[first_a : nonzero_a[-1] + 1], b.probs[first_b : nonzero_b[-1] + 1]
    )
    out = np.zeros(len(a) + len(b) - 1)
    out[first_a + first_b : first_a + first_b + core.size] = core
    return Pmf(out)


@dataclass(frozen=True)
class SurvivalPair:
    """Per-ball survival probabilities at a fixed time.

    survival = chance the ball has not been redrawn yet; flip = chance an
    initially-right ball sits in the left urn, (1 - survival) / 2.
    """

    heavy_survival: float
    regular_survival: float
    heavy_flip: float
    regular_flip: float


def _flip(rate: float, t: float) -> float:
    """Chance a ball with clock rate `rate` has switched sides by time t,
    (1 - e^{-rate t}) / 2; expm1 keeps it accurate for small rate t."""
    return -math.expm1(-rate * t) / 2.0


def survival(params: ModelParams, t: float) -> SurvivalPair:
    if t < 0.0:
        raise ValueError("time must be non-negative")
    return SurvivalPair(
        heavy_survival=math.exp(-params.heavy_rate * t),
        regular_survival=math.exp(-t),
        heavy_flip=_flip(params.heavy_rate, t),
        regular_flip=_flip(1.0, t),
    )


def coordinate_law(count: int, ones_initial: int, rate: float, t: float) -> Pmf:
    """Law of one species' left-urn count at time t.

    count balls with clock rate `rate`, ones_initial of them starting in the
    left urn.  Each starter stays counted with probability (1 + s) / 2 and
    each non-starter joins with probability (1 - s) / 2, s = exp(-rate t).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0 <= ones_initial <= count:
        raise ValueError(f"ones_initial must lie in [0, {count}], got {ones_initial}")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    if t < 0.0:
        raise ValueError("time must be non-negative")
    flip = _flip(rate, t)
    keep = 1.0 - flip
    return convolve(
        binomial_pmf(ones_initial, keep),
        binomial_pmf(count - ones_initial, flip),
    )


def observed_law(params: ModelParams, init: InitialState, t: float) -> Pmf:
    """Exact law of the total left-urn count at time t from a given start."""
    return convolve(*chain_law(params, init, t))


def chain_law(params: ModelParams, init: InitialState, t: float) -> tuple[Pmf, Pmf]:
    """Both factors of the product-form chain law (regular, heavy).

    The joint law of the pair state is the outer product of the two factors;
    it is returned factored to keep large instances cheap.
    """
    init.validate(params)
    regular = coordinate_law(params.regular_count, init.regular_left, 1.0, t)
    heavy = coordinate_law(params.heavy_count, init.heavy_left, params.heavy_rate, t)
    return regular, heavy


def stationary_observed(params: ModelParams) -> Pmf:
    """Stationary law of the observable: Binomial(N, 1/2)."""
    return binomial_pmf(params.total_balls, 0.5)


def stationary_chain(params: ModelParams) -> tuple[Pmf, Pmf]:
    """Stationary chain factors: Binomial(n, 1/2) x Binomial(m, 1/2)."""
    return (
        binomial_pmf(params.regular_count, 0.5),
        binomial_pmf(params.heavy_count, 0.5),
    )


def tv(a: Pmf, b: Pmf) -> float:
    """Total-variation distance, one half the L1 distance of the tables.

    Clamped to 1: a table may keep up to 1e-12 of mass drift without
    renormalising, so on disjoint supports the raw half-sum can pass 1 by
    about 1e-12.
    """
    width = max(len(a), len(b))
    pa = np.zeros(width)
    pa[: len(a)] = a.probs
    pb = np.zeros(width)
    pb[: len(b)] = b.probs
    return min(1.0, 0.5 * float(np.abs(pa - pb).sum()))


def tv_product(x: tuple[Pmf, Pmf], y: tuple[Pmf, Pmf]) -> float:
    """Total-variation distance between two product laws given by factors,
    one half of sum_{a,b} |xr_a xh_b - yr_a yh_b|, without the joint table.

    Threshold form (Neyman-Pearson): for a fixed row a the cell a, b is
    positive exactly when the ratio xh_b / yh_b exceeds yr_a / xr_a.  The
    heavy index is sorted once by that ratio (yh_b = 0 at +inf; a cell with
    xh_b = yh_b = 0 adds nothing wherever it sits), and suffix sums of xh and
    yh in that order give every row's positive part through one searchsorted,
    in O((n + m) log m) time and O(n + m) memory.  Then
    (1/2) sum |d| = sum d^+ - (1/2) sum d, and sum d = (sum xr)(sum xh) -
    (sum yr)(sum yh) keeps the allowed table-mass drift in, as the half-sum
    has it.  Clamped to [0, 1]: that drift, up to 1e-12 per table, can push
    the raw value about 1e-12 past either end.
    """
    xr, xh = x[0].probs, x[1].probs
    yr, yh = y[0].probs, y[1].probs
    if xr.size != yr.size or xh.size != yh.size:
        raise ValueError("product factors must be over matching state spaces")
    # A ratio past the float range reads as +inf; that can misplace only
    # cells smaller than 1e-308.
    with np.errstate(over="ignore"):
        ratio = np.divide(xh, yh, out=np.full(xh.size, np.inf), where=yh > 0.0)
        threshold = np.divide(yr, xr, out=np.full(xr.size, np.inf), where=xr > 0.0)
    order = np.argsort(ratio, kind="stable")
    # suffix sums over the sorted heavy index, with an empty suffix at the end
    x_tail = np.append(np.cumsum(xh[order][::-1])[::-1], 0.0)
    y_tail = np.append(np.cumsum(yh[order][::-1])[::-1], 0.0)
    first = np.searchsorted(ratio[order], threshold, side="right")
    positive = float((xr * x_tail[first] - yr * y_tail[first]).sum())
    drift = float(xr.sum()) * float(xh.sum()) - float(yr.sum()) * float(yh.sum())
    return min(1.0, max(0.0, positive - 0.5 * drift))


def _initial_states(params: ModelParams, strategy) -> list[InitialState]:
    """Starts a strategy maximises over: an explicit InitialState as given,
    else the four corners or (guarded) all (n + 1)(m + 1) starts, of which
    only one start of each mirror pair is evaluated."""
    if isinstance(strategy, InitialState):
        return [strategy.validate(params)]
    n, m = params.regular_count, params.heavy_count
    if strategy == "corners":
        states = corners(params)
    elif strategy == "full_scan":
        count = (n + 1) * (m + 1)
        if count > FULL_SCAN_LIMIT:
            raise CapacityError(
                f"full scan over {count} initial states exceeds the "
                f"{FULL_SCAN_LIMIT} guard"
            )
        states = [InitialState(r, h) for r in range(n + 1) for h in range(m + 1)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # The mirror (r, h) -> (n - r, m - h) reverses both factor laws and fixes both
    # stationary laws, and relabelling states leaves total variation unchanged.
    return [s for s in states if (2 * s.regular_left, 2 * s.heavy_left) <= (n, m)]


def distance_curve(params: ModelParams, target: str = "observable", strategy="corners"):
    """The exact curve t -> largest distance from stationarity at time t over
    the chosen starts, of the observable ("observable") or the pair chain ("chain").

    strategy: "corners" (default) maximises over the four extreme starts,
    the maximisers only empirically; "full_scan" over every start (guarded);
    or a single InitialState.  One start of each mirror pair is evaluated.
    Starts and stationary tables are built here, once.  An evaluation builds
    one regular table per regular_left (the starts come grouped by it) and one
    heavy table per start, and keeps at most one of each alive.
    """
    starts = _initial_states(params, strategy)
    if target not in ("observable", "chain"):
        raise ValueError(f"unknown target {target!r}")
    stationary = stationary_chain(params) if target == "chain" else stationary_observed(params)
    n, m, rate = params.regular_count, params.heavy_count, params.heavy_rate

    def distance(regular: Pmf, heavy: Pmf) -> float:
        if target == "chain":
            return tv_product((regular, heavy), stationary)
        return tv(convolve(regular, heavy), stationary)

    def largest_from(regular: Pmf, group, t: float) -> float:
        return max(distance(regular, coordinate_law(m, s.heavy_left, rate, t)) for s in group)

    def curve(t: float) -> float:
        groups = groupby(starts, key=lambda s: s.regular_left)
        return max(largest_from(coordinate_law(n, r, 1.0, t), group, t) for r, group in groups)

    return curve


def observed_tv(params: ModelParams, t: float, strategy="corners") -> float:
    """Observable distance at time t: distance_curve(params, "observable", strategy)(t)."""
    return distance_curve(params, "observable", strategy)(t)


def chain_tv(params: ModelParams, t: float, strategy="corners") -> float:
    """Pair-chain distance at time t: distance_curve(params, "chain", strategy)(t)."""
    return distance_curve(params, "chain", strategy)(t)


def observable_mean_variance(params: ModelParams, t: float) -> tuple[float, float]:
    """Mean and variance of the left-urn total started from the all-right state.

    mean = m p + n q and var = m p (1 - p) + n q (1 - q) with p, q the heavy
    and regular flip probabilities; the variance never exceeds N / 4.
    """
    pair = survival(params, t)
    m, n = params.heavy_count, params.regular_count
    p, q = pair.heavy_flip, pair.regular_flip
    mean = m * p + n * q
    var = m * p * (1.0 - p) + n * q * (1.0 - q)
    return mean, var
