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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import CapacityError, InitialState, ModelParams, check_integer, check_time

FULL_SCAN_LIMIT = 100_000

_MASS_RENORM_TOL = 1e-12
_MASS_ERROR_TOL = 1e-9
_NEGATIVE_TOL = -1e-12


class Pmf:
    """Probability mass function on {0, ..., size - 1}, stored as its window
    (first to last non-zero entry) at offset: Pmf(window, offset, size), or
    Pmf(probs) for a dense table.  Entries that cancellation pushed slightly
    negative are clamped to zero.  Total mass is renormalised when it drifts
    past 1e-12 and rejected when it drifts past max(1e-9, 5e-15 * size), more
    than log-space summation roundoff can explain (that much drift means a
    bug, not roundoff).  Then the zero ends are trimmed, here and nowhere
    else.  The window is frozen so instances can be shared freely; .probs
    builds the dense table.
    """

    __slots__ = ("window", "offset", "size")

    def __init__(self, probs, offset: int = 0, size: int | None = None) -> None:
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a pmf needs a non-empty 1-d array of probabilities")
        size = offset + arr.size if size is None else size
        if offset < 0 or offset + arr.size > size:
            raise ValueError(f"entries from {offset} do not fit a support of size {size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite")
        low = arr.min()
        if low < _NEGATIVE_TOL:
            raise ValueError(f"pmf entry {low} is too negative to be roundoff")
        if low < 0.0:
            arr = np.maximum(arr, 0.0)
        total = float(arr.sum())
        drift = abs(total - 1.0)
        if drift > max(_MASS_ERROR_TOL, 5e-15 * size):
            raise ValueError(f"pmf mass {total} is too far from 1")
        if drift > _MASS_RENORM_TOL:
            arr = arr / total
        nonzero = arr != 0.0  # first and last True found by argmax from each end
        first, stop = int(nonzero.argmax()), arr.size - int(nonzero[::-1].argmax())
        self.window = arr[first:stop].copy()
        self.window.setflags(write=False)
        self.offset, self.size = offset + first, size

    @property
    def probs(self) -> np.ndarray:
        """The dense table, read-only, built on each access."""
        dense = np.pad(self.window, (self.offset, self.size - self.offset - self.window.size))
        dense.setflags(write=False)
        return dense

    def __len__(self) -> int:
        return self.size

    def reversed(self) -> Pmf:
        """The law of size - 1 - X: the window reversed, the checks not run
        again on a table that passed them."""
        mirror = object.__new__(type(self))
        mirror.window = self.window[::-1].copy()
        mirror.window.setflags(write=False)
        mirror.offset, mirror.size = self.size - self.offset - self.window.size, self.size
        return mirror

    def mean(self) -> float:
        # a float index: numpy casts an integer one to float on every call,
        # then runs the same dot for the same bits
        index = np.arange(self.offset, self.offset + self.window.size, dtype=float)
        return float(index @ self.window)

    def variance(self) -> float:
        values = np.arange(self.offset, self.offset + self.window.size)
        return float(((values - self.mean()) ** 2) @ self.window)


# Loader's saddle-point form of the binomial pmf (C. Loader, "Fast and Accurate
# Computation of Binomial Probabilities", 2000; R's dbinom_raw):
#   log b(k; n, p) = stirlerr(n) - stirlerr(k) - stirlerr(n - k)
#                    - bd0(k, n p) - bd0(n - k, n q) - log(2 pi k (n - k) / n) / 2,
# stirlerr(j) = log j! - (j + 1/2) log j + j - log sqrt(2 pi) and
# bd0(x, M) = x log(x / M) + M - x, each evaluated without cancellation.
# stirlerr(0..15) to 25 digits (R's sferr_halves at the integers; 0 is unused):
_STIRLERR = np.array([
    0.0, 0.08106146679532725821967026, 0.04134069595540929409382208,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.01041126526197209649747857,
    0.009255462182712732917728637, 0.008330563433362871256469319,
    0.007573675487951840794972024, 0.006942840107209529865664153,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.00555473355196280137103869,
])
# Stirling series 1/12, 1/360, 1/1260, 1/1680, 1/1188 (alternating signs) and
# the bd0 series 1/3, 1/5, ..., 1/21, both in Horner order.
_STIRLING = (1 / 1188, 1 / 1680, 1 / 1260, 1 / 360, 1 / 12)
_BD0_SERIES = tuple(1.0 / j for j in range(21, 1, -2))
# Chernoff: b(k; n, p) <= exp(-n KL(k/n || p)), so past this exponent an entry is
# below e^-750, under half the smallest subnormal: exp rounds it to 0.0 anyway.
_WINDOW_NATS = 750.0
# entries per block of the ratio recurrence, each from one Loader anchor
_BLOCK = 512
_COLUMNS = np.arange(float(_BLOCK))
_STEPS = _COLUMNS[1:]


def _stirlerr_series(j: np.ndarray, smallest: int) -> np.ndarray:
    """stirlerr(j) by its asymptotic series, good to 1e-17 for j > 15: 5 terms,
    4 past 35, 3 past 80, 2 past 500 (smallest is a lower bound on j).

    In place on fresh arrays here and below: at large windows the temporaries,
    not the arithmetic, set the cost."""
    terms = 5 - (smallest > 35) - (smallest > 80) - (smallest > 500)
    w = j * j
    np.divide(1.0, w, out=w)
    acc = _STIRLING[5 - terms] * w
    for c in _STIRLING[6 - terms : -1]:
        np.subtract(c, acc, out=acc)
        acc *= w
    np.subtract(_STIRLING[-1], acc, out=acc)
    acc /= j
    return acc


def _stirlerr(n: int) -> float:
    """stirlerr(n) for one n: the table to 15, else _stirlerr_series as a
    scalar, in its order of operations and so to the same bits."""
    if n <= 15:
        return float(_STIRLERR[n])
    terms = 5 - (n > 35) - (n > 80) - (n > 500)
    j = float(n)
    w = 1.0 / (j * j)
    acc = _STIRLING[5 - terms] * w
    for c in _STIRLING[6 - terms : -1]:
        acc = (c - acc) * w
    return (_STIRLING[-1] - acc) / j


def _means(n: int, p: float) -> tuple[float, float, float, float]:
    """n p and n (1 - p) as float values, then the slope in k and the
    intercept (stirlerr(n) included) that correct log b(k) for the rounding
    of both: bd0(x, M + e) = bd0(x, M) + e (1 - x / M) + O(e^2).

    Exact rational arithmetic on the float p: at n = 10^6 a rounded n p alone
    moves entries 20 standard deviations out by about 1e-12 relative.  n (1 - p)
    is not taken as n - n p, which loses every digit when p is near 1.
    """
    num, den = p.as_integer_ratio()
    mean, rest = n * p, n * (1.0 - p)
    mean_num, mean_den = mean.as_integer_ratio()
    rest_num, rest_den = rest.as_integer_ratio()
    mean_err = (n * num * mean_den - mean_num * den) / (den * mean_den)
    rest_err = ((n * den - n * num) * rest_den - rest_num * den) / (den * rest_den)
    slope = mean_err / mean - rest_err / rest
    intercept = _stirlerr(n) + (rest_err * n / rest - (mean_err + rest_err))
    return mean, rest, slope, intercept


def _log_dbinom_half(lo: int, hi: int, n: int) -> np.ndarray:
    """log Binomial(n, 1/2) pmf at k = lo..hi, 0 <= lo <= hi <= n.

    k = 0 and k = n are scalars.  Both means are n / 2 exactly (_means'
    slope 0, intercept stirlerr(n)), so Loader's rows at k and n - k are one,
    g(x) = stirlerr(x) + bd0(x, n / 2), read forwards and backwards:
    log b(k) = stirlerr(n) - (g(k) + g(n - k) + log(2 pi k (n - k) / n) / 2),
    g taken once over [min(a, n - b), max(b, n - a)] for the interior a..b.
    Everything is sliced at arithmetically computed bounds: no boolean
    masks, whose cost dominates on small tables.

    Error: the direct bd0 loses up to x 2^-53 per row outside the series
    run, so an entry is off 40 digits by up to about n 2^-53 relative: past
    1e-12 deep in the tails from about 10^4 to 4 x 10^4 trials (2.2e-12 at
    n = 24,750, k = 9,580); past that every entry above 1e-290 is in the run.
    """
    out = np.empty(hi - lo + 1)
    if lo == 0:
        out[0] = n * math.log(0.5)
    if hi == n:
        out[-1] = n * math.log(0.5)
    a, b = max(lo, 1), min(hi, n - 1)
    if a > b:
        return out
    first, last = min(a, n - b), max(b, n - a)
    x = np.arange(first, last + 1, dtype=float)
    mean = n * 0.5

    g = _stirlerr_series(x, first)
    head = max(min(last, 15) - first + 1, 0)
    g[:head] = _STIRLERR[first : first + head]

    # bd0: the direct form (M >= 1, so x / M cannot overflow), then the series
    # in v = (x - M) / (x + M) over the run with |v| < 0.1 (x within
    # (9 M / 11, 11 M / 9)), where the direct form cancels; ten terms reach
    # v^22 < 1e-22.
    bd0 = np.divide(x, mean)
    np.log(bd0, out=bd0)
    bd0 *= x
    bd0 += mean - x
    start = min(max(math.ceil(mean * 9 / 11), first), last + 1) - first
    stop = max(min(math.floor(mean * 11 / 9), last) + 1 - first, start)
    if start < stop:
        xs = x[start:stop]
        diff = xs - mean
        v = xs + mean
        np.divide(diff, v, out=v)
        w = v * v
        acc = _BD0_SERIES[0] * w
        for c in _BD0_SERIES[1:-1]:
            acc += c
            acc *= w
        acc += _BD0_SERIES[-1]
        # (x - M) v + 2 x v w (1/3 + w/5 + ...)
        acc *= w
        acc *= xs
        acc *= 2.0
        acc += diff
        acc *= v
        bd0[start:stop] = acc

    g += bd0
    ks, mirror = slice(a - first, b - first + 1), slice(n - b - first, n - a - first + 1)
    body = g[ks] + g[mirror][::-1]  # g(k) + g(n - k)
    prefactor = (2.0 * math.pi / n) * x[ks]
    prefactor *= x[mirror][::-1]
    np.log(prefactor, out=prefactor)
    prefactor *= 0.5
    body += prefactor
    out[a - lo : b - lo + 1] = _stirlerr(n) - body
    return out


def _log_dbinom_at(k: int, n: int, p: float, means: tuple) -> float:
    """log Binomial(n, p) pmf at one k: Loader's form as a scalar, general
    in p, with math's log; means is _means(n, p).

    One change from the vector form (_log_dbinom_half): bd0 runs its series
    wherever |v| < 1/2, not 1/10, summed until the next power of v^2 is
    below 2^-56 of the first (at most 28 terms).  Past |v| = 1/10 the direct
    form's x log(x / M) loses up to x 2^-53 to the rounding of x / M:
    1.3e-12 at Binomial(10^6, 0.01), k = 13072.  Within the window
    |v| >= 1/2 only where x < 1,800, so there x 2^-53 < 2e-13."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    mean, rest, slope, intercept = means
    body = 0.0
    for x, m in ((float(k), mean), (float(n - k), rest)):
        diff = x - m
        v = diff / (x + m)
        if abs(v) < 0.5:
            w = v * v
            acc, power, odd = 0.0, w, 3.0
            while power > 2.0**-56 * w:
                acc += power / odd
                power *= w
                odd += 2.0
            bd0 = (acc * x * 2.0 + diff) * v
        elif min(mean, rest) < 1.0:
            bd0 = (math.log(x) - math.log(m)) * x + (m - x)
        else:
            bd0 = math.log(x / m) * x + (m - x)
        body += _stirlerr(int(x)) + bd0
    body += math.log((2.0 * math.pi / n) * k * (n - k)) * 0.5
    return k * slope + intercept - body


def _first(lo: int, hi: int, predicate) -> int:
    """First j in [lo, hi) where predicate holds, else hi; predicate must be
    false up to some j and true from there."""
    return lo + bisect_left(range(lo, hi), True, key=predicate)


def _window(n: int, p: float) -> tuple[int, int]:
    """First and last k with n KL(k/n || p) <= _WINDOW_NATS, n > 0, 0 < p < 1.

    The exponent is convex in k with its minimum at n p, so the window is an
    interval around floor(n p) and each edge is where the exponent crosses
    _WINDOW_NATS on one side.  Newton steps on the exponent over real k,
    from the normal approximation's edge, estimate each crossing; reads of
    the exponent at the integers on either side certify it, and where they
    do not, the edge is a bisection over the whole side.  The edges are
    those of that bisection wherever its reads are monotone.
    """
    centre = min(int(n * p), n)
    # differences of logs: k / (n p) overflows for a subnormal p
    log_mean, log_rest = math.log(n * p), math.log(n * (1.0 - p))

    def outside(k: int) -> bool:
        exponent = k * (math.log(k) - log_mean) if k > 0 else 0.0
        if k < n:
            exponent += (n - k) * (math.log(n - k) - log_rest)
        return exponent > _WINDOW_NATS

    def crossing(x: float, bound: float) -> float:
        """Newton from x towards the crossing on bound's side of n p, a step
        that would leave (0, n) halved towards bound instead."""
        for _ in range(30):
            log_x, log_y = math.log(x), math.log(n - x)
            slope = (log_x - log_mean) - (log_y - log_rest)
            if slope == 0.0:
                break
            exponent = x * (log_x - log_mean) + (n - x) * (log_y - log_rest)
            step = (exponent - _WINDOW_NATS) / slope
            if not 0.0 < x - step < n:
                step = (x - bound) / 2.0
            x -= step
            if abs(step) < 0.25:  # the error is now far below a step
                break
        return x

    spread = math.sqrt(2.0 * _WINDOW_NATS * n * p * (1.0 - p))
    first, last = 0, n  # small tables often lie whole inside the window
    if outside(0):
        first = math.ceil(crossing(max(n * p - spread, 0.5 * n * p), 0.0))
        if not (0 < first <= centre and outside(first - 1) and not outside(first)):
            first = _first(0, centre + 1, lambda k: not outside(k))
    if outside(n):
        last = math.floor(crossing(min(n * p + spread, 0.5 * (n * p + n)), float(n)))
        if not (centre <= last < n and not outside(last) and outside(last + 1)):
            last = _first(centre, n + 1, outside) - 1
    return first, last


def _split_ratio(num: int, den: int) -> tuple[float, float]:
    """num / den rounded to a float x, and (num / den - x) / x."""
    high = num / den  # int / int rounds once
    top, bottom = high.as_integer_ratio()
    return high, (num * bottom - top * den) / (den * top)


def binomial_pmf(trials: int, success_prob: float) -> Pmf:
    """Binomial(trials, success_prob): Loader's saddle-point form at one
    anchor per 512 entries, a ratio recurrence between them.

    Only the Chernoff window trials * KL(k / trials || p) <= 750 is evaluated
    (its edges from certified Newton steps, _window) and stored, unpadded
    (about 39 sqrt(trials) at p = 1/2).  Every entry outside it is below
    e^-750, under half the smallest subnormal, so the table and its zero
    pattern are those of the full evaluation.

    Method: the log value of Loader's form (_log_dbinom_at) at the anchors
    mode + 512 i, mode = floor((trials + 1) p) clipped to the window; from
    each anchor the 512 entries outward from the mode by one cumulative
    product of the ratios b(k) / b(k - 1) = (n - k + 1) / k * p / q going up
    and b(k) / b(k + 1) = (k + 1) / (n - k) * q / p going down.  Every block
    starts from its anchor times 2^600 and one final multiply scales it
    back, so an entry is rounded into the subnormal range once, at the end.

    p = 1/2 is the exception: exp(_log_dbinom_half) at every entry, the
    tables from before the recurrence, bit for bit, with that function's
    error bound, not the one below.  Those are the stationary laws,
    built once per curve, so it costs little.  Where every table of a
    distance is Binomial(n, 1/2) the distance is 0 and what the searches
    read is rounding; a test of the interval search there fails when the
    tables move by an ulp.

    Error: an entry is within its anchor's error plus at most 512 * 3u,
    about 1.7e-13, from the rounded ratios and products (u = 2^-53).  The
    tests hold entries within 1e-12 relative (plus the smallest subnormal)
    of 40-digit arithmetic at every anchor, next to it and 511 steps out
    from 10^3 to 10^7 trials (at most 2.0e-13 found), and at the mode, 3,
    9 and 20 standard deviations out and the end points up to 10^6 trials.
    """
    check_integer("trials", trials, 0, math.inf)
    p = float(success_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability {p} outside [0, 1]")
    trials = int(trials)
    if trials == 0 or p == 0.0 or p == 1.0:
        return Pmf([1.0], 0 if p == 0.0 else trials, trials + 1)
    lo, hi = _window(trials, p)
    if p == 0.5:
        return Pmf(np.exp(_log_dbinom_half(lo, hi, trials)), lo, trials + 1)
    mode = min(max(int((trials + 1) * p), lo), hi)
    means = _means(trials, p)

    def anchor(k: int) -> float:
        """b(k) 2^600, exactly so while b(k) is a normal float."""
        log_b = _log_dbinom_at(k, trials, p, means)
        if log_b > -708.0:
            return math.ldexp(math.exp(log_b), 600)
        return math.exp(log_b + 600 * math.log(2.0))

    # One row per anchor, the rows going up then those going down: the
    # anchor, then the ratios (top - t) / (bottom + t) * odds at t = 1, 2, ...,
    # odds = p / q going up and q / p going down, each rounded to a float
    # whose relative rest is put back per column as (1 + rest)^t, to first
    # order, with the anchors' scale.  A row past 0 or trials reads a zero
    # ratio there and zeros after it.
    up = range(mode, hi + 1, _BLOCK)
    down = range(mode, lo - 1, -_BLOCK) if mode > lo else range(0)
    num, den = p.as_integer_ratio()
    odds = [_split_ratio(num, den - num)]
    heads = [anchor(k) for k in up]
    if down:  # the mode's anchor heads a row each way; q / p is finite
        heads += [heads[0], *map(anchor, down[1:])]
        odds.append(_split_ratio(den - num, num))
    rows = np.array([
        heads,
        [trials + 1 - k for k in up] + [k + 1 for k in down],
        [*up, *(trials - k for k in down)],
        [odds[0][0]] * len(up) + [odds[-1][0]] * len(down),
    ])
    width = min(max(hi - mode, mode - lo) + 1, _BLOCK)  # one row a side if short
    blocks = np.empty((rows.shape[1], width))
    blocks[:, 0] = rows[0]
    steps = blocks[:, 1:]
    np.subtract(rows[1, :, None], _STEPS[: width - 1], out=steps)
    steps /= rows[2, :, None] + _STEPS[: width - 1]
    steps *= rows[3, :, None]
    np.cumprod(blocks, axis=1, out=blocks)
    scales = np.multiply.outer([rest * 2.0**-600 for _, rest in odds], _COLUMNS[:width])
    scales += 2.0**-600
    blocks[: len(up)] *= scales[0]
    blocks[len(up) :] *= scales[-1]
    flat, split = blocks.ravel(), len(up) * width
    table = np.concatenate((flat[split + mode - lo : split : -1], flat[: hi - mode + 1]))
    return Pmf(table, lo, trials + 1)


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Law of the sum of independent variables with laws a and b.

    Direct convolution of the two windows, placed at the sum of their
    offsets: O(w_a * w_b) multiply-adds over the window widths, and no mass
    dropped.  No FFT, so the result carries no spectral roundoff and tiny
    tail masses survive.
    """
    return Pmf(np.convolve(a.window, b.window), a.offset + b.offset, len(a) + len(b) - 1)


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
    check_time(t)
    return SurvivalPair(
        heavy_survival=math.exp(-params.heavy_rate * t),
        regular_survival=math.exp(-t),
        heavy_flip=_flip(params.heavy_rate, t),
        regular_flip=_flip(1.0, t),
    )


def coordinate_law(count: int, ones_initial: int, rate: float, t: float) -> Pmf:
    """Law of one species' left-urn count at time t.

    count balls with clock rate `rate`, ones_initial of them starting in the
    left urn.  A ball has switched sides with probability f = (1 - e^{-rate t})
    / 2: the law is Binomial(ones_initial, 1 - f), built as Binomial(k, f)
    reversed so that no table reads 1 - f rounded, convolved with
    Binomial(count - ones_initial, f).  When every ball starts on one side the other factor is
    a point mass at 0, and the law is the one table, returned as built.
    """
    check_integer("count", count, 0, math.inf)
    check_integer("ones_initial", ones_initial, 0, count)
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    check_time(t)
    flip = _flip(rate, t)
    if ones_initial == 0:
        return binomial_pmf(count, flip)
    stayed = binomial_pmf(ones_initial, flip).reversed()
    if ones_initial == count:
        return stayed
    return convolve(stayed, binomial_pmf(count - ones_initial, flip))


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


def _aligned(a: Pmf, b: Pmf) -> np.ndarray:
    """a's and b's tables as two rows over the indices of either window, in
    order, less the gap between disjoint windows, where both are zero."""
    lo = min(a.offset, b.offset)
    ends = (a.offset + a.window.size, b.offset + b.window.size)
    gap = max(max(a.offset, b.offset) - min(ends), 0)
    rows = np.zeros((2, max(ends) - lo - gap))
    for row, pmf in zip(rows, (a, b)):
        start = max(pmf.offset - lo - gap, 0)
        row[start : start + pmf.window.size] = pmf.window
    return rows


def tv(a: Pmf, b: Pmf) -> float:
    """Total-variation distance, one half the L1 distance of the windows,
    clamped to 1: a table may keep up to 1e-12 of mass drift without
    renormalising, so on disjoint supports the raw half-sum can pass 1 by
    about 1e-12."""
    pa, pb = _aligned(a, b)
    return min(1.0, 0.5 * float(np.abs(pa - pb).sum()))


def tv_product(x: tuple[Pmf, Pmf], y: tuple[Pmf, Pmf]) -> float:
    """Total-variation distance between two product laws given by factors,
    one half of sum_{a,b} |xr_a xh_b - yr_a yh_b|, without the joint table.

    Threshold form (Neyman-Pearson): for a fixed row a the cell a, b is
    positive exactly when the ratio xh_b / yh_b exceeds yr_a / xr_a.  The
    heavy index is sorted once by that ratio (yh_b = 0 at +inf; a cell with
    xh_b = yh_b = 0 adds nothing wherever it sits), and suffix sums of xh and
    yh in that order give every row's positive part through one searchsorted,
    in O((w_n + w_m) log w_m) time and O(w_n + w_m) memory over the regular
    and heavy window widths of both laws.  Then (1/2) sum |d| = sum d^+ -
    (1/2) sum d, and sum d = (sum xr)(sum xh) - (sum yr)(sum yh) keeps the
    allowed table-mass drift in, as the half-sum has it.  Clamped to [0, 1]:
    that drift, up to 1e-12 per table, can push the raw value about 1e-12
    past either end.
    """
    if len(x[0]) != len(y[0]) or len(x[1]) != len(y[1]):
        raise ValueError("product factors must be over matching state spaces")
    xr, yr = _aligned(x[0], y[0])
    xh, yh = _aligned(x[1], y[1])
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


# Where both laws exceed this floor a point value is a sum of terms above
# 1e-280 / span, none lost to underflow, so ratios of point values are accurate.
# Below it the interval search does not look; what that can misplace is under
# N * 1e-280.
_SEARCH_FLOOR = 1e-280


def _sum_law(x: Pmf, y: Pmf):
    """Point and CDF values of p, the law of the sum of two independent factor
    tables, without the convolved table: (p, p_cdf, first, last, mass).

    p(j) is one dot product of the shorter factor's window against a slice
    of the longer's, reversed and padded with w - 1 zeros at each end, so
    the slice is whole wherever the windows overlap; p_cdf(j) is a dot
    product against the longer's cumulative sums, clipped to the overlap,
    plus the shorter entries whose whole longer window lies at or below j:
    O(w) over the shorter window width w, after O(W) set-up over the longer
    W.  p is zero outside [first, last]; mass is the product of the two
    window sums, each table's allowed mass drift kept in.
    """
    small, large = sorted((x, y), key=lambda f: f.window.size)
    offset, short, long = small.offset + large.offset, small.window, large.window
    width, size = short.size, long.size
    last = offset + width + size - 2
    long_cdf = np.cumsum(long)
    short_cdf = np.cumsum(short)
    # reversed: the long index j - s runs down as the short index s runs up, so
    # p(j) reads padded[last - j : last - j + width]
    padded = np.zeros(size + 2 * (width - 1))
    padded[width - 1 : width - 1 + size] = long[::-1]
    cdf_reversed = long_cdf[::-1].copy()

    def p(j: int) -> float:
        start = last - j
        if not 0 <= start <= last - offset:
            return 0.0
        return float(short.dot(padded[start : start + width]))

    def p_cdf(j: int) -> float:
        k = j - offset
        if k < 0:
            return 0.0
        below = min(k - size + 1, width)  # short entries whose long window lies <= j
        head = float(short_cdf[below - 1] * long_cdf[-1]) if below > 0 else 0.0
        # sum over the overlap s in [a, b] of short[s] * long_cdf[k - s]
        a, b = max(0, k - size + 1), min(width - 1, k)
        if a > b:
            return head
        return head + float(short[a : b + 1] @ cdf_reversed[size - 1 - k + a : size - k + b])

    mass = float(short_cdf[-1] * long_cdf[-1])
    return p, p_cdf, offset, last, mass


def _ratio_peak(ratio, lo: int, hi: int) -> tuple[int, float]:
    """Index and value of the largest ratio(j) over [lo, hi], for a ratio
    that is log-concave before rounding: a Fibonacci search (Kiefer, 1953)
    over the bracket (top, top + large), large a Fibonacci number, points
    past hi reading -1: one new probe per step, ties kept left.  Where the
    ratio is flat within the reads' error the sign of its one-step
    difference is noise; the two probes, a quarter of the bracket apart, see
    the ratio's slope over that distance until the bracket is a few wide.
    """

    def at(j: int) -> float:
        return ratio(j) if j <= hi else -1.0

    small, large = 1, 2
    while large < hi - lo + 2:
        small, large = large, small + large
    top = lo - 1
    a, b = top + large - small, top + small
    at_a, at_b = at(a), at(b)
    while large > 3:
        small, large = large - small, small
        if at_a < at_b:
            top, a, at_a = a, b, at_b
            b = top + small
            at_b = at(b)
        else:
            b, at_b = a, at_a
            a = top + large - small
            at_a = at(a)
    return (b, at_b) if at_a < at_b else (a, at_a)


def _interval_distance(
    regular: Pmf, heavy: Pmf, pi: Pmf, pi_cdf: np.ndarray, pi_lo: int, pi_hi: int
) -> float:
    """Total-variation distance of p, the law of the sum of two independent
    factor tables, from pi = Binomial(N, 1/2) with pi_cdf the cumulative sums
    of its window, pi > _SEARCH_FLOOR exactly on [pi_lo, pi_hi].

    p is a Poisson-binomial law, so by Newton's inequalities p / pi is
    log-concave (Hardy, Littlewood & Polya, Inequalities, 2.22) and
    I = {p > pi} is one interval.  Past pi's floor window p > pi wherever p
    has mass above the floor, so where one look at p just outside that
    window, on the side of p's mode (within 1 of p's mean, Darroch, 1964),
    finds p above the floor, I runs on to 0 or N.  Four cases, on which ends
    run on:
    - both: I is the whole line (then p >= pi across the window, which mass 1
      allows only where p equals pi to rounding);
    - one: I holds an index past that end, so inside the window it is a
      prefix (or a suffix), and one bisection over the window on the sign of
      p - pi finds its other end; where p is below the floor that sign is
      already settled, so p's floor edge is not needed;
    - neither: the search stays where both laws exceed the floor, an
      interval because both are log-concave: p's floor edges are bisected
      from its mode, _ratio_peak finds the peak of p / pi between them, and
      a bisection on each side of the peak the sign change of p - pi.
    With point and CDF values of p from _sum_law, (1/2) sum |p - pi| = p(I) -
    pi(I) - (1/2) (sum p - sum pi), keeping the allowed mass drift in as tv
    does, clamped to [0, 1] as tv_product is.
    """
    p, p_cdf, offset, last, mass = _sum_law(regular, heavy)

    def pi_at(j: int) -> float:
        return pi.window[j - pi.offset]

    def pi_at_most(j: int) -> float:
        k = min(j - pi.offset, pi_cdf.size - 1)
        return float(pi_cdf[k]) if k >= 0 else 0.0

    centre = int(regular.mean() + heavy.mean())
    mode = max(range(max(centre - 1, offset), min(centre + 2, last) + 1), key=p)
    runs_below = pi_lo > offset and p(min(pi_lo - 1, mode)) > _SEARCH_FLOOR
    runs_above = pi_hi < last and p(max(pi_hi + 1, mode)) > _SEARCH_FLOOR
    # I = [lo, hi)
    if runs_below and runs_above:
        lo, hi = 0, len(pi)
    elif runs_below:
        lo, hi = 0, _first(pi_lo, pi_hi + 1, lambda j: p(j) <= pi_at(j))
    elif runs_above:
        lo, hi = _first(pi_lo, pi_hi + 1, lambda j: p(j) > pi_at(j)), len(pi)
    else:
        lo_edge = _first(max(offset, pi_lo), mode, lambda j: p(j) > _SEARCH_FLOOR)
        hi_edge = _first(mode, min(last, pi_hi) + 1, lambda j: p(j) <= _SEARCH_FLOOR) - 1
        lo = hi = lo_edge  # empty until found
        if lo_edge <= hi_edge:
            peak, at_peak = _ratio_peak(lambda j: p(j) / pi_at(j), lo_edge, hi_edge)
            # a quotient of two floats exceeds 1 exactly when p > pi
            if at_peak > 1.0:
                lo = _first(lo_edge, peak, lambda j: p(j) > pi_at(j))
                hi = _first(peak, hi_edge + 1, lambda j: p(j) <= pi_at(j))
    positive = p_cdf(hi - 1) - p_cdf(lo - 1) - (pi_at_most(hi - 1) - pi_at_most(lo - 1))
    drift = mass - float(pi_cdf[-1])
    return min(1.0, max(0.0, positive - 0.5 * drift))


def _half_line_gap(regular: Pmf, heavy: Pmf, pi: Pmf) -> float:
    """Half-line separation P_t(W <= j*) - pi(W <= j*) of p, the law of the
    sum of two independent factor tables from the all-right start, from
    pi = Binomial(N, 1/2), at j* the last j with p(j) > pi(j), clamped to
    [0, 1].

    Each half-line {W <= j} is a single event, so the gap at any j is a
    certified lower bound on total variation; where the search lands decides
    only how tight it is.  It dominates the Chebyshev value, which certifies
    one particular half-line.  Both factor laws lie below their stationary
    binomials in likelihood-ratio order, which convolution of log-concave
    laws keeps (Shaked & Shanthikumar, Stochastic Orders, 1.C): p / pi is
    non-increasing, so p - pi changes sign once, at j*, where the CDF gap
    peaks, and the gap there is the exact distance from (0, 0).  The gap is
    taken signed: from this start the CDF of p lies above pi's.

    No convolution: from this start no ball starts left, so each factor
    table is one binomial (coordinate_law), and j* is one bisection on
    p(j) <= pi(j) over p's first index to pi's last, p read point by point
    from the two factor tables (_sum_law), O(w log N) over the shorter
    factor's window width w.  It shares the tables with _interval_distance
    but not its search or its reduction, so the lower side of the bounds
    --exact sandwich checks one against the other.
    """
    p, p_cdf, first, _, _ = _sum_law(regular, heavy)

    def pi_at(j: int) -> float:
        return pi.window[j - pi.offset] if j >= pi.offset else 0.0

    crossing = _first(first, pi.offset + pi.window.size, lambda j: p(j) <= pi_at(j)) - 1
    gap = p_cdf(crossing) - float(pi.window[: max(crossing - pi.offset + 1, 0)].sum())
    return min(1.0, max(0.0, gap))


def _initial_states(params: ModelParams, target: str, strategy) -> list[tuple[int, int, bool]]:
    """Starts the target's distance maximises over (strategies as in
    distance_curve), as entries (r, h, mirrored) grouped by r: each stands
    for the start (r, h) and, if mirrored, also (r, m - h).

    "kolmogorov" certifies the all-right start alone: it is (0, 0) under
    every strategy, which it neither validates nor guards.

    The mirror (r, h) -> (n - r, m - h) reverses both factor laws and fixes
    both stationary laws, and relabelling states leaves total variation
    unchanged, so a scan needs r <= n / 2 and h <= m / 2 alone, mirrored
    unless 2 r = n or 2 h = m, where (r, m - h) is (r, h)'s mirror or itself.
    """
    if target == "kolmogorov":
        return [(0, 0, False)]
    if isinstance(strategy, InitialState):
        strategy.validate(params)
        return [(strategy.regular_left, strategy.heavy_left, False)]
    n, m = params.regular_count, params.heavy_count
    if strategy == "corners":
        # The observable's extreme starts (0, 0) and (0, m), the maximisers
        # only empirically.  Audited against a full scan of every start on 108
        # instances: N in {50, 100, 200, 300, 400}, m from 1 to 300 (2 %, 10 %,
        # 25 %, 50 % and 75 % of N, and sqrt N), alpha in {0.1, 0.3, 0.6, 1},
        # at six times from 0.2 to 3 times the cutoff scale max(log n, log m /
        # alpha) / 2.  No start beat them.  The largest scan-minus-corners
        # gaps, up to 3.0e-14, are rounding: recomputed in 40-digit
        # arithmetic, the ten largest favour the corners.
        return [(0, 0, target == "observable" and n > 0 and m > 0)]
    if strategy != "full_scan":
        raise ValueError(f"unknown strategy {strategy!r}")
    count = (n + 1) * (m + 1)
    if count > FULL_SCAN_LIMIT:
        raise CapacityError(
            f"full scan over {count} initial states exceeds the "
            f"{FULL_SCAN_LIMIT} guard"
        )
    return [
        (r, h, 2 * r < n and 2 * h < m) for r in range(n // 2 + 1) for h in range(m // 2 + 1)
    ]


def distance_curve(params: ModelParams, targets: tuple[str, ...], strategy="corners"):
    """The exact curve t -> one value per target at time t: the largest
    distance from stationarity over the chosen starts of the observable
    ("observable") or the pair chain ("chain"), or the half-line gap of the
    observable from (0, 0) ("kolmogorov", _half_line_gap).  targets is a
    tuple, ("chain",) for one target; a bare name is refused.

    strategy: "corners" (default), "full_scan" over every start (guarded), or
    a single InitialState; "corners" and "full_scan" evaluate one start of
    each mirror pair.  For the chain "corners" is the one start (0, 0), the
    exact worst start at every t, N, m and alpha: the configuration chain on
    {0,1}^N is a random walk on Z_2^N, so its distance to uniform is the same
    from every start; from a corner the pair state is a sufficient statistic
    of the configuration law, so the pair distance equals it; from any other
    start the pair law is a projection, which cannot be farther (Levin, Peres
    & Wilmer, Markov Chains and Mixing Times, 2nd ed., section 2.3).  For the
    observable "corners" is (0, 0) and (0, m), the maximisers only
    empirically (audited, not proved).

    Per start, the chain distance is tv_product of the two factor tables.  The
    observable distance needs no convolution of them: from any start W is a
    sum of N independent Bernoullis, so by Newton's inequalities its law over
    Binomial(N, 1/2) is log-concave, the set where it exceeds the stationary
    law is one interval I, and the distance is P_t(I) - pi(I), from two CDF
    values per law at edges found by one bisection where I runs past an end
    of the search window, and otherwise by bisection on each side of the
    ratio's peak, found by a Fibonacci search (_interval_distance).

    Starts and stationary tables are built here, once; "observable" and
    "kolmogorov" share Binomial(N, 1/2).  An evaluation walks the union of
    the targets' starts, sorted so grouped by regular_left: one regular table
    per group, alone alive, and one heavy table per start, read reversed for
    (r, m - h) if some target's entry is mirrored, so at most one heavy table
    and its reversal are alive.  Each target reduces its own starts' tables.
    The corners (0, 0), (0, m) build two tables per time for all targets.
    """
    if isinstance(targets, str):
        raise TypeError(f"targets is a tuple of names: distance_curve(params, ({targets!r},))")
    for target in targets:
        if target not in ("observable", "chain", "kolmogorov"):
            raise ValueError(f"unknown target {target!r}")
    # (r, h) -> [(target index, mirrored)], one entry per target that starts there
    readers: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for i, target in enumerate(targets):
        for r, h, mirrored in _initial_states(params, target, strategy):
            readers.setdefault((r, h), []).append((i, mirrored))
    starts = sorted(readers.items())
    n, m, rate = params.regular_count, params.heavy_count, params.heavy_rate
    if "chain" in targets:
        stationary = stationary_chain(params)
    if "observable" in targets or "kolmogorov" in targets:
        pi = stationary_observed(params)
        above = np.flatnonzero(pi.window > _SEARCH_FLOOR) + pi.offset
        pi_window = (pi, np.cumsum(pi.window), int(above[0]), int(above[-1]))

    def distance(target: str, regular: Pmf, heavy: Pmf) -> float:
        if target == "chain":
            return tv_product((regular, heavy), stationary)
        if target == "observable":
            return _interval_distance(regular, heavy, *pi_window)
        return _half_line_gap(regular, heavy, pi)

    def largest_from(regular: Pmf, group, t: float, largest: list[float]) -> None:
        for (_, h), reads in group:
            heavy = mirror = None  # freed before the next table is built
            heavy = coordinate_law(m, h, rate, t)
            if any(mirrored for _, mirrored in reads):
                mirror = heavy.reversed()
            for i, mirrored in reads:
                largest[i] = max(largest[i], distance(targets[i], regular, heavy))
                if mirrored:
                    largest[i] = max(largest[i], distance(targets[i], regular, mirror))

    def curve(t: float) -> tuple[float, ...]:
        largest = [0.0] * len(targets)
        for r, group in groupby(starts, key=lambda start: start[0][0]):
            largest_from(coordinate_law(n, r, 1.0, t), group, t, largest)
        return tuple(largest)

    return curve


def observed_tv(params: ModelParams, t: float, strategy="corners") -> float:
    """Observable distance at time t: distance_curve(params, ("observable",), strategy)(t)."""
    return distance_curve(params, ("observable",), strategy)(t)[0]


def chain_tv(params: ModelParams, t: float, strategy="corners") -> float:
    """Pair-chain distance at time t: distance_curve(params, ("chain",), strategy)(t),
    by default from (0, 0) alone, the worst start (proved in distance_curve)."""
    return distance_curve(params, ("chain",), strategy)(t)[0]


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
