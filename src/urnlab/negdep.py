"""Negative-dependence certificates for the survival indicators.

Condition on the (uniformly random) placement of the heavy balls and each
ball's "not redrawn yet" indicator becomes a Bernoulli whose rate depends on
its species.  Joint moments over a subset of positions are then hypergeometric
mixtures of the two survival probabilities, and they sit below the matching
product moments: the indicators are negatively dependent.  This module
computes both sides exactly, brute-forces them on small instances, and
evaluates the chi-square of the coupled law that the observable bounds lean
on.

The joint moments J_s = E[x^H y^(s - H)] are the coefficients of
(1 + x z)^m (1 + y z)^n over C(N, s), so they obey the three-term recurrence

    (N - s) J_{s+1} = (x (m - s) + y (n - s)) J_s + x y s J_{s-1},

whose terms are all non-negative going up from J_0 = 1 below the turn
s* = (m x + n y) / (x + y), and going down from J_N = x^m y^n above it, so
each half runs in its stable direction: sizes up to s* cost O(size), sizes
past it O(N).  Against 60-digit sums, x and y taken as the floats they are,
the rows measured within 1.4e-14 relative at every value above 1e-300 on
instances from N = 10^3 to 10^5.  The moment generating function and the
chi-square keep the hypergeometric weights, in log space from Loader's
tables.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .model import CapacityError, ModelParams, check_integer, check_time
from .dist import _log_dbinom_half, survival
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
    half = _log_dbinom_half(0, count // 2, count)
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
    """Heavy-member counts a of a size-subset with nonzero weight and their
    log weights log C(m, a) + log C(n, size - a) - log C(N, size).

    The tables hold log C(c, j) - c log 2, whose powers of 2 cancel between
    the three factors (m + n = N), and log C(N, size) is taken as the log of
    the row's own sum (Vandermonde), so the row sums to 1 in rounding.
    """
    m, n = params.heavy_count, params.regular_count
    first, last = max(0, size - n), min(size, m)
    log_weights = (
        _log_half_binomial(m)[first : last + 1]
        + _log_half_binomial(n)[size - last : size - first + 1][::-1]
    )
    return np.arange(first, last + 1), log_weights - _log_sum_exp(log_weights)


def _scaled_power(base: float, power: int) -> tuple[float, int]:
    """base^power as (mantissa, exponent), for 0 < base <= 1 and power >= 0:
    math.pow of base's mantissa on chunks of the power short enough to stay
    above 2^-1000, so the result is within about an ulp per chunk, where
    repeated squaring would lose up to power ulps."""
    mantissa, exponent = math.frexp(base)
    chunk = max(1, int(1000.0 / -math.log2(mantissa)))
    value, scale = 1.0, exponent * power
    while power:
        step = min(chunk, power)
        value, shift = math.frexp(value * math.pow(mantissa, step))
        scale += shift
        power -= step
    return value, scale


def _moments_up(m: int, n: int, x: float, y: float, last: int) -> list[float]:
    """J_1 .. J_last by the recurrence run up from J_{-1} = 0 and J_0 = 1, for
    last <= s*; its first step gives J_1 = (m x + n y) / N, mean_z's own
    arithmetic.

    Below s* the coefficient x (m - s) + y (n - s) is at least x + y and both
    terms are non-negative, so no step cancels.  The moments only fall (from
    1), so plain floats suffice: a term that underflows is off by at most
    2^-1074 absolute, below any moment above 1e-300 by 24 orders.
    """
    total = m + n
    low, high = 0.0, 1.0
    moments = []
    for s in range(last):
        # y * (s * low) rather than one x * y: a product rounded once would
        # bias every step the same way
        low, high = high, ((x * (m - s) + y * (n - s)) * high + x * (y * (s * low))) / (total - s)
        moments.append(high)
    return moments


def _moments_down(m: int, n: int, x: float, y: float, first: int) -> list[float]:
    """J_N .. J_first by the recurrence run down from J_{N+1} = 0 and
    J_N = x^m y^n, for first > s* and 0 < y <= x; its first step gives
    J_{N-1} = J_N (m / x + n / y) / N.

    Each moment is carried as its own (mantissa, exponent), since one step
    can grow a moment by up to about N / y.  A step divides by s, by x's
    mantissa and by y's in turn, never by one product x y, which can
    underflow and, rounded once, would bias every step alike.  Above s* the
    coefficient x (s - m) + y (s - n) is at least x + y, so no step cancels.
    """
    total = m + n
    x_mantissa, x_exponent = math.frexp(x)
    y_mantissa, y_exponent = math.frexp(y)
    (heavy, heavy_exp), (regular, regular_exp) = _scaled_power(x, m), _scaled_power(y, n)
    high, high_exp = 0.0, 0
    low, low_exp = math.frexp(heavy * regular)
    low_exp += heavy_exp + regular_exp
    moments = [math.ldexp(low, low_exp)]
    for s in range(total, first, -1):
        step = (x * (s - m) + y * (s - n)) * low
        step += (total - s) * math.ldexp(high, high_exp - low_exp)
        value, exp = math.frexp(step / s / x_mantissa / y_mantissa)
        high, high_exp = low, low_exp
        low, low_exp = value, low_exp + exp - x_exponent - y_exponent
        moments.append(math.ldexp(low, low_exp))
    return moments


def _joint_moments(params: ModelParams, t: float, sizes: range) -> list[float]:
    """joint_moment of every size in `sizes` (1 <= start < stop <= N + 1).

    Sizes up to the turn s* come from the upward run (O(stop)), the rest from
    the downward run from N (O(N - start), walked only if stop - 1 > s*).  A
    moment is the same steps whatever the range, so each equals its one-size
    call bit for bit.  A regular survival that underflows to 0 makes
    J_s = x^s P(H = s), 0 past m, and the turn is set to m exactly (the
    rounded s* need not land on it).  The step to J_1 has no second term and
    cannot cancel, so the upward run always supplies J_1, even where s* < 1
    (m = 0 and y << x).
    """
    m, n = params.heavy_count, params.regular_count
    pair = survival(params, t)
    x, y = pair.heavy_survival, pair.regular_survival
    turn = max(1, m if y == 0.0 else int((m * x + n * y) / (x + y)))
    last = sizes.stop - 1
    moments = []
    if sizes.start <= turn:
        moments = _moments_up(m, n, x, y, min(last, turn))[sizes.start - 1 :]
    if last > turn:
        first = max(sizes.start, turn + 1)
        if y == 0.0:
            moments += [0.0] * (last - first + 1)
        else:
            moments += _moments_down(m, n, x, y, first)[::-1][: last - first + 1]
    return moments


def joint_moment(params: ModelParams, t: float, size: int) -> float:
    """E[product of `size` survival indicators] under the exchangeable placement.

    Conditioning on how many of the subset's members are heavy (a
    hypergeometric count) gives
        J_size = sum_a C(m, a) C(n, size - a) / C(N, size) * x^a y^(size - a)
    with x, y the heavy and regular survivals.  This is the one-size call of
    the recurrence rows that verify_negative_dependence computes
    (_joint_moments): up from J_0 in O(size) steps when size <= s*, down from
    J_N in O(N - size) otherwise, within 1.4e-14 relative as measured (see
    the module docstring).
    """
    check_integer("size", size, 1, params.total_balls)
    check_time(t)
    return _joint_moments(params, t, range(size, size + 1))[0]


def _brute_force_fits(params: ModelParams) -> bool:
    """C(N, m) <= BRUTE_FORCE_LIMIT, decided without building C(N, m): C(N, i)
    does not decrease for i <= N / 2, so the products C(N, i) for i up to
    min(m, N - m) stop at the first one past the limit."""
    total = params.total_balls
    placements = 1
    for i in range(min(params.heavy_count, total - params.heavy_count)):
        placements = placements * (total - i) // (i + 1)
        if placements > BRUTE_FORCE_LIMIT:
            return False
    return True


def brute_force_joint_moment(params: ModelParams, t: float, size: int) -> float:
    """Same moment by enumerating every heavy placement with equal weight.

    Exponential in the instance size, so guarded at C(N, m) <= 10^6
    placements.  Used as the independent cross-check for joint_moment.
    """
    check_integer("size", size, 1, params.total_balls)
    if not _brute_force_fits(params):
        raise CapacityError(
            f"C({params.total_balls}, {params.heavy_count}) heavy placements exceed "
            f"the {BRUTE_FORCE_LIMIT} guard"
        )
    placements = math.comb(params.total_balls, params.heavy_count)
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

    The joint column is _joint_moments over the whole range: the recurrence
    run up from J_0 to min(max_size, s*), O(max_size), and, only when
    max_size > s*, run down from J_N to s* + 1, O(N), in pure Python on
    floats; every row equals joint_moment at its size bit for bit, and row 1
    equals mean_z, so its slack is 0.  Within 1.4e-14 relative of 60-digit
    sums as measured (module docstring); the joint column of all 10^5 rows of
    (10^5, 10^4, 0.2) at t = 1 takes about 36 ms on a 2-vCPU Xeon VM, the
    whole report about 0.2 s.

    brute_force: "auto" adds the enumeration column when C(N, m) fits the
    guard, "never" skips it, "always" demands it (CapacityError if too big).
    """
    check_integer("max_size", max_size, 1, params.total_balls)
    if brute_force not in ("auto", "never", "always"):
        raise ValueError(f"unknown brute_force mode {brute_force!r}")
    use_brute = brute_force == "always" or (brute_force == "auto" and _brute_force_fits(params))
    z = mean_z(params, t)
    rows = []
    brute_max_error = 0.0 if use_brute else None
    joints = _joint_moments(params, t, range(1, max_size + 1))
    for size, joint in enumerate(joints, start=1):
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
