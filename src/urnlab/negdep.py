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
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .model import CapacityError, ModelParams, check_integer, check_time
from .dist import _log_dbinom_half, survival
from .bounds import coupling_union_bound

BRUTE_FORCE_LIMIT = 10**6
SLACK_TOL = -1e-12
_BLOCK_TERMS = 2**13  # hypergeometric terms per block of rows


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


def _weight_blocks(
    params: ModelParams, sizes: range
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Hypergeometric log weights of every size in `sizes`, in blocks.

    Row `size` holds the heavy-member counts a of a size-subset with nonzero
    weight and their log weights log C(m, a) + log C(n, size - a) - log C(N, size).
    The rows are laid end to end and cut into blocks of consecutive sizes
    holding at most _BLOCK_TERMS terms (a longer row is a block of its own),
    so a block's arrays hold at most _BLOCK_TERMS entries or one row however
    many rows there are; each block is (row lengths, a, size - a, log
    weights), the last three flat.

    The tables hold log C(c, j) - c log 2, whose powers of 2 cancel between
    the three factors (m + n = N), and log C(N, size) is taken as the log of
    the row's own sum (Vandermonde), so each row sums to 1 in rounding.  That
    sum is one np.sum over the row's slice, the order it has on a row alone
    (np.add.reduceat's is not); every other step is elementwise, so a row's
    bits do not depend on the rows beside it.
    """
    m, n = params.heavy_count, params.regular_count
    heavy_table, regular_table = _log_half_binomial(m), _log_half_binomial(n)
    all_sizes = np.arange(sizes.start, sizes.stop)
    all_firsts = np.maximum(all_sizes - n, 0)
    all_lengths = np.minimum(all_sizes, m) - all_firsts + 1
    ends = np.cumsum(all_lengths)
    lo = 0
    while lo < all_sizes.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _BLOCK_TERMS, side="right")))
        lengths = all_lengths[lo:hi]
        starts = np.cumsum(lengths) - lengths
        # a = first + column, the column counted from the row's start
        heavy = np.repeat(all_firsts[lo:hi] - starts, lengths)
        heavy += np.arange(heavy.size)
        regular = np.repeat(all_sizes[lo:hi], lengths)
        regular -= heavy
        log_weights = heavy_table[heavy]
        log_weights += regular_table[regular]
        # table entries are finite (>= -c log 2), so every row's top is too
        tops = np.maximum.reduceat(log_weights, starts)
        scaled = log_weights - np.repeat(tops, lengths)
        np.exp(scaled, out=scaled)
        norms = [
            top + math.log(float(scaled[start : start + length].sum()))
            for top, start, length in zip(tops.tolist(), starts.tolist(), lengths.tolist())
        ]
        log_weights -= np.repeat(norms, lengths)
        yield lengths, heavy, regular, log_weights
        lo = hi


def _hypergeometric_log_weights(
    params: ModelParams, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-member counts a of a size-subset with nonzero weight and their
    log weights: the one-row call of _weight_blocks."""
    ((_, support, _, log_weights),) = _weight_blocks(params, range(size, size + 1))
    return support, log_weights


def _joint_moments(params: ModelParams, t: float, sizes: range) -> np.ndarray:
    """joint_moment of every size in `sizes`, one _weight_blocks block at a time.

    Each term is a scalar math.exp (np.exp moves the last bit of some), and
    each row sums its terms left to right: the block's terms are laid in a
    zero-padded rows x longest-row grid, whose cumulative sum along a row is
    that sequential sum, trailing zeros adding nothing.
    """
    heavy_decay = params.heavy_rate * t
    moments = np.empty(len(sizes))
    row = 0
    for lengths, heavy, regular, log_terms in _weight_blocks(params, sizes):
        log_terms -= heavy_decay * heavy
        log_terms -= t * regular
        grid = np.zeros((lengths.size, int(lengths.max())))
        grid[np.arange(grid.shape[1]) < lengths[:, None]] = np.fromiter(
            map(math.exp, log_terms.tolist()), float, log_terms.size
        )
        moments[row : row + lengths.size] = np.cumsum(grid, axis=1, out=grid)[:, -1]
        row += lengths.size
    return moments


def joint_moment(params: ModelParams, t: float, size: int) -> float:
    """E[product of `size` survival indicators] under the exchangeable placement.

    Conditioning on how many of the subset's members are heavy (a
    hypergeometric count) gives
        sum_a C(m, a) C(n, size - a) / C(N, size) * x^a y^(size - a)
    with x, y the heavy and regular survivals.  Weights are evaluated in log
    space from Loader's tables (dist._log_dbinom_half), so the formula
    stays usable at large N.  This is the one-row call of the blocked rows
    that verify_negative_dependence computes (_joint_moments): each term is
    math.exp of its log and the terms are summed left to right, so a row's
    bits do not depend on the rows computed beside it.
    """
    check_integer("size", size, 1, params.total_balls)
    check_time(t)
    return float(_joint_moments(params, t, range(size, size + 1))[0])


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

    The joint column is _joint_moments over the whole range: rows laid end to
    end in blocks of at most _BLOCK_TERMS terms, every elementwise step done
    per block, each row's normaliser one np.sum over its slice and each
    moment a left-to-right sum of math.exp terms, so every row equals
    joint_moment at its size bit for bit.

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
    joints = _joint_moments(params, t, range(1, max_size + 1)).tolist()
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
