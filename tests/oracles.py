"""Independent reference implementations used to pin test expectations.

Everything here recomputes model quantities through a different route than
the package (matrix exponential of the explicit generator, direct bit-level
enumeration in plain floats, 40-digit arithmetic, one scalar variate per
Monte Carlo read from substreams built straight from the documented keys,
the count-level event loop the ctmc kernel replaced, the full
convolutions the observable's interval reduction and the half-line bound's
bisection replaced, the bisection the binomial window's Newton estimate
replaced, the per-entry binomial tables the ratio recurrence
replaced, the two-row Loader form the one-row p = 1/2 form
replaced, the argsort-and-reduceat ctmc kernel the packed sort replaced,
the stdlib indent=2 encoder the CLI's one-walk JSON writer
replaced, and the per-size hypergeometric sums the joint moments' three-term
recurrence replaced), so agreement is evidence rather than the same code tested
against itself.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import fields, is_dataclass

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, xlog1py, xlogy
from scipy.stats import norm

from urnlab import dist, mc, negdep
from urnlab.model import InitialState

ORACLE_STATE_LIMIT = 20_000


def generator_matrix(n: int, m: int, alpha: float) -> np.ndarray:
    """Dense generator of the pair chain on states (a, b).

    a regular balls sit in the left urn: each of the n regular balls rings at
    rate 1 and is re-placed by a fair coin, so a -> a - 1 at rate a/2 and
    a -> a + 1 at rate (n - a)/2; the heavy coordinate does the same with
    every rate scaled by alpha.  Ring-and-stay events are self-loops and do
    not appear.
    """
    size = (n + 1) * (m + 1)
    if size > ORACLE_STATE_LIMIT:
        raise ValueError(f"oracle generator would need {size} states")

    def idx(a: int, b: int) -> int:
        return a * (m + 1) + b

    q = np.zeros((size, size))
    for a in range(n + 1):
        for b in range(m + 1):
            i = idx(a, b)
            if a > 0:
                q[i, idx(a - 1, b)] += a / 2.0
            if a < n:
                q[i, idx(a + 1, b)] += (n - a) / 2.0
            if b > 0:
                q[i, idx(a, b - 1)] += alpha * b / 2.0
            if b < m:
                q[i, idx(a, b + 1)] += alpha * (m - b) / 2.0
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def joint_law(n: int, m: int, alpha: float, r: int, h: int, t: float) -> np.ndarray:
    """Time-t law of the pair state from start (r, h), shape (n + 1, m + 1)."""
    transition = expm(generator_matrix(n, m, alpha) * t)
    row = transition[r * (m + 1) + h]
    return row.reshape(n + 1, m + 1)


def observed_law(n: int, m: int, alpha: float, r: int, h: int, t: float) -> np.ndarray:
    """Time-t law of the left-urn total, length n + m + 1."""
    joint = joint_law(n, m, alpha, r, h, t)
    out = np.zeros(n + m + 1)
    for a in range(n + 1):
        for b in range(m + 1):
            out[a + b] += joint[a, b]
    return out


def total_variation(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    width = max(p.size, q.size)
    pp = np.zeros(width)
    qq = np.zeros(width)
    pp[: p.size] = p
    qq[: q.size] = q
    return 0.5 * float(np.abs(pp - qq).sum())


def binomial_pmf_log_gamma(trials: int, p: float) -> np.ndarray:
    """Binomial(trials, p) over the full table through log-gamma, the route
    dist.binomial_pmf replaced: about 1e-11 relative at 10^4 trials and 1e-9
    at 10^6, but every entry evaluated, so its zero pattern is the reference
    for the Chernoff window."""
    k = np.arange(trials + 1, dtype=float)
    log_comb = gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
    return np.exp(log_comb + xlogy(k, p) + xlog1py(trials - k, -p))


def log_dbinom_direct(lo: int, hi: int, n: int, p: float) -> np.ndarray:
    """log Binomial(n, p) pmf at k = lo..hi, 0 <= lo <= hi <= n, 0 < p < 1:
    Loader's form at every entry, general in p, over the rows k and n - k,
    the vector form dist.binomial_pmf used for every p before its ratio
    recurrence, and for p = 1/2 before dist._log_dbinom_half read one row
    at k and at n - k.

    k = 0 and k = n are scalars; the interior k = a..b is one numpy pass over
    the rows k and n - k.  Everything is sliced at arithmetically computed
    bounds: no boolean masks, whose cost dominates on small tables.
    """
    out = np.empty(hi - lo + 1)
    if lo == 0:
        out[0] = n * math.log1p(-p)
    if hi == n:
        out[-1] = n * math.log(p)
    a, b = max(lo, 1), min(hi, n - 1)
    if a > b:
        return out
    mean, rest, slope, intercept = dist._means(n, p)
    k = np.arange(a, b + 1, dtype=float)
    x = np.empty((2, k.size))
    x[0] = k
    np.subtract(n, k, out=x[1])
    means = np.array([[mean], [rest]])

    stirlerr = dist._stirlerr_series(x, min(a, n - b))
    head = max(min(b, 15) - a + 1, 0)  # k <= 15 opens row 0, n - k <= 15 closes row 1
    stirlerr[0, :head] = dist._STIRLERR[a : a + head]
    tail = max(min(n - a, 15) - (n - b) + 1, 0)
    stirlerr[1, k.size - tail :] = dist._STIRLERR[n - b : n - b + tail][::-1]

    # bd0: the direct form, then the series in v = (x - M) / (x + M) over each
    # row's run with |v| < 0.1 (x within (9 M / 11, 11 M / 9)), where the
    # direct form cancels; ten terms reach v^22 < 1e-22.
    if min(mean, rest) < 1.0:
        # x / M can overflow for a tiny M; log x and log M then have opposite
        # signs, so their difference does not cancel.
        bd0 = np.log(x)
        bd0 -= np.log(means)
    else:
        bd0 = np.divide(x, means)
        np.log(bd0, out=bd0)
    bd0 *= x
    bd0 += means - x
    start0 = min(max(math.ceil(mean * 9 / 11), a), b + 1) - a
    stop0 = max(min(math.floor(mean * 11 / 9), b) + 1 - a, start0)
    start1 = min(max(n - math.floor(rest * 11 / 9), a), b + 1) - a
    stop1 = max(min(n - math.ceil(rest * 9 / 11), b) + 1 - a, start1)
    start, stop = min(start0, start1), max(stop0, stop1)
    if start < stop:  # one series over the union of the two runs
        xs = x[:, start:stop]
        diff = xs - means
        v = xs + means
        np.divide(diff, v, out=v)
        w = v * v
        acc = dist._BD0_SERIES[0] * w
        for c in dist._BD0_SERIES[1:-1]:
            acc += c
            acc *= w
        acc += dist._BD0_SERIES[-1]
        # (x - M) v + 2 x v w (1/3 + w/5 + ...)
        acc *= w
        acc *= xs
        acc *= 2.0
        acc += diff
        acc *= v
        bd0[0, start0:stop0] = acc[0, start0 - start : stop0 - start]
        bd0[1, start1:stop1] = acc[1, start1 - start : stop1 - start]

    stirlerr += bd0
    body = stirlerr.sum(axis=0)
    prefactor = (2.0 * math.pi / n) * k
    prefactor *= x[1]
    np.log(prefactor, out=prefactor)
    prefactor *= 0.5
    body += prefactor
    k *= slope
    k += intercept
    k -= body
    out[a - lo : b - lo + 1] = k
    return out


def binomial_pmf_direct(trials: int, p: float) -> np.ndarray:
    """Binomial(trials, p) over the full table, 0 < p < 1, with Loader's form
    at every entry of the Chernoff window (log_dbinom_direct): the route
    dist.binomial_pmf took before its ratio recurrence, and at p = 1/2 the
    one it still takes, there through dist._log_dbinom_half."""
    lo, hi = dist._window(trials, p)
    table = np.zeros(trials + 1)
    table[lo : hi + 1] = np.exp(log_dbinom_direct(lo, hi, trials, p))
    return table


def window_bisection(n: int, p: float) -> tuple[int, int]:
    """First and last k with n KL(k/n || p) <= dist._WINDOW_NATS, 0 < p < 1,
    by the route dist._window took before its Newton estimate: a bisection
    over each whole side of floor(n p) on the same float exponent."""
    centre = min(int(n * p), n)

    def outside(k: int) -> bool:
        exponent = k * (math.log(k) - math.log(n * p)) if k > 0 else 0.0
        if k < n:
            exponent += (n - k) * (math.log(n - k) - math.log(n * (1.0 - p)))
        return exponent > dist._WINDOW_NATS

    def first(lo: int, hi: int, predicate) -> int:
        return lo + bisect_left(range(lo, hi), True, key=predicate)

    lo, hi = 0, n
    if outside(0):
        lo = first(0, centre + 1, lambda k: not outside(k))
    if outside(n):
        hi = first(centre, n + 1, outside) - 1
    return lo, hi


def binomial_pmf_mp(trials: int, p: float, k: int):
    """Binomial(trials, p) pmf at k in 40-digit arithmetic, p taken as the
    exact binary value of the float."""
    with mpmath.workdps(40):
        prob = mpmath.mpf(p)
        return mpmath.binomial(trials, k) * prob**k * (1 - prob) ** (trials - k)


def chain_tv_mp(n: int, m: int, alpha: float, r: int, h: int, t: float) -> float:
    """Pair-chain distance from the start (r, h) in 40-digit arithmetic:
    each factor law convolved from its two binomials, then one half of the
    L1 distance of the outer products from Binomial(n, 1/2) x Binomial(m, 1/2)."""
    with mpmath.workdps(40):

        def binomial(trials, prob):
            return [mpmath.binomial(trials, k) * prob**k * (1 - prob) ** (trials - k)
                    for k in range(trials + 1)]

        def factor(count, left, rate):
            flip = -mpmath.expm1(-mpmath.mpf(rate) * t) / 2
            a, b = binomial(left, 1 - flip), binomial(count - left, flip)
            out = [mpmath.mpf(0)] * (count + 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        regular, heavy = factor(n, r, 1), factor(m, h, alpha)
        half = mpmath.mpf(1) / 2
        regular_eq, heavy_eq = binomial(n, half), binomial(m, half)
        total = mpmath.fsum(
            abs(x * y - u * v)
            for x, u in zip(regular, regular_eq)
            for y, v in zip(heavy, heavy_eq)
        )
        return float(total / 2)


def starts(params, target: str, strategy) -> list[InitialState]:
    """The starts a strategy stands for: each entry (r, h, mirrored) of
    dist._initial_states is the start (r, h) and, if mirrored, (r, m - h)."""
    m = params.heavy_count
    return [
        InitialState(r, left)
        for r, h, mirrored in dist._initial_states(params, target, strategy)
        for left in ((h, m - h) if mirrored else (h,))
    ]


def observable_distance_convolved(params, strategy, t: float) -> float:
    """The observable distance by the route dist.distance_curve took before
    its interval reduction: for each start the two coordinate tables
    convolved in full, then one half of the L1 distance of that law from
    Binomial(N, 1/2), maximised over the starts of `strategy`."""
    n, m, rate = params.regular_count, params.heavy_count, params.heavy_rate
    stationary = dist.stationary_observed(params)
    return max(
        dist.tv(
            dist.convolve(
                dist.coordinate_law(n, s.regular_left, 1.0, t),
                dist.coordinate_law(m, s.heavy_left, rate, t),
            ),
            stationary,
        )
        for s in starts(params, "observable", strategy)
    )


def kolmogorov_lower_bound_convolved(params, t: float) -> float:
    """The half-line bound by the route bounds.kolmogorov_lower_bound took
    before its bisection: the all-right law convolved in full, both CDFs as
    cumulative sums over the indices of either window, and the largest
    absolute gap over every index, clamped to 1."""
    law = dist.observed_law(params, InitialState(0, 0), t)
    cdfs = np.cumsum(dist._aligned(law, dist.stationary_observed(params)), axis=1)
    return min(1.0, float(np.abs(cdfs[0] - cdfs[1]).max()))


def convolve_dense(a, b) -> np.ndarray:
    """Convolution of two probability tables over their full lengths, zero
    entries included: O(len(a) * len(b)) multiply-adds."""
    return np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def tv_product_blocked(xr, xh, yr, yh) -> float:
    """Total variation of the product laws xr x xh and yr x yh, one half of
    the L1 distance of the outer products, summed over 512-row blocks of the
    joint table so the peak memory stays near 512 * len(xh).  Clamped to 1
    like the package's single-table distance.
    """
    xr, xh, yr, yh = (np.asarray(v, dtype=float) for v in (xr, xh, yr, yh))
    block = 512
    total = 0.0
    for start in range(0, xr.size, block):
        stop = min(start + block, xr.size)
        total += float(
            np.abs(np.outer(xr[start:stop], xh) - np.outer(yr[start:stop], yh)).sum()
        )
    return min(1.0, 0.5 * total)


CONFIGURATION_BALL_LIMIT = 12


def configuration_tv(n: int, m: int, alpha: float, t: float) -> float:
    """Total variation of the time-t configuration law on {0,1}^N from uniform.

    From the all-right configuration ball i is left at time t with chance
    (1 - e^{-r_i t}) / 2, independently of the others (r_i = 1 for the n
    regular balls, alpha for the m heavy ones).  Half the L1 distance of that
    product law from 2^-N, enumerated configuration by configuration in
    plain floats and summed exactly (math.fsum): added one by one, the 2^N
    terms drift by 1.05e-13 at n = 12, m = 0, t = 0.2521 against 40 digits,
    3.2e-16 when summed exactly.
    """
    balls = n + m
    if balls > CONFIGURATION_BALL_LIMIT:
        raise ValueError(f"oracle enumeration would need 2^{balls} configurations")
    flips = [(1.0 - math.exp(-t)) / 2.0] * n + [(1.0 - math.exp(-alpha * t)) / 2.0] * m
    uniform = 0.5**balls

    def term(config: int) -> float:
        prob = 1.0
        for i, flip in enumerate(flips):
            prob *= flip if (config >> i) & 1 else 1.0 - flip
        return abs(prob - uniform)

    return 0.5 * math.fsum(term(config) for config in range(2**balls))


def chi_square_mixture(n_balls: int, m: int, alpha: float, ones: int, t: float) -> float:
    """Chi-square of the kept-or-resampled configuration law vs uniform.

    The initial pattern puts `ones` ones in the first positions; the m heavy
    positions are averaged uniformly over all placements.  Enumerates the
    whole cube bit by bit with scalar arithmetic.
    """
    survival_heavy = math.exp(-alpha * t)
    survival_regular = math.exp(-t)
    placements = list(itertools.combinations(range(n_balls), m))
    mass = np.zeros(2**n_balls)
    for placement in placements:
        heavy = set(placement)
        for config in range(2**n_balls):
            prob = 1.0
            for i in range(n_balls):
                s = survival_heavy if i in heavy else survival_regular
                bit = (config >> i) & 1
                initial = 1 if i < ones else 0
                prob *= (1.0 + s) / 2.0 if bit == initial else (1.0 - s) / 2.0
            mass[config] += prob
    mu = mass / len(placements)
    return float(2**n_balls * np.dot(mu, mu) - 1.0)


def chi_square_overlap_mp(n_balls: int, m: int, alpha: float, t: float) -> float:
    """The overlap sum of negdep.exact_chi_square in 40-digit arithmetic.

    Same formula, so it checks rounding, not the derivation (the bit-level
    chi_square_mixture checks that): exact binomial weights of the overlap j
    of two heavy placements, each term a plain product of powers minus 1.
    """
    with mpmath.workdps(40):
        x = mpmath.exp(-mpmath.mpf(alpha) * t)
        y = mpmath.exp(-mpmath.mpf(t))
        total = mpmath.mpf(0)
        for j in range(max(0, 2 * m - n_balls), m + 1):
            weight = mpmath.binomial(m, j) * mpmath.binomial(n_balls - m, m - j)
            power = (
                (1 + x * x) ** j
                * (1 + x * y) ** (2 * (m - j))
                * (1 + y * y) ** (n_balls - 2 * m + j)
            )
            total += weight * (power - 1)
        return float(total / mpmath.binomial(n_balls, m))


def subset_survival_moment(n_balls: int, m: int, alpha: float, t: float, size: int) -> float:
    """E[product of survivals over a fixed size-subset], averaged over placements.

    Third route, independent of both package implementations: iterate the
    placements and multiply scalar survival probabilities for the first
    `size` positions.
    """
    survival_heavy = math.exp(-alpha * t)
    survival_regular = math.exp(-t)
    total = 0.0
    count = 0
    for placement in itertools.combinations(range(n_balls), m):
        heavy = set(placement)
        prod = 1.0
        for i in range(size):
            prod *= survival_heavy if i in heavy else survival_regular
        total += prod
        count += 1
    return total / count


def hypergeometric_log_weights_row(params, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One size's heavy-member counts a and log weights, built alone: the
    slices of negdep's log Binomial(c, 1/2) tables for a and size - a,
    normalised by their own log-sum-exp (the per-size route the blocks replaced)."""
    m, n = params.heavy_count, params.regular_count
    first, last = max(0, size - n), min(size, m)
    support = np.arange(first, last + 1)
    log_terms = (
        negdep._log_half_binomial(m)[first : last + 1]
        + negdep._log_half_binomial(n)[size - last : size - first + 1][::-1]
    )
    top = float(log_terms.max())
    return support, log_terms - (top + math.log(float(np.exp(log_terms - top).sum())))


def joint_moment_loop(params, t: float, size: int) -> float:
    """negdep.joint_moment as a hypergeometric sum, one size at a time (the
    route the three-term recurrence replaced, O(min(size, m)) terms a size):
    the size's own weights, then a scalar left-to-right sum of math.exp terms."""
    support, log_weights = hypergeometric_log_weights_row(params, size)
    log_terms = log_weights - params.heavy_rate * t * support - t * (size - support)
    total = 0.0
    for log_term in log_terms.tolist():
        total += math.exp(log_term)
    return total


def joint_moment_mp(params, t: float, size: int, dps: int = 40):
    """J_size = sum_a C(m, a) C(n, size - a) / C(N, size) x^a y^(size - a) at `dps`
    digits, x and y the survival floats that negdep reads, taken exactly.

    The terms from a = max(0, size - n) up come by their ratio
    (m - a)(size - a) / ((a + 1)(n - size + a + 1)) x / y, so a row of 10^4
    terms takes milliseconds rather than 10^4 binomials.  Returns an mpf.
    """
    m, n = params.heavy_count, params.regular_count
    pair = dist.survival(params, t)
    with mpmath.workdps(dps):
        x, y = mpmath.mpf(pair.heavy_survival), mpmath.mpf(pair.regular_survival)
        first, last = max(0, size - n), min(size, m)
        if y == 0:  # only a = size survives
            if size > m:
                return mpmath.mpf(0)
            return mpmath.binomial(m, size) / mpmath.binomial(m + n, size) * x**size
        term = mpmath.binomial(m, first) * mpmath.binomial(n, size - first)
        term *= x**first * y ** (size - first)
        total = term
        for a in range(first, last):
            term = term * (m - a) * (size - a) / ((a + 1) * (n - size + a + 1)) * x / y
            total += term
        return total / mpmath.binomial(m + n, size)


def no_cutoff_profile(n_balls: int, m: int, c: float) -> float:
    """Limit distance of the left-urn total at C relaxation times, no cutoff.

    With alpha = 1/log N the relaxation time is log N; by C log N the
    regular balls have mixed, and from the all-right start the heavy balls
    still hold the left-urn total (m / 2) e^{-C} below its stationary mean
    N / 2.  The total is asymptotically normal with standard deviation
    sqrt(N) / 2, and two normals of equal spread whose means differ by
    delta are 2 Phi(delta / (2 sigma)) - 1 apart in total variation, so the
    profile is 2 Phi((m / sqrt N) e^{-C} / 2) - 1: a factor e per
    relaxation time, and no N-dependence once m / sqrt N is fixed.
    """
    shift = m / math.sqrt(n_balls) * math.exp(-c)
    return float(2.0 * norm.cdf(shift / 2.0) - 1.0)


BATCH_BLOCK = 65_536


def batch_substreams(seed: int, block: int, kinds) -> tuple:
    """The documented batch substreams of one block: Philox key
    [seed, 16 block + kind] with the counter's top word set to 1."""
    return tuple(
        np.random.Generator(
            np.random.Philox(
                key=np.array([seed, 16 * block + kind], dtype=np.uint64),
                counter=np.array([0, 0, 0, 1], dtype=np.uint64),
            )
        )
        for kind in kinds
    )


def coupled_draw(params, init, t: float, streams) -> tuple[int, int]:
    """One flip-construction draw, one scalar binomial per variate.

    Species s (regular, then heavy) reads the flips of its left starters
    from streams[2s] and of its right starters from streams[2s + 1]; a ball
    flips with probability (1 - e^{-rate t}) / 2.  Given one generator four
    times, this is the draw sample_coupled makes.
    """
    pair = dist.survival(params, t)
    species = (
        (params.regular_count, init.regular_left, pair.regular_flip),
        (params.heavy_count, init.heavy_left, pair.heavy_flip),
    )
    counts = []
    for column, (side_count, initially_left, flip) in enumerate(species):
        from_left, from_right = streams[2 * column : 2 * column + 2]
        stayed = initially_left - int(from_left.binomial(initially_left, flip))
        counts.append(stayed + int(from_right.binomial(side_count - initially_left, flip)))
    return counts[0], counts[1]


def survival_draw(params, init, t: float, streams) -> tuple[int, int]:
    """One survival-construction draw, the coupled sampler's former route,
    kept as a law oracle.

    Per species, balls not yet redrawn (survival e^{-rate t}) stay put and
    the rest land on fair coins: species s (regular, then heavy) reads its
    left survivors, right survivors and coins from streams[3s],
    streams[3s + 1] and streams[3s + 2].
    """
    pair = dist.survival(params, t)
    species = (
        (params.regular_count, init.regular_left, pair.regular_survival),
        (params.heavy_count, init.heavy_left, pair.heavy_survival),
    )
    counts = []
    for column, (side_count, initially_left, keep_prob) in enumerate(species):
        left_rng, right_rng, coin_rng = streams[3 * column : 3 * column + 3]
        left_survivors = left_rng.binomial(initially_left, keep_prob)
        right_survivors = right_rng.binomial(side_count - initially_left, keep_prob)
        undecided = side_count - left_survivors - right_survivors
        counts.append(int(left_survivors) + int(coin_rng.binomial(undecided, 0.5)))
    return counts[0], counts[1]


def ctmc_ball_draw(params, init, t: float, streams) -> tuple[int, int, int]:
    """One event-driven draw at ball level, one scalar variate per read.

    streams[0] gives the Poisson((n + m alpha) t) event count; each event
    reads a species uniform (heavy below the heavy share of the rate,
    streams[1]), a ball uniform (ball int(u count) of that species,
    streams[2]) and a coin uniform (left below 1/2, streams[3]), and sets
    that ball's side.  The first regular_left regular and heavy_left heavy
    balls start left.  Returns (regular_left, heavy_left, events).
    """
    n, m = params.regular_count, params.heavy_count
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    heavy_share = heavy_rate_total / total_rate
    regular = [i < init.regular_left for i in range(n)]
    heavy = [i < init.heavy_left for i in range(m)]
    events = int(streams[0].poisson(total_rate * t))
    for _ in range(events):
        side = heavy if streams[1].random() < heavy_share else regular
        ball = int(streams[2].random() * len(side))
        side[ball] = streams[3].random() < 0.5
    return sum(regular), sum(heavy), events


def batch_scalar(params, init, t: float, count: int, seed: int, sampler: str):
    """(outcomes, event_counts) of sample_batch, element by element.

    Draw j of block j // BATCH_BLOCK goes through coupled_draw (kinds 0-3)
    or ctmc_ball_draw (kinds 6-9) on that block's substreams, which carry on
    from draw to draw.  event_counts is None for the coupled sampler.
    """
    outcomes = np.empty((count, 2), dtype=np.int64)
    events = np.empty(count, dtype=np.int64) if sampler == "ctmc" else None
    kinds = range(0, 4) if sampler == "coupled" else range(6, 10)
    for index in range(count):
        block, offset = divmod(index, BATCH_BLOCK)
        if offset == 0:
            streams = batch_substreams(seed, block, kinds)
        if sampler == "coupled":
            outcomes[index] = coupled_draw(params, init, t, streams)
        else:
            r_left, h_left, events[index] = ctmc_ball_draw(params, init, t, streams)
            outcomes[index] = (r_left, h_left)
    return outcomes, events


def ctmc_count_loop(params, init, t: float, rng) -> tuple[int, int, int]:
    """The count-level event loop the ctmc kernel replaced, as a physical oracle.

    Exponential holding times at total rate n + m alpha; each event picks a
    species in proportion to its rate, takes a uniformly chosen ball of it
    out of its urn and puts it back by a fair coin.  Returns
    (regular_left, heavy_left, events).
    """
    n, m = params.regular_count, params.heavy_count
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    r_left, h_left = init.regular_left, init.heavy_left
    heavy_share = heavy_rate_total / total_rate
    clock, events = 0.0, 0
    while True:
        clock += rng.exponential(1.0 / total_rate)
        if clock > t:
            return r_left, h_left, events
        events += 1
        if rng.random() < heavy_share:
            if rng.random() * m < h_left:
                h_left -= 1
            if rng.random() < 0.5:
                h_left += 1
        else:
            if rng.random() * n < r_left:
                r_left -= 1
            if rng.random() < 0.5:
                r_left += 1


def ctmc_kernel_argsort(params, init, t: float, streams, outcomes, events) -> None:
    """The ctmc block kernel before the packed sort, as a byte oracle: each
    (draw, ball)'s last event in a chunk is one unstable argsort of the keys
    draw (n + m) + ball and np.maximum.reduceat of the event positions over
    the runs of equal sorted keys, and each event's draw one searchsorted
    against all the count chunk's cumulative counts.  It reads mc._CHUNK at
    call time, so a test that patches the chunk size patches it here too.
    """
    chunk = mc._CHUNK
    n, m = params.regular_count, params.heavy_count
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    heavy_share = heavy_rate_total / total_rate
    count_rng, species_rng, ball_rng, coin_rng = streams
    empty = np.empty(0, dtype=np.int64)
    outcomes[:] = (init.regular_left, init.heavy_left)
    for lo in range(0, len(outcomes), chunk):
        counts = count_rng.poisson(total_rate * t, min(chunk, len(outcomes) - lo))
        events[lo : lo + counts.size] = counts
        ends = np.cumsum(counts)
        carried = (empty, empty, empty)
        for first in range(0, int(ends[-1]), chunk):
            stop = min(first + chunk, int(ends[-1]))
            draw = np.searchsorted(ends, np.arange(first, stop), side="right")
            heavy = species_rng.random(stop - first) < heavy_share
            ball = (ball_rng.random(stop - first) * np.where(heavy, m, n)).astype(np.int64)
            ball += heavy * n
            coin = (coin_rng.random(stop - first) < 0.5).astype(np.int64)
            draw, ball, coin = (np.concatenate(pair) for pair in zip(carried, (draw, ball, coin)))
            keys = draw * (n + m) + ball
            order = np.argsort(keys)
            keys = keys[order]
            runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            last = np.maximum.reduceat(order, runs)  # each (draw, ball)'s last event, by key
            draw, ball, coin = draw[last], ball[last], coin[last]
            open_draw = draw[-1]
            cut = np.searchsorted(draw, open_draw) if ends[open_draw] > stop else draw.size
            carried = (draw[cut:], ball[cut:], coin[cut:])
            draw, ball, coin = draw[:cut], ball[:cut], coin[:cut]
            is_heavy = ball >= n
            started_left = np.where(is_heavy, ball - n < init.heavy_left, ball < init.regular_left)
            np.add.at(outcomes, (lo + draw, is_heavy.astype(np.intp)), coin - started_left)


def json_safe(obj):
    """obj ready for json.dumps: a dataclass becomes a dict of its fields in
    declaration order, a list or tuple a list, and a non-finite float its repr
    string ("inf", "-inf", "nan"), which JSON has no number for."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if is_dataclass(obj):
        return {f.name: json_safe(getattr(obj, f.name)) for f in fields(type(obj))}
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(value) for value in obj]
    return obj


def json_text_stdlib(schema: str, config: dict, body) -> str:
    """The CLI's JSON document through the standard library, the writer's
    byte oracle: json_safe, then json.dumps(indent=2, allow_nan=False)."""
    document = {"schema": schema, "config": json_safe(config), **json_safe(body)}
    return json.dumps(document, indent=2, allow_nan=False) + "\n"
