"""Independent reference implementations used to pin test expectations.

Everything here recomputes model quantities through a different route than
the package (matrix exponential of the explicit generator, direct bit-level
enumeration in plain floats, 40-digit arithmetic, one freshly built
generator per Monte Carlo draw), so agreement is evidence rather than the
same code tested against itself.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.stats import norm

from urnlab import mc

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


def sample_batch_per_draw(params, init, t: float, count: int, seed: int, sampler: str):
    """(outcomes, event_counts) of a batch, one fresh draw_stream(seed, j) per draw.

    The route sample_batch took before it re-keyed one generator per batch:
    draw j builds its own Philox stream and goes through the public
    sample_coupled or the event-driven draw.  event_counts is None for the
    coupled sampler.
    """
    outcomes = np.empty((count, 2), dtype=np.int64)
    events = np.empty(count, dtype=np.int64) if sampler == "ctmc" else None
    for index in range(count):
        rng = mc.draw_stream(seed, index)
        if sampler == "coupled":
            outcomes[index] = mc.sample_coupled(params, init, t, rng)
        else:
            r_left, h_left, events[index] = mc._ctmc_draw(params, init, t, rng)
            outcomes[index] = (r_left, h_left)
    return outcomes, events
