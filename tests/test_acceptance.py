"""Acceptance suite: nine numbered criteria, one test per criterion.

Each test prints an `ACCEPTANCE n: PASS/FAIL` line with the measured numbers
(collected again in the terminal summary) and then asserts.  Tolerances and
instance choices are part of the package contract and are pinned here, not
derived from the code under test.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from urnlab import (
    InitialState,
    ModelParams,
    ParamFamily,
    bounds,
    dist,
    mc,
    mixing_time,
    negdep,
    parse_alpha_rule,
    parse_m_rule,
    predicted_times,
    product_condition_ratio,
)


def test_criterion_1_generator_oracle_equivalence(acceptance):
    """Exact laws vs the matrix exponential of the explicit generator.

    All N <= 8, every heavy count, three rates, four times, every start:
    observed and chain laws must agree entrywise within 1e-9.
    """
    worst = 0.0
    cases = 0
    for n_balls in range(2, 9):
        for m in range(1, n_balls):
            n = n_balls - m
            for alpha in (0.25, 0.5, 1.0):
                params = ModelParams(n_balls, m, alpha)
                gen = oracles.generator_matrix(n, m, alpha)
                for t in (0.1, 0.5, 1.0, 3.0):
                    transition = expm(gen * t)
                    for r in range(n + 1):
                        for h in range(m + 1):
                            init = InitialState(r, h)
                            row = transition[r * (m + 1) + h]
                            joint_ref = row.reshape(n + 1, m + 1)
                            reg, heavy = dist.chain_law(params, init, t)
                            joint_gap = np.abs(
                                np.outer(reg.probs, heavy.probs) - joint_ref
                            ).max()
                            obs_ref = np.zeros(n_balls + 1)
                            for a in range(n + 1):
                                obs_ref[a : a + m + 1] += joint_ref[a]
                            obs_gap = np.abs(
                                dist.observed_law(params, init, t).probs - obs_ref
                            ).max()
                            worst = max(worst, joint_gap, obs_gap)
                            cases += 1
    ok = worst <= 1e-9
    acceptance(
        1,
        ok,
        f"observed and chain laws match the generator exponential over "
        f"{cases} start/time cases, worst entry gap {worst:.3g} (tol 1e-9)",
    )
    assert ok


def test_criterion_2_negative_dependence_exhaustive(acceptance):
    """Joint moments never exceed product moments, brute force agrees.

    All N <= 10, every heavy count, every subset size, with t = 0 added to
    the pinned time grid so each equality family (alpha = 1, t = 0,
    size = 1) is exercised.
    """
    min_slack = math.inf
    worst_brute = 0.0
    worst_equality = 0.0
    cases = 0
    for n_balls in range(2, 11):
        for m in range(0, n_balls + 1):
            for alpha in (0.2, 0.7, 1.0):
                params = ModelParams(n_balls, m, alpha)
                for t in (0.0, 0.3, 1.0, 3.0):
                    report = negdep.verify_negative_dependence(
                        params, t, n_balls, brute_force="always"
                    )
                    min_slack = min(min_slack, report.min_slack)
                    worst_brute = max(worst_brute, report.brute_max_error)
                    equality = alpha == 1.0 or t == 0.0
                    for row in report.rows:
                        cases += 1
                        if equality or row.size == 1:
                            worst_equality = max(worst_equality, abs(row.slack))
    ok = min_slack >= -1e-12 and worst_brute <= 1e-12 and worst_equality <= 1e-12
    acceptance(
        2,
        ok,
        f"{cases} subset checks: min slack {min_slack:.3g} (>= -1e-12), "
        f"worst brute-force gap {worst_brute:.3g} (<= 1e-12), worst equality "
        f"deviation {worst_equality:.3g} (<= 1e-12)",
    )
    assert ok


def test_criterion_3_bound_sandwich(acceptance):
    """cheb <= kolm <= exact <= l2 and chain_tv <= chain bound, N = 1000."""
    grid = np.geomspace(0.05, 30.0, 60)
    worst_breach = 0.0
    cases = 0
    for m in (1, 31, 250):
        for alpha in (0.1, 0.5, 0.9):
            params = ModelParams(1000, m, alpha)
            for t in grid:
                cheb = bounds.chebyshev_lower_bound(params, t)
                kolm = bounds.kolmogorov_lower_bound(params, t)
                exact = dist.observed_tv(params, t)
                l2 = bounds.l2_upper_bound(params, t)
                chain_exact = dist.chain_tv(params, t)
                chain_ub = bounds.product_chain_upper_bound(params, t)
                worst_breach = max(
                    worst_breach,
                    cheb - kolm,
                    kolm - exact,
                    exact - l2,
                    chain_exact - chain_ub,
                )
                cases += 1
    ok = worst_breach <= 1e-9
    acceptance(
        3,
        ok,
        f"sandwich held at {cases} grid points across 9 instances, worst "
        f"breach {worst_breach:.3g} (tol 1e-9)",
    )
    assert ok


def test_criterion_4_classical_cutoff(acceptance):
    """Sharp transition at t^R = (1/2) log N for the near-classical urn."""
    params = ModelParams(10_000, 1, 1.0)
    t_r = predicted_times(params).regular_cutoff
    before = dist.observed_tv(params, t_r - 4.0)
    after = dist.observed_tv(params, t_r + 4.0)
    ok = before >= 0.98 and after <= 0.02
    acceptance(
        4,
        ok,
        f"D(t^R - 4) = {before:.6f} (>= 0.98), D(t^R + 4) = {after:.6f} "
        f"(<= 0.02) at t^R = {t_r:.4f}",
    )
    assert ok


def test_criterion_5_delayed_cutoff(acceptance):
    """Transition at the delayed time t^dc, plus the located mixing time.

    The lower edge t^dc - 4/alpha is negative for this instance, so the exact
    curve is evaluated at the clamp max(0, .); the distance there still
    certifies the left side of the window.
    """
    params = ModelParams(10_000, 1000, 0.2)
    t_dc = predicted_times(params).delayed_cutoff
    window = 4.0 / params.heavy_rate
    before = dist.observed_tv(params, max(0.0, t_dc - window))
    after = dist.observed_tv(params, t_dc + window)
    result = mixing_time(params, 0.25)
    inside = t_dc - window <= result.time <= t_dc + window
    ok = before >= 0.98 and after <= 0.02 and inside
    acceptance(
        5,
        ok,
        f"D(max(0, t^dc - 4/a)) = {before:.6f} (>= 0.98), D(t^dc + 4/a) = "
        f"{after:.6f} (<= 0.02), mixing time {result.time:.4f} in "
        f"[{t_dc - window:.4f}, {t_dc + window:.4f}]",
    )
    assert ok


def test_criterion_6_no_cutoff_window(acceptance):
    """No-cutoff family: slow decay over whole relaxation times, and the
    product-condition contrast with the regime-5 family.

    Window: on the no-cutoff instance N = 10^4, m = 272 = round(e sqrt N),
    alpha = 1/log N, the exact distance at C * t_rel must match the limit
    profile 2 Phi((m / sqrt N) e^{-C} / 2) - 1 of `oracles.no_cutoff_profile`
    within 1 % relative for every C in 2..10: it loses a factor e per
    relaxation time and does not depend on N, so no fixed floor holds out to
    C = 10 at any size.

    Ratios: the no-cutoff family (sqrtexp:1,2 / invlog:1) and the regime-5
    family (power:0.75 / const:0.2) are each taken at N = 10^3 and 10^4.
    The product-condition ratio t_mix(1/4) / t_rel is a chain quantity, and
    both chains have cutoff because the heavy count diverges: the chain
    mixes within a bounded shift of t^H = log m / (2 alpha), so the ratio
    grows like (1/2) log m, and its growth must be within 5 % of
    (1/2) log(m_2 / m_1) for each family.  The observable separates them:
    the no-cutoff ratio t_mix^obs(1/4) / t_rel moves by at most 0.05, the
    regime-5 one grows by at least 0.4.
    """
    no_cutoff = ParamFamily(
        parse_m_rule("sqrtexp:1,2"), parse_alpha_rule("invlog:1"), (1_000, 10_000)
    )
    regime5 = ParamFamily(
        parse_m_rule("power:0.75"), parse_alpha_rule("const:0.2"), (1_000, 10_000)
    )

    params = no_cutoff.instances()[-1]
    assert params == ModelParams(10_000, 272, 1.0 / math.log(10_000))
    assert regime5.instances()[-1] == ModelParams(10_000, 1000, 0.2)
    t_rel = params.relaxation_time
    window = {
        c: (
            dist.observed_tv(params, c * t_rel),
            oracles.no_cutoff_profile(params.total_balls, params.heavy_count, c),
        )
        for c in range(2, 11)
    }
    profile_gap = max(abs(d / p - 1.0) for d, p in window.values())
    window_ok = profile_gap <= 0.01

    def ratios(family):
        small, large = family.instances()
        chain = [product_condition_ratio(p) for p in (small, large)]
        obs = [mixing_time(p, 0.25).time / p.relaxation_time for p in (small, large)]
        predicted = 0.5 * math.log(large.heavy_count / small.heavy_count)
        return chain, obs, predicted

    nc_chain, nc_obs, nc_pred = ratios(no_cutoff)
    r5_chain, r5_obs, r5_pred = ratios(regime5)
    nc_growth = nc_chain[1] - nc_chain[0]
    r5_growth = r5_chain[1] - r5_chain[0]
    chain_ok = (
        abs(nc_growth / nc_pred - 1.0) <= 0.05
        and abs(r5_growth / r5_pred - 1.0) <= 0.05
    )
    nc_move = nc_obs[1] - nc_obs[0]
    r5_move = r5_obs[1] - r5_obs[0]
    obs_ok = abs(nc_move) <= 0.05 and r5_move >= 0.4

    ok = window_ok and chain_ok and obs_ok
    pairs = ", ".join(f"{c}: {d:.6g}/{p:.6g}" for c, (d, p) in window.items())
    acceptance(
        6,
        ok,
        f"D(C t_rel)/profile {{{pairs}}}, worst |ratio - 1| {profile_gap:.2g} "
        f"(<= 0.01); chain ratio growth no-cutoff {nc_chain[0]:.4f} -> "
        f"{nc_chain[1]:.4f} = {nc_growth:.4f} vs 1/2 log(m2/m1) = {nc_pred:.4f}, "
        f"regime-5 {r5_chain[0]:.4f} -> {r5_chain[1]:.4f} = {r5_growth:.4f} vs "
        f"{r5_pred:.4f} (within 5 %); observable ratio no-cutoff "
        f"{nc_obs[0]:.4f} -> {nc_obs[1]:.4f} (moves <= 0.05), regime-5 "
        f"{r5_obs[0]:.4f} -> {r5_obs[1]:.4f} (grows >= 0.4)",
    )
    assert ok


def test_criterion_7_chi_square_equality_case(acceptance):
    """The chi-square identity is tight for iid species, strict otherwise."""
    iid = ModelParams(6, 2, 1.0)
    z = math.exp(-1.0)
    product_form = (1.0 + z * z) ** 6 - 1.0
    equality_gap = abs(negdep.exact_chi_square(iid, 1.0) - product_form)

    mixed = ModelParams(6, 2, 0.5)
    s_reg = math.exp(-1.0)
    s_heavy = math.exp(-0.5)
    bound = (1.0 + s_heavy**2) ** 2 * (1.0 + s_reg**2) ** 4 - 1.0
    strict_gap = bound - negdep.exact_chi_square(mixed, 1.0)

    ok = equality_gap <= 1e-10 and strict_gap >= 1e-6
    acceptance(
        7,
        ok,
        f"iid equality gap {equality_gap:.3g} (<= 1e-10), mixed-rate strict "
        f"gap {strict_gap:.6g} (>= 1e-6)",
    )
    assert ok


def test_criterion_8_monte_carlo_consistency(acceptance):
    """Coupled sampler vs exact law, and coupled vs event-driven sampler."""
    params = ModelParams(500, 50, 0.3)
    init = InitialState(0, 0)
    batch = mc.sample_batch(params, init, 3.0, 1_000_000, seed=2026)
    totals = batch.outcomes.sum(axis=1)
    mean, var = dist.observable_mean_variance(params, 3.0)
    mean_gap = abs(float(totals.mean()) - mean)
    mean_tol = 4.0 * math.sqrt(var / batch.count)
    tv_gap = dist.tv(mc.empirical_pmf(batch), dist.observed_law(params, init, 3.0))

    small = ModelParams(6, 2, 0.5)
    coupled = mc.sample_batch(small, init, 0.8, 200_000, seed=11)
    ctmc = mc.sample_batch(small, init, 0.8, 200_000, seed=12, sampler="ctmc")
    two_sample = dist.tv(mc.empirical_pmf(coupled), mc.empirical_pmf(ctmc))

    ok = mean_gap <= mean_tol and tv_gap <= 0.05 and two_sample <= 0.02
    acceptance(
        8,
        ok,
        f"mean gap {mean_gap:.5f} (<= 4 SE = {mean_tol:.5f}), empirical TV "
        f"{tv_gap:.5f} (<= 0.05), coupled-vs-event-driven TV {two_sample:.5f} "
        f"(<= 0.02)",
    )
    assert ok


def test_criterion_9_chain_regimes(acceptance):
    """Full-chain transitions: classical window and the delayed certificate."""
    fast = ModelParams(10_000, 10, 0.9)
    t_r = predicted_times(fast).regular_cutoff
    before = dist.chain_tv(fast, t_r - 3.0)
    after = dist.chain_tv(fast, t_r + 3.0)

    delayed = ModelParams(10_000, 1000, 0.2)
    t_h = predicted_times(delayed).heavy_cutoff
    certificate = bounds.product_chain_upper_bound(
        delayed, t_h + 4.0 / delayed.heavy_rate
    )

    ok = before >= 0.9 and after <= 0.1 and certificate <= 0.03
    acceptance(
        9,
        ok,
        f"chain D(t^R - 3) = {before:.6f} (>= 0.9), chain D(t^R + 3) = "
        f"{after:.6f} (<= 0.1), delayed chain certificate at t^H + 4/a = "
        f"{certificate:.6f} (<= 0.03)",
    )
    assert ok
