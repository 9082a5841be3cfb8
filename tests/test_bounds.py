import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from urnlab.model import InitialState, ModelParams, predicted_times
from urnlab.bounds import (
    chebyshev_lower_bound,
    clt_lower_bound,
    coupling_union_bound,
    kolmogorov_lower_bound,
    l2_upper_bound,
    product_chain_upper_bound,
)
from urnlab import dist as dist_module
from urnlab.dist import chain_tv, observed_tv


SMALL = ModelParams(4, 2, 0.5)


class TestCouplingBound:
    def test_example_value(self):
        # m e^{-alpha t} + n e^{-t} at N=4, m=2, alpha=1/2, t=2
        expected = 2 * math.exp(-1.0) + 2 * math.exp(-2.0)
        assert coupling_union_bound(SMALL, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_raw_at_zero_is_ball_count(self):
        assert coupling_union_bound(SMALL, 0.0) == 4.0

    def test_monotone_decreasing(self):
        values = [coupling_union_bound(SMALL, t) for t in np.linspace(0, 10, 40)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestL2Bound:
    def test_frozen_example(self):
        assert l2_upper_bound(SMALL, 2.0) == pytest.approx(
            0.26377171242413083, rel=1e-13
        )

    def test_direct_formula(self):
        z = (2 * math.exp(-1.0) + 2 * math.exp(-2.0)) / 4.0
        expected = 0.5 * math.sqrt((1.0 + z * z) ** 4 - 1.0)
        assert l2_upper_bound(SMALL, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_clamped_to_one(self):
        assert l2_upper_bound(ModelParams(1000, 100, 0.5), 0.0) == 1.0

    def test_no_overflow_for_large_n_near_zero(self):
        """N log1p(z^2) is far past expm1's range here; the bound is its clamp."""
        assert l2_upper_bound(ModelParams(2000, 20, 0.5), 0.0) == 1.0

    def test_tight_for_single_species(self):
        """At alpha = 1 the product form is an identity, so the bound squared
        reproduces (1 + z^2)^N - 1 exactly and still dominates the distance."""
        p = ModelParams(64, 16, 1.0)
        t = 3.0
        z = math.exp(-t)
        bound = l2_upper_bound(p, t)
        assert 4 * bound * bound + 1 == pytest.approx((1 + z * z) ** 64, rel=1e-12)
        assert observed_tv(p, t) <= bound + 1e-12


class TestChainBound:
    def test_delayed_instance_value(self):
        p = ModelParams(10000, 1000, 0.2)
        t = predicted_times(p).heavy_cutoff + 4.0 / 0.2
        value = product_chain_upper_bound(p, t)
        direct = math.sqrt(
            2 * 1000 * math.exp(-0.4 * t) + 2 * 10000 * math.exp(-2.0 * t)
        )
        assert value == pytest.approx(direct, rel=1e-12)
        # the heavy term dominates here: essentially sqrt(2 e^{-8})
        assert value == pytest.approx(math.sqrt(2 * math.exp(-8.0)), rel=1e-12)

    def test_clamped_to_one(self):
        assert product_chain_upper_bound(SMALL, 0.0) == 1.0

    def test_dominates_chain_distance(self):
        p = ModelParams(60, 12, 0.4)
        for t in (2.0, 3.5, 6.0):
            assert chain_tv(p, t) <= product_chain_upper_bound(p, t) + 1e-12


class TestLowerBounds:
    def test_chebyshev_at_zero(self):
        # c = sqrt(N)/2 = 5, so 1 - 2/c^2 = 0.92
        assert chebyshev_lower_bound(ModelParams(100, 20, 0.5), 0.0) == pytest.approx(
            0.92, abs=1e-14
        )

    def test_chebyshev_vanishes_below_threshold(self):
        # late times push the margin under sqrt(2), where the bound gives up
        assert chebyshev_lower_bound(SMALL, 8.0) == 0.0

    def test_chebyshev_is_valid(self):
        p = ModelParams(200, 40, 0.3)
        for t in (0.0, 0.5, 1.5, 3.0):
            assert chebyshev_lower_bound(p, t) <= observed_tv(p, t) + 1e-12

    def test_kolmogorov_at_zero(self):
        assert kolmogorov_lower_bound(ModelParams(4, 2, 0.5), 0.0) == pytest.approx(
            0.9375, abs=1e-14
        )

    def test_kolmogorov_dominates_chebyshev(self):
        p = ModelParams(150, 30, 0.4)
        for t in np.linspace(0.0, 6.0, 25):
            assert (
                kolmogorov_lower_bound(p, t) >= chebyshev_lower_bound(p, t) - 1e-12
            )

    def test_kolmogorov_is_valid(self):
        p = ModelParams(150, 30, 0.4)
        for t in (0.0, 1.0, 2.5, 5.0):
            assert kolmogorov_lower_bound(p, t) <= observed_tv(p, t) + 1e-12

    def test_kolmogorov_equals_distance_from_all_right_start(self):
        """Both factor laws sit below stationarity in likelihood-ratio order,
        so the CDF gap of the all-right start is its total variation."""
        all_right = InitialState(0, 0)
        for p in [
            ModelParams(10, 3, 0.5),
            ModelParams(50, 10, 0.2),
            ModelParams(100, 1, 1.0),
            ModelParams(1000, 100, 0.3),
            ModelParams(2000, 1000, 0.7),
            ModelParams(10_000, 100, 0.1),
        ]:
            for t in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0):
                exact = observed_tv(p, t, all_right)
                assert abs(kolmogorov_lower_bound(p, t) - exact) <= 2e-12

    def test_clt_value(self):
        # c = 5 at t = 0 for N = 100: 2 Phi(5) - 1
        p = ModelParams(100, 20, 0.5)
        assert clt_lower_bound(p, 0.0) == pytest.approx(
            math.erf(5.0 / math.sqrt(2.0)), rel=1e-12
        )

    def test_clt_close_to_exact_at_scale(self):
        """The normal estimate tracks the exact curve to O(1/sqrt(N))."""
        p = ModelParams(4000, 400, 0.5)
        for t in (1.0, 2.5, 4.0):
            assert abs(clt_lower_bound(p, t) - observed_tv(p, t)) < 0.05


# Rounding allowance on the certification side: the bisection reads one CDF
# from the cumulative sums of the longer factor's window, the oracle from
# those of the convolved table.  Against exact rational sums of the same
# tables each was measured off by up to 9.8e-16 (bisection) and 9.3e-16
# (oracle) at N <= 3000, and the bisection read above the oracle by more
# than 1e-15 in 39 of 30,000 random instances, by at most 2.0e-15.
_ROUNDING = 4e-15
_TIMES = st.one_of(st.sampled_from([0.0, 1e-12, 1e3]), st.floats(0.0, 60.0))


class TestKolmogorovBisection:
    """The one gap at the likelihood-ratio crossing against the largest gap
    of the full convolution it replaced (oracles.kolmogorov_lower_bound_convolved)."""

    @given(
        total=st.integers(2, 3000),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.one_of(st.just(1.0), st.floats(1e-12, 1.0)),
        t=_TIMES,
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_convolution_route(self, total, heavy_share, alpha, t):
        p = ModelParams(total, round(heavy_share * total), alpha)
        expected = oracles.kolmogorov_lower_bound_convolved(p, t)
        got = kolmogorov_lower_bound(p, t)
        assert got == pytest.approx(expected, rel=0, abs=1e-13)
        assert got <= expected + _ROUNDING

    @pytest.mark.parametrize(
        "p",
        [ModelParams(1747, 545, 0.6777105190265256), ModelParams(4746, 3633, 0.5856188077033575)],
    )
    def test_peak_on_a_rounding_plateau(self, p):
        """At t = 40 both CDFs have saturated and the gap sits on a plateau of
        rounding noise: a ternary search on the gap read 8.9e-16 (signed) and
        1.6e-15 (absolute) against 8.77e-12 and 1.41e-9."""
        expected = oracles.kolmogorov_lower_bound_convolved(p, 40.0)
        assert expected > 1e-12
        assert kolmogorov_lower_bound(p, 40.0) == pytest.approx(expected, rel=0, abs=1e-14)

    @pytest.mark.parametrize("t", [5.68228632332338, 13.875776602977467, 33.88375125439445])
    def test_benchmark_bounds_times(self, t):
        """The three bounds --exact times of the seed-0 observable benchmark at N = 10^5."""
        p = ModelParams(100_000, 10_000, 0.2)
        expected = oracles.kolmogorov_lower_bound_convolved(p, t)
        assert kolmogorov_lower_bound(p, t) == pytest.approx(expected, rel=0, abs=1e-13)

    def test_convolves_no_two_long_tables(self, monkeypatch):
        """Nothing convolves: from the all-right start no ball starts left, so
        each factor table is one binomial, read point by point."""
        lengths, convolve = [], dist_module.convolve

        def counting_convolve(a, b):
            lengths.append((a.window.size, b.window.size))
            return convolve(a, b)

        monkeypatch.setattr(dist_module, "convolve", counting_convolve)
        kolmogorov_lower_bound(ModelParams(100_000, 10_000, 0.2), 6.0)
        assert lengths == []


@pytest.mark.parametrize(
    "bound",
    [
        chebyshev_lower_bound,
        clt_lower_bound,
        l2_upper_bound,
        coupling_union_bound,
        product_chain_upper_bound,
    ],
)
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_closed_forms_reject_bad_times(bound, t):
    with pytest.raises(ValueError, match="non-negative"):
        bound(SMALL, t)


class TestSandwich:
    def test_bounds_bracket_exact_curve(self):
        """Certified lower bounds below the exact distance below the upper
        bounds, across species mixes and a wide grid."""
        grid = np.geomspace(0.05, 20.0, 25)
        for m, alpha in [(1, 0.5), (31, 0.1), (250, 0.9)]:
            p = ModelParams(1000, m, alpha)
            for t in grid:
                exact = observed_tv(p, t)
                lower = max(chebyshev_lower_bound(p, t), kolmogorov_lower_bound(p, t))
                upper = min(
                    l2_upper_bound(p, t), 1.0, coupling_union_bound(p, t)
                )
                assert lower <= exact + 1e-9
                assert exact <= upper + 1e-9
