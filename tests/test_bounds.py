import math

import numpy as np
import pytest

from urnlab.model import InitialState, ModelParams, predicted_times
from urnlab.bounds import (
    BoundCurve,
    CURVE_KINDS,
    bound_curve,
    chebyshev_lower_bound,
    clt_lower_bound,
    coupling_union_bound,
    kolmogorov_lower_bound,
    l2_upper_bound,
    product_chain_upper_bound,
)
from urnlab import bounds as bounds_module
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


class TestBoundCurve:
    def test_kinds_catalogue(self):
        assert CURVE_KINDS == (
            "coupling_ub",
            "l2_ub",
            "chain_l2_ub",
            "chebyshev_lb",
            "kolmogorov_lb",
            "clt_lb",
            "exact",
        )

    def test_coupling_curve_keeps_raw(self):
        curve = bound_curve(SMALL, "coupling_ub", [0.0, 1.0, 4.0])
        assert curve.raw_values[0] == 4.0
        assert curve.values[0] == 1.0
        assert curve.target == "chain"
        assert not curve.asymptotic

    def test_clt_curve_flagged_asymptotic(self):
        curve = bound_curve(SMALL, "clt_lb", [0.5, 1.0])
        assert curve.asymptotic

    def test_dispatch_matches_scalars(self):
        times = [0.3, 1.1, 2.7]
        for kind, fn in [
            ("l2_ub", l2_upper_bound),
            ("chain_l2_ub", product_chain_upper_bound),
            ("chebyshev_lb", chebyshev_lower_bound),
            ("kolmogorov_lb", kolmogorov_lower_bound),
        ]:
            curve = bound_curve(SMALL, kind, times)
            assert curve.values == tuple(fn(SMALL, t) for t in times)

    def test_exact_kind_not_evaluated_here(self):
        with pytest.raises(ValueError):
            bound_curve(SMALL, "exact", [1.0])

    @pytest.mark.parametrize("kind", ["exact", "nope"])
    def test_unevaluated_kind_message(self, kind):
        with pytest.raises(ValueError) as err:
            bound_curve(SMALL, kind, [1.0])
        assert str(err.value) == f"bound_curve cannot evaluate kind {kind!r}"

    def test_dispatch_sees_wrapped_module_attribute(self, monkeypatch):
        """A wrapper set on the module attribute, as a tracer installs one,
        is what bound_curve calls."""
        calls = []

        def counting(params, t):
            calls.append(t)
            return l2_upper_bound(params, t)

        monkeypatch.setattr(bounds_module, "l2_upper_bound", counting)
        curve = bound_curve(SMALL, "l2_ub", [0.5, 2.0])
        assert calls == [0.5, 2.0]
        assert curve.values == tuple(l2_upper_bound(SMALL, t) for t in (0.5, 2.0))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            BoundCurve("nope", "observable", (0.0,), (1.0,))
        with pytest.raises(ValueError):
            BoundCurve("l2_ub", "observable", (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            BoundCurve("l2_ub", "observable", (-1.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            BoundCurve("l2_ub", "observable", (0.0, 1.0), (0.5,))


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
