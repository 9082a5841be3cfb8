"""Tests for mixing times and the regime classifier."""

import json
import math

import numpy as np
import pytest

from urnlab import (
    CapacityError,
    ContradictionError,
    DeclaredLimits,
    ModelParams,
    NoCrossingError,
    ParamFamily,
    chain_regime,
    classify,
    cli,
    dist,
    mixing_time,
    observable_regime,
    predicted_times,
    product_condition_ratio,
    validate_declared,
)

CLASSICAL = ModelParams(1000, 1, 1.0)
DELAYED = ModelParams(10_000, 1000, 0.2)


class TestMixingTime:
    def test_classical_crossing_near_half_log_n(self):
        # e^{-t} sqrt(N) hits its quarter-distance threshold a bounded shift
        # after (1/2) log N = 3.4539.
        result = mixing_time(CLASSICAL, 0.25)
        assert result.target == "observable"
        assert result.epsilon == 0.25
        assert 3.0 < result.time < 5.0
        assert result.time == pytest.approx(3.9046, abs=5e-3)

    def test_bracket_is_certified(self):
        result = mixing_time(CLASSICAL, 0.25)
        assert result.bracket_lo < result.time < result.bracket_hi
        assert result.time == 0.5 * (result.bracket_lo + result.bracket_hi)
        assert result.bracket_hi - result.bracket_lo <= 1e-3 * CLASSICAL.relaxation_time
        # endpoint values are honest re-evaluations of the exact curve
        assert result.value_lo == dist.observed_tv(CLASSICAL, result.bracket_lo)
        assert result.value_hi == dist.observed_tv(CLASSICAL, result.bracket_hi)
        assert result.value_lo >= 0.25 >= result.value_hi

    def test_delayed_instance_crosses_inside_predicted_window(self):
        times = predicted_times(DELAYED)
        result = mixing_time(DELAYED, 0.25)
        window = 4.0 / DELAYED.heavy_rate
        assert times.delayed_cutoff - window <= result.time <= times.delayed_cutoff + window
        assert result.bracket_hi - result.bracket_lo <= 1e-3 * DELAYED.relaxation_time

    def test_already_mixed_at_zero(self):
        # N = 2 from the (0, 0) corner: D(0) = 3/4, below epsilon = 0.8
        tiny = ModelParams(2, 1, 0.5)
        result = mixing_time(tiny, 0.8)
        assert result.time == 0.0
        assert result.bracket_lo == result.bracket_hi == 0.0
        assert result.value_lo == result.value_hi == pytest.approx(0.75)
        assert result.evaluations == 1

    def test_chain_target_dominates_observable(self):
        params = ModelParams(60, 12, 0.4)
        obs = mixing_time(params, 0.25, target="observable")
        chain = mixing_time(params, 0.25, target="chain")
        assert chain.time >= obs.time - 1e-3 * params.relaxation_time

    def test_tiny_alpha_mixes_on_the_relaxation_time(self):
        """m = 1, alpha = 0.001: both cutoff scales are under 5, but the chain
        waits for the heavy ball, whose distance is e^{-alpha t} / 2 once the
        regular balls have mixed, so it crosses 1/4 at ln 2 / alpha = 693."""
        result = mixing_time(ModelParams(1000, 1, 0.001), 0.25, "chain")
        assert result.bracket_lo <= math.log(2) / 0.001 <= result.bracket_hi

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.3, 1.7])
    def test_epsilon_out_of_range(self, epsilon):
        with pytest.raises(ValueError):
            mixing_time(CLASSICAL, epsilon)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            mixing_time(CLASSICAL, 0.25, target="joint")

    def test_curve_that_never_crosses(self, monkeypatch):
        monkeypatch.setattr(dist, "distance_curve", lambda params, targets: lambda t: (0.5,))
        with pytest.raises(NoCrossingError, match="stayed above 0.25"):
            mixing_time(CLASSICAL, 0.25)

    def test_bracket_invariant_refuses_a_nan_value(self, monkeypatch):
        # a NaN is neither above nor below epsilon, so it lands on the lower
        # side of the bracket, and the endpoint re-check must refuse it
        def curve(params, targets):
            return lambda t: (1.0 if t == 0.0 else math.nan if t < 4.0 else 0.0,)

        monkeypatch.setattr(dist, "distance_curve", curve)
        with pytest.raises(RuntimeError, match="bracket invariant failed") as caught:
            mixing_time(CLASSICAL, 0.25)
        assert not isinstance(caught.value, NoCrossingError)


class TestProductConditionRatio:
    def test_classical_ratio_is_order_log_n(self):
        # relaxation time 1, chain mixing near (1/2) log 1000
        ratio = product_condition_ratio(CLASSICAL)
        assert 3.0 < ratio < 5.0
        assert ratio == pytest.approx(
            mixing_time(CLASSICAL, 0.25, target="chain").time, rel=1e-12
        )

    def test_state_space_guard(self):
        big = ModelParams(100_000, 5623, 0.2)
        with pytest.raises(CapacityError):
            product_condition_ratio(big)


class TestRegimeLabels:
    def test_observable_labels(self):
        assert observable_regime(None, None, None) == "Undetermined"
        assert observable_regime(-0.3, None, None) == "Insensitivity"
        assert observable_regime(1.2, None, True) == "DelayedCutoff"
        assert observable_regime(1.2, 2.0, False) == "NoCutoff"
        assert observable_regime(0.0, None, False) == "Undetermined"

    def test_chain_labels(self):
        assert chain_regime(None, True) == "Undetermined"
        assert chain_regime(-0.1, True) == "Insensitivity"
        assert chain_regime(0.4, True) == "DelayedCutoff"
        assert chain_regime(0.4, False) == "NoCutoff"


class TestValidateDeclared:
    def test_valid_declarations_pass(self):
        validate_declared(
            DeclaredLimits(gamma_inf=1.0, tilde_gamma_inf=0.5, m_diverges=True, ell=math.inf)
        )
        validate_declared(
            DeclaredLimits(gamma_inf=0.3, tilde_gamma_inf=0.2, m_diverges=True, ell=2.0)
        )
        validate_declared(
            DeclaredLimits(gamma_inf=-1.0, tilde_gamma_inf=-0.4, m_diverges=False)
        )
        # negative finite ell is reachable when gamma_inf < 0, e.g. m ~ sqrt(N) e^{-3/2}
        validate_declared(
            DeclaredLimits(gamma_inf=-1.0, tilde_gamma_inf=-0.4, m_diverges=True, ell=-3.0)
        )
        validate_declared(
            DeclaredLimits(gamma_inf=0.3, tilde_gamma_inf=0.2, m_diverges=np.bool_(True), ell=2.0)
        )

    def test_chain_exponent_dominates(self):
        with pytest.raises(ContradictionError, match="tilde_gamma_inf < 0"):
            validate_declared(
                DeclaredLimits(gamma_inf=0.5, tilde_gamma_inf=-0.1, m_diverges=True, ell=math.inf)
            )

    def test_nonnegative_gamma_needs_divergent_m(self):
        with pytest.raises(ContradictionError, match="heavy count to\\s+diverge"):
            validate_declared(
                DeclaredLimits(gamma_inf=0.5, tilde_gamma_inf=0.1, m_diverges=False, ell=math.inf)
            )

    def test_finite_ell_needs_divergent_m(self):
        with pytest.raises(ContradictionError, match="sqrt\\(N\\)"):
            validate_declared(
                DeclaredLimits(gamma_inf=-0.5, tilde_gamma_inf=-0.6, m_diverges=False, ell=1.5)
            )

    def test_negative_ell_with_nonnegative_gamma(self):
        with pytest.raises(ContradictionError, match="cannot be negative"):
            validate_declared(
                DeclaredLimits(gamma_inf=0.5, tilde_gamma_inf=0.1, m_diverges=True, ell=-0.5)
            )

    @pytest.mark.parametrize(
        "limits",
        [
            DeclaredLimits(gamma_inf=math.nan, tilde_gamma_inf=math.nan, m_diverges=True),
            DeclaredLimits(gamma_inf=-1.0, tilde_gamma_inf=math.nan, m_diverges=False),
            DeclaredLimits(gamma_inf=1.0, tilde_gamma_inf=0.5, m_diverges=True, ell=math.nan),
        ],
        ids=["gamma", "tilde_gamma", "ell"],
    )
    def test_nan_limit_is_a_usage_error(self, limits):
        # ValueError, not ContradictionError: NaN is bad input, not a contradiction
        with pytest.raises(ValueError, match="NaN") as info:
            validate_declared(limits)
        assert not isinstance(info.value, ContradictionError)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_m_diverges_must_be_a_bool(self, flag):
        # "no" is truthy: read as a flag it would declare a diverging count
        with pytest.raises(ValueError, match="m_diverges must be a bool") as info:
            validate_declared(DeclaredLimits(1.0, 0.5, flag, 2.0))
        assert not isinstance(info.value, ContradictionError)

    def test_missing_ell_with_nonnegative_gamma(self):
        with pytest.raises(ValueError, match="requires a declared ell"):
            validate_declared(
                DeclaredLimits(gamma_inf=0.5, tilde_gamma_inf=0.1, m_diverges=True)
            )


class TestClassifyExtrapolate:
    SIZES = (1000, 10_000, 100_000)

    def test_insensitivity_family(self):
        family = ParamFamily(("power", 0.25), ("const", 0.9), self.SIZES)
        report = classify(family, ratio="never")
        assert report.observable_regime == "Insensitivity"
        assert report.chain_regime == "Insensitivity"
        # m(1e5) = round(1e5 ** 0.25) = 18
        beta = math.log(18) / math.log(100_000)
        assert report.gamma_inf == pytest.approx((2 * beta - 1) / 0.9 - 1)
        assert report.gamma_inf < 0
        assert report.ell == pytest.approx((2 * beta - 1) * math.log(100_000))
        assert report.ell_diverges is False
        assert report.m_diverges is True

    def test_delayed_cutoff_family(self):
        family = ParamFamily(("power", 0.75), ("const", 0.2), self.SIZES)
        report = classify(family, ratio="never")
        assert report.observable_regime == "DelayedCutoff"
        assert report.chain_regime == "DelayedCutoff"
        assert report.gamma_inf == pytest.approx(1.5, abs=1e-3)
        assert report.tilde_gamma_inf == pytest.approx(0.55, abs=1e-3)
        # ell_at_size grows linearly in log N, flagged divergent
        assert report.ell is None
        assert report.ell_diverges is True

    def test_no_cutoff_family(self):
        # m ~ sqrt(N) e^{2/2} with alpha = 1/log N pins ell near 2
        family = ParamFamily(("sqrtexp", 1.0, 2.0), ("invlog", 1.0), self.SIZES)
        report = classify(family, ratio="never")
        assert report.observable_regime == "NoCutoff"
        assert report.chain_regime == "DelayedCutoff"
        assert report.gamma_inf == pytest.approx(1.0, abs=2e-3)
        assert report.ell == pytest.approx(2.0, abs=2e-3)
        assert report.ell_diverges is False
        assert [s.heavy_count for s in report.samples] == [86, 272, 860]

    def test_disagreeing_gamma_is_undetermined(self):
        # constant m with alpha = 1/log N: gamma drifts between sizes while
        # tilde-gamma settles, so only the chain label resolves
        family = ParamFamily(("fixed", 5), ("invlog", 1.0), (1000, 10_000))
        report = classify(family, ratio="never")
        assert report.gamma_inf is None
        assert report.observable_regime == "Undetermined"
        assert report.tilde_gamma_inf == pytest.approx(0.06617, abs=1e-4)
        assert report.m_diverges is False
        assert report.chain_regime == "NoCutoff"

    def test_report_metadata(self, capsys):
        family = ParamFamily(("power", 0.75), ("const", 0.2), self.SIZES)
        report = classify(family, ratio="never")
        assert report.mode == "extrapolate"
        assert report.samples[-1].total_balls == 100_000
        assert report.predicted_times == predicted_times(family.instances()[-1])
        assert len(report.samples) == 3
        assert report.product_condition_ratio is None
        assert report.ratio_size is None
        # the CLI's JSON body is the report's fields in declaration order
        argv = ["classify", "--m-rule", "power:0.75", "--alpha-rule", "const:0.2"]
        sizes = ",".join(map(str, self.SIZES))
        assert cli.main([*argv, "--sizes", sizes, "--ratio", "never"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "regime-report/1"
        assert set(payload["predicted_times"]) == {
            "regular_cutoff",
            "heavy_cutoff",
            "delayed_cutoff",
        }
        assert len(payload["samples"]) == 3
        assert (
            list(payload),
            list(payload["samples"][0]),
            list(payload["predicted_times"]),
        ) == (
            [
                "schema",
                "config",
                "mode",
                "samples",
                "gamma_inf",
                "tilde_gamma_inf",
                "ell",
                "ell_diverges",
                "m_diverges",
                "observable_regime",
                "chain_regime",
                "predicted_times",
                "ratio_epsilon",
                "product_condition_ratio",
                "ratio_size",
            ],
            [
                "total_balls",
                "heavy_count",
                "heavy_rate",
                "beta",
                "gamma",
                "tilde_gamma",
                "ell_at_size",
            ],
            ["regular_cutoff", "heavy_cutoff", "delayed_cutoff"],
        )
        assert "largest" not in payload

    def test_single_size_rejected(self):
        family = ParamFamily(("fixed", 1), ("const", 1.0), (1000,))
        with pytest.raises(ValueError, match="at least two"):
            classify(family, ratio="never")

    def test_ratio_auto_uses_largest_size(self):
        family = ParamFamily(("fixed", 1), ("const", 1.0), (100, 1000))
        report = classify(family, ratio="auto")
        assert report.ratio_size == 1000
        assert report.product_condition_ratio == pytest.approx(
            product_condition_ratio(ModelParams(1000, 1, 1.0)), rel=1e-12
        )

    def test_ratio_auto_falls_back_under_capacity(self):
        # 20e6 balls with m = 3 has 8e7 chain states, over the guard;
        # the 100-ball member still qualifies
        family = ParamFamily(("fixed", 3), ("const", 1.0), (100, 20_000_000))
        report = classify(family, ratio="auto")
        assert report.ratio_size == 100
        assert report.product_condition_ratio is not None

    def test_unknown_ratio_policy(self):
        family = ParamFamily(("fixed", 1), ("const", 1.0), (100, 1000))
        with pytest.raises(ValueError, match="ratio policy"):
            classify(family, ratio="always")

    @pytest.mark.parametrize("ratio", ["auto", "never"])
    @pytest.mark.parametrize("epsilon", [math.nan, 7.0, 0.0, 1.0, -0.25])
    def test_ratio_epsilon_outside_unit_interval(self, ratio, epsilon):
        # refused whether or not the ratio is computed
        family = ParamFamily(("fixed", 1), ("const", 1.0), (100, 1000))
        with pytest.raises(ValueError, match="ratio_epsilon must lie strictly between"):
            classify(family, ratio=ratio, ratio_epsilon=epsilon)


class TestClassifyDeclared:
    FAMILY = ParamFamily(("power", 0.75), ("const", 0.2), (1000, 10_000))

    def test_divergent_ell_gives_delayed_cutoff(self):
        declared = DeclaredLimits(
            gamma_inf=1.5, tilde_gamma_inf=0.55, m_diverges=True, ell=math.inf
        )
        report = classify(self.FAMILY, declared=declared, ratio="never")
        assert report.observable_regime == "DelayedCutoff"
        assert report.chain_regime == "DelayedCutoff"
        assert report.ell is None
        assert report.ell_diverges is True
        assert report.gamma_inf == 1.5

    def test_finite_ell_gives_no_cutoff(self):
        declared = DeclaredLimits(
            gamma_inf=0.3, tilde_gamma_inf=0.2, m_diverges=True, ell=2.0
        )
        report = classify(self.FAMILY, declared=declared, ratio="never")
        assert report.observable_regime == "NoCutoff"
        assert report.chain_regime == "DelayedCutoff"
        assert report.ell == 2.0
        assert report.ell_diverges is False

    def test_negative_limits_give_insensitivity(self):
        declared = DeclaredLimits(gamma_inf=-1.0, tilde_gamma_inf=-0.4, m_diverges=False)
        report = classify(self.FAMILY, declared=declared, ratio="never")
        assert report.observable_regime == "Insensitivity"
        assert report.chain_regime == "Insensitivity"
        assert report.ell is None
        assert report.ell_diverges is None

    def test_contradictory_declaration_raises(self):
        declared = DeclaredLimits(
            gamma_inf=0.5, tilde_gamma_inf=-0.1, m_diverges=True, ell=math.inf
        )
        with pytest.raises(ContradictionError):
            classify(self.FAMILY, declared=declared, ratio="never")

    def test_mode_follows_the_declared_limits(self):
        declared = DeclaredLimits(1.5, 0.55, True, 2.0)
        report = classify(self.FAMILY, declared=declared, ratio="never")
        assert report.mode == "declared"
        assert report.observable_regime == "NoCutoff"
        # the same family extrapolated sees ell grow and calls it delayed
        report = classify(self.FAMILY, ratio="never")
        assert report.mode == "extrapolate"
        assert report.observable_regime == "DelayedCutoff"
