import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from urnlab.dist import binomial_pmf, chain_tv, coordinate_law, observed_tv
from urnlab.mc import draw_stream, sample_batch
from urnlab.model import (
    ALPHA_RULE_KINDS,
    M_RULE_KINDS,
    InitialState,
    ModelParams,
    ParamFamily,
    check_time,
    gamma,
    parse_alpha_rule,
    parse_m_rule,
    predicted_times,
    tilde_gamma,
)
from urnlab.negdep import verify_negative_dependence


class TestCheckTime:
    def test_accepts_finite_non_negative(self):
        for t in (0.0, 1e-300, 2.5, 1e300):
            check_time(t)

    @pytest.mark.parametrize("t", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_with_the_given_name(self, t):
        message = "^--t-stop must be finite and non-negative$"
        with pytest.raises(ValueError, match=message):
            check_time(t, "--t-stop")


class TestModelParams:
    def test_basic_properties(self):
        p = ModelParams(10000, 1000, 0.2)
        assert p.regular_count == 9000
        assert p.beta == pytest.approx(0.75, rel=1e-12)
        assert p.relaxation_time == pytest.approx(5.0)
        assert p.log_size == pytest.approx(math.log(10000))
        assert not p.out_of_range

    def test_zero_heavy_beta_is_minus_infinity(self):
        assert ModelParams(10, 0, 0.5).beta == -math.inf

    def test_out_of_range_flags_degenerate_configs(self):
        assert ModelParams(10, 0, 0.5).out_of_range
        assert ModelParams(10, 10, 0.5).out_of_range
        assert ModelParams(10, 3, 1.0).out_of_range
        assert not ModelParams(10, 3, 0.5).out_of_range

    @pytest.mark.parametrize(
        "n, m, a",
        [
            (1, 0, 0.5),
            (10, -1, 0.5),
            (10, 11, 0.5),
            (10, 3, 0.0),
            (10, 3, 1.5),
            (10, 3, -0.2),
            (10, 3, 1e-13),
            (10, 3, math.nan),
        ],
    )
    def test_rejects_bad_parameters(self, n, m, a):
        with pytest.raises(ValueError):
            ModelParams(n, m, a)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            ModelParams(10.0, 3, 0.5)
        with pytest.raises(ValueError):
            ModelParams(10, 3.0, 0.5)
        with pytest.raises(ValueError):
            ModelParams(10, True, 0.5)


class TestExponents:
    def test_gamma_delayed_instance(self):
        assert gamma(ModelParams(10000, 1000, 0.2)) == pytest.approx(1.5, abs=1e-12)

    def test_gamma_insensitive_instance(self):
        p = ModelParams(10000, 10, 0.9)
        assert gamma(p) == pytest.approx(-0.5 / 0.9 - 1.0, rel=1e-12)

    def test_tilde_gamma(self):
        assert tilde_gamma(ModelParams(10000, 1000, 0.2)) == pytest.approx(0.55)
        assert tilde_gamma(ModelParams(10000, 100, 0.9)) == pytest.approx(-0.4)

    @given(
        n=st.integers(min_value=2, max_value=10**6),
        m=st.integers(min_value=1, max_value=10**6),
        alpha=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_gamma_sign_matches_rate_comparison(self, n, m, alpha):
        """gamma >= 0 exactly when alpha <= 2 beta - 1 (alpha positive)."""
        m = min(m, n)
        p = ModelParams(n, m, alpha)
        assert (gamma(p) >= 0.0) == (alpha <= 2.0 * p.beta - 1.0)

    def test_predicted_times_delayed_instance(self):
        times = predicted_times(ModelParams(10000, 1000, 0.2))
        log_n = math.log(10000)
        assert times.regular_cutoff == pytest.approx(0.5 * log_n, rel=1e-12)
        assert times.heavy_cutoff == pytest.approx(0.75 / 0.4 * log_n, rel=1e-12)
        assert times.delayed_cutoff == pytest.approx(1.25 * log_n, rel=1e-12)

    def test_predicted_times_ordering_when_delayed(self):
        # gamma >= 0 puts the observable schedule between the two chain scales
        times = predicted_times(ModelParams(10000, 1000, 0.2))
        assert times.regular_cutoff < times.delayed_cutoff < times.heavy_cutoff


class TestInitialState:
    def test_validate_passes_in_range(self):
        p = ModelParams(10, 3, 0.5)
        assert InitialState(7, 3).validate(p) == InitialState(7, 3)

    def test_validate_rejects_out_of_range(self):
        p = ModelParams(10, 3, 0.5)
        with pytest.raises(ValueError):
            InitialState(8, 0).validate(p)
        with pytest.raises(ValueError):
            InitialState(0, 4).validate(p)
        with pytest.raises(ValueError):
            InitialState(-1, 0).validate(p)

    def test_total_left(self):
        assert InitialState(4, 2).total_left == 6


class TestFamilies:
    def test_parse_m_rule(self):
        assert parse_m_rule("fixed:5") == ("fixed", 5)
        assert parse_m_rule("power:0.75") == ("power", 0.75)
        assert parse_m_rule("sqrtexp:1,2") == ("sqrtexp", 1.0, 2.0)

    def test_parse_alpha_rule(self):
        assert parse_alpha_rule("const:0.2") == ("const", 0.2)
        assert parse_alpha_rule("invlog:1.0") == ("invlog", 1.0)

    @pytest.mark.parametrize(
        "text", ["cubic:2", "fixed:x", "power:", "sqrtexp:1", "fixed"]
    )
    def test_parse_m_rule_rejects(self, text):
        with pytest.raises(ValueError):
            parse_m_rule(text)

    @pytest.mark.parametrize("text", ["lin:0.2", "const:x", "invlog:"])
    def test_parse_alpha_rule_rejects(self, text):
        with pytest.raises(ValueError):
            parse_alpha_rule(text)

    def test_parse_unknown_kind_messages(self):
        with pytest.raises(ValueError) as m_err:
            parse_m_rule("cubic:2")
        assert str(m_err.value) == (
            "unknown m-rule kind 'cubic' (expected one of ('fixed', 'power', 'sqrtexp'))"
        )
        with pytest.raises(ValueError) as alpha_err:
            parse_alpha_rule("lin:0.2")
        assert str(alpha_err.value) == (
            "unknown alpha-rule kind 'lin' (expected one of ('const', 'invlog'))"
        )

    @pytest.mark.parametrize(
        "parse, text, name",
        [
            (parse_m_rule, "fixed:5,3", "m-rule"),
            (parse_m_rule, "power:1,2", "m-rule"),
            (parse_m_rule, "sqrtexp:1,2,3", "m-rule"),
            (parse_m_rule, "sqrtexp:1", "m-rule"),
            (parse_m_rule, "fixed", "m-rule"),
            (parse_alpha_rule, "const:1,2", "alpha-rule"),
        ],
    )
    def test_parse_wrong_argument_count_is_malformed(self, parse, text, name):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == f"malformed {name} argument in {text!r}"

    def test_parse_strips_the_kind(self):
        assert parse_m_rule(" power :0.5") == ("power", 0.5)

    def test_rule_kind_catalogues(self):
        assert M_RULE_KINDS == ("fixed", "power", "sqrtexp")
        assert ALPHA_RULE_KINDS == ("const", "invlog")

    @pytest.mark.parametrize(
        "rule, size, expected",
        [
            (("fixed", 5), 1000, 5),
            (("power", 0.3), 1000, 8),
            (("sqrtexp", 2.5, -1.0), 1000, 48),
        ],
    )
    def test_m_of_every_kind(self, rule, size, expected):
        fam = ParamFamily(rule, ("const", 0.5), (size,))
        value = fam.m_of(size)
        assert value == expected and isinstance(value, int)

    @pytest.mark.parametrize(
        "rule, size, expected",
        [
            (("const", 0.2), 1000, 0.2),
            (("invlog", 1.0), 10000, 0.10857362047581294),
            (("invlog", 2.0), 1000, 0.2895296546021679),
        ],
    )
    def test_alpha_of_every_kind(self, rule, size, expected):
        fam = ParamFamily(("fixed", 1), rule, (size,))
        assert fam.alpha_of(size) == expected

    @pytest.mark.parametrize(
        "m_rule, alpha_rule, message",
        [
            (("fixed", 5, 9), ("const", 0.5), "m-rule 'fixed' takes 1 argument(s), got 2"),
            (("sqrtexp", 1.0), ("const", 0.5), "m-rule 'sqrtexp' takes 2 argument(s), got 1"),
            (("fixed", 5), ("invlog",), "alpha-rule 'invlog' takes 1 argument(s), got 0"),
        ],
    )
    def test_family_rejects_wrong_rule_arity(self, m_rule, alpha_rule, message):
        with pytest.raises(ValueError) as err:
            ParamFamily(m_rule, alpha_rule, (100,))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "m_rule, alpha_rule, message",
        [
            (("power", math.inf), ("const", 0.5), "m-rule 'power' arguments must be finite"),
            (("sqrtexp", 1.0, math.nan), ("const", 0.5),
             "m-rule 'sqrtexp' arguments must be finite"),
            (("fixed", 1), ("const", math.inf), "alpha-rule 'const' arguments must be finite"),
            (("fixed", 1), ("invlog", -math.inf),
             "alpha-rule 'invlog' arguments must be finite"),
            (("sqrtexp", 1.0, 2000.0), ("const", 0.5),
             "m-rule ('sqrtexp', 1.0, 2000.0) overflows at size 100"),
            (("power", 150.0), ("const", 0.5), "m-rule ('power', 150.0) overflows at size 1000"),
        ],
    )
    def test_family_rejects_rules_that_overflow(self, m_rule, alpha_rule, message):
        """Checked when the family is built: a float overflow in m_of would
        otherwise escape as an ArithmeticError, which is not an input error."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ParamFamily(m_rule, alpha_rule, (100, 1000))

    def test_rule_evaluation(self):
        fam = ParamFamily(
            m_rule=("sqrtexp", 1.0, 2.0),
            alpha_rule=("invlog", 1.0),
            sizes=(1000, 10000, 100000),
        )
        assert [fam.m_of(s) for s in fam.sizes] == [86, 272, 860]
        assert fam.alpha_of(10000) == pytest.approx(1.0 / math.log(10000))

    def test_power_rule(self):
        fam = ParamFamily(("power", 0.25), ("const", 0.9), (10000,))
        assert fam.m_of(10000) == 10

    def test_instances_validate_each_size(self):
        fam = ParamFamily(("fixed", 1), ("const", 0.5), (100, 1000))
        instances = fam.instances()
        assert [p.total_balls for p in instances] == [100, 1000]
        assert all(p.heavy_count == 1 for p in instances)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            ParamFamily(("cubic", 2), ("const", 0.5), (100,))
        with pytest.raises(ValueError):
            ParamFamily(("fixed", 1), ("lin", 0.5), (100,))
        with pytest.raises(ValueError):
            ParamFamily(("fixed", 1), ("const", 0.5), ())
        with pytest.raises(ValueError):
            ParamFamily(("fixed", 1), ("const", 0.5), (100, 100))
        with pytest.raises(ValueError):
            ParamFamily(("fixed", 1), ("const", 0.5), (1000, 100))


SMALL = ModelParams(10, 3, 0.5)
# (site, argument name, valid value, highest valid value or None when
# unbounded, call taking the value)
INTEGER_SITES = [
    ("ModelParams", "total_balls", 10, None, lambda v: ModelParams(v, 1, 0.5)),
    ("ModelParams", "heavy_count", 3, 10, lambda v: ModelParams(10, v, 0.5)),
    ("InitialState", "regular_left", 7, 7, lambda v: InitialState(v, 0).validate(SMALL)),
    ("InitialState", "heavy_left", 3, 3, lambda v: InitialState(0, v).validate(SMALL)),
    ("ParamFamily", "size", 100, None, lambda v: ParamFamily(("fixed", 1), ("const", 0.5), (v,))),
    ("binomial_pmf", "trials", 4, None, lambda v: binomial_pmf(v, 0.3)),
    ("coordinate_law", "count", 4, None, lambda v: coordinate_law(v, 0, 1.0, 0.5)),
    ("coordinate_law", "ones_initial", 2, 4, lambda v: coordinate_law(4, v, 1.0, 0.5)),
    ("verify_negative_dependence", "max_size", 2, 10,
     lambda v: verify_negative_dependence(SMALL, 1.0, v)),
    ("draw_stream", "seed", 7, 2**64 - 1, lambda v: draw_stream(v, 0)),
    ("draw_stream", "draw index", 5, 2**64 - 1, lambda v: draw_stream(0, v)),
    ("sample_batch", "count", 3, None,
     lambda v: sample_batch(SMALL, InitialState(0, 0), 0.5, v, 0)),
]
_BAD_INTEGERS = [
    pytest.param(name, call, bad, id=f"{site}-{name}-{bad!r}")
    for site, name, _, high, call in INTEGER_SITES
    for bad in [2.5, 2.0, True, None, "3", -1] + ([] if high is None else [high + 1])
]


class TestIntegerContract:
    """Every count, size, start and key goes through model.check_integer."""

    @pytest.mark.parametrize("name, call, bad", _BAD_INTEGERS)
    def test_refuses_non_integers_naming_the_argument(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer in "):
            call(bad)

    @pytest.mark.parametrize("cast", [np.int64, np.uint64])
    @pytest.mark.parametrize(
        "valid, call",
        [
            pytest.param(valid, call, id=f"{site}-{name}")
            for site, name, valid, _, call in INTEGER_SITES
        ],
    )
    def test_accepts_numpy_integers(self, valid, call, cast):
        call(cast(valid))

    @pytest.mark.parametrize("cast", [np.int64, np.uint64])
    def test_numpy_integers_give_the_python_int_results(self, cast):
        assert type(ModelParams(cast(10), 3, 0.5).total_balls) is int
        assert type(ModelParams(10, cast(3), 0.5).heavy_count) is int
        params, init = ModelParams(cast(30), cast(5), 0.4), InitialState(cast(7), cast(4))
        ints, int_init = ModelParams(30, 5, 0.4), InitialState(7, 4)
        for sampler in ("coupled", "ctmc"):
            got = sample_batch(params, init, 0.8, cast(300), cast(3), sampler=sampler)
            want = sample_batch(ints, int_init, 0.8, 300, 3, sampler=sampler)
            assert got.outcomes.tobytes() == want.outcomes.tobytes()
        assert observed_tv(params, 0.8, init) == observed_tv(ints, 0.8, int_init)
        assert chain_tv(params, 0.8, init) == chain_tv(ints, 0.8, int_init)
        # the default starts come from the stored Python-int counts
        assert observed_tv(params, 0.8) == observed_tv(ints, 0.8)
        assert chain_tv(params, 0.8) == chain_tv(ints, 0.8)
