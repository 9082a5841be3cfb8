import math

import pytest
from hypothesis import given, strategies as st

from urnlab.model import (
    ALPHA_RULE_KINDS,
    M_RULE_KINDS,
    InitialState,
    ModelParams,
    ParamFamily,
    corners,
    gamma,
    parse_alpha_rule,
    parse_m_rule,
    predicted_times,
    tilde_gamma,
)


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

    def test_corners_general(self):
        p = ModelParams(10, 3, 0.5)
        assert corners(p) == [
            InitialState(0, 0),
            InitialState(7, 0),
            InitialState(0, 3),
            InitialState(7, 3),
        ]

    def test_corners_collapse_without_heavies(self):
        assert corners(ModelParams(10, 0, 0.5)) == [
            InitialState(0, 0),
            InitialState(10, 0),
        ]


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
