import json
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from urnlab import cli, negdep
from urnlab.model import CapacityError, ModelParams
from urnlab.negdep import (
    BRUTE_FORCE_LIMIT,
    _brute_force_fits,
    _hypergeometric_log_weights,
    SLACK_TOL,
    brute_force_joint_moment,
    exact_chi_square,
    factorial_moment_comparison,
    joint_moment,
    mean_z,
    mgf_compare,
    verify_negative_dependence,
)


class TestJointMoment:
    def test_frozen_example(self):
        value = joint_moment(ModelParams(4, 2, 0.5), 1.0, 2)
        assert value == pytest.approx(0.23262256083362906, rel=1e-14)

    def test_hand_formula(self):
        # size-2 subset of 4 balls, 2 heavy: weights (1, 4, 1)/6 on the
        # heavy-pair, mixed, regular-pair cases
        x, y = math.exp(-0.5), math.exp(-1.0)
        expected = (x * x + 4 * x * y + y * y) / 6.0
        assert joint_moment(ModelParams(4, 2, 0.5), 1.0, 2) == pytest.approx(
            expected, rel=1e-14
        )

    def test_matches_brute_force(self):
        for n, m, alpha, t, size in [
            (4, 2, 0.5, 1.0, 2),
            (7, 3, 0.3, 0.7, 4),
            (9, 5, 0.8, 2.0, 6),
            (6, 6, 0.4, 1.5, 3),
            (6, 0, 0.4, 1.5, 3),
        ]:
            p = ModelParams(n, m, alpha)
            assert joint_moment(p, t, size) == pytest.approx(
                brute_force_joint_moment(p, t, size), abs=1e-13
            )

    def test_matches_enumeration_oracle(self):
        p = ModelParams(7, 3, 0.45)
        for size in (1, 3, 5, 7):
            assert joint_moment(p, 1.2, size) == pytest.approx(
                oracles.subset_survival_moment(7, 3, 0.45, 1.2, size), rel=1e-13
            )

    def test_size_one_is_mean(self):
        p = ModelParams(8, 3, 0.6)
        assert joint_moment(p, 0.9, 1) == pytest.approx(mean_z(p, 0.9), rel=1e-14)

    def test_size_validation(self):
        p = ModelParams(6, 2, 0.5)
        with pytest.raises(ValueError):
            joint_moment(p, 1.0, 0)
        with pytest.raises(ValueError):
            joint_moment(p, 1.0, 7)
        for size in (2.5, 2.0, True):
            for fn, x in ((joint_moment, 1.0), (brute_force_joint_moment, 1.0), (mgf_compare, 2.0)):
                with pytest.raises(ValueError, match="integer"):
                    fn(p, x, size)
        assert joint_moment(p, 1.0, np.int64(2)) == joint_moment(p, 1.0, 2)
        for size, k in ((True, 1), (2.5, 1), (2, 1.5), (2, True), (-1, 1), (7, 1), (2, -1)):
            with pytest.raises(ValueError, match="integer"):
                factorial_moment_comparison(p, size, k)
        assert factorial_moment_comparison(p, np.int64(0), np.int64(0)) == (1.0, 1.0)

    def test_nan_time_rejected(self):
        p = ModelParams(6, 2, 0.5)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                joint_moment(p, t, 2)
            with pytest.raises(ValueError, match="non-negative"):
                exact_chi_square(p, t)

    def test_brute_force_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_joint_moment(ModelParams(40, 20, 0.5), 1.0, 2)
        assert math.comb(40, 20) > BRUTE_FORCE_LIMIT

    @given(
        n=st.integers(min_value=2, max_value=9),
        m_frac=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=5.0),
        size=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_product(self, n, m_frac, alpha, t, size):
        """The survival indicators are negatively dependent: joint moments
        sit below the corresponding power of the mean."""
        m = round(m_frac * n)
        size = min(size, n)
        p = ModelParams(n, m, alpha)
        slack = mean_z(p, t) ** size - joint_moment(p, t, size)
        assert slack >= SLACK_TOL


@st.composite
def _negdep_cases(draw):
    """N up to 400 (rows of up to 201 terms, several blocks), m and max_size
    drawn with their extremes 0, N and 1, N weighted in."""
    total = draw(st.integers(2, 400))
    heavy = draw(st.one_of(st.sampled_from([0, total]), st.integers(0, total)))
    max_size = draw(st.one_of(st.sampled_from([1, total]), st.integers(1, total)))
    alpha = draw(st.floats(0.05, 1.0))
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    return ModelParams(total, heavy, alpha), t, max_size


class TestBlockedRows:
    """verify_negative_dependence computes every row in blocks of terms;
    each row must equal the per-size loop it replaced bit for bit."""

    @given(case=_negdep_cases())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_per_size_loop(self, case):
        params, t, max_size = case
        report = verify_negative_dependence(params, t, max_size, "never")
        assert [row.size for row in report.rows] == list(range(1, max_size + 1))
        for row in report.rows:
            assert row.joint == oracles.joint_moment_loop(params, t, row.size), row.size

    @pytest.mark.parametrize("total, heavy", [(400, 200), (300, 0), (300, 300), (1000, 100)])
    def test_rows_spanning_several_blocks(self, total, heavy):
        params = ModelParams(total, heavy, 0.3)
        blocks = list(negdep._weight_blocks(params, range(1, total + 1)))
        lengths = np.concatenate([block[0] for block in blocks])
        assert lengths.tolist() == [
            min(size, heavy) - max(0, size - (total - heavy)) + 1 for size in range(1, total + 1)
        ]
        if lengths.sum() > negdep._BLOCK_TERMS:
            assert len(blocks) > 1
        for block in blocks:
            assert block[0].sum() <= negdep._BLOCK_TERMS
        report = verify_negative_dependence(params, 0.7, total, "never")
        for row in report.rows:
            assert row.joint == oracles.joint_moment_loop(params, 0.7, row.size), row.size

    def test_rows_longer_than_a_block(self, monkeypatch):
        """A row past _BLOCK_TERMS is a block of its own; shorter neighbours
        still share blocks, and no value moves."""
        params = ModelParams(60, 25, 0.4)
        monkeypatch.setattr(negdep, "_BLOCK_TERMS", 7)
        blocks = [block[0].tolist() for block in negdep._weight_blocks(params, range(1, 61))]
        assert blocks[:3] == [[2, 3], [4], [5]]
        assert all(len(block) == 1 for block in blocks if sum(block) > 7)
        assert all(sum(block) <= 7 for block in blocks if len(block) > 1)
        report = verify_negative_dependence(params, 1.1, 60, "never")
        for row in report.rows:
            assert row.joint == oracles.joint_moment_loop(params, 1.1, row.size), row.size

    @pytest.mark.parametrize("total, heavy", [(9, 0), (9, 9), (9, 4), (1000, 100), (3000, 1500)])
    def test_one_row_calls(self, total, heavy):
        """joint_moment and the weights that mgf_compare and exact_chi_square
        read are the one-row calls of the blocks: same bits as the loop."""
        params = ModelParams(total, heavy, 0.5)
        for size in sorted({1, heavy or 1, total // 2, total}):
            support, log_weights = _hypergeometric_log_weights(params, size)
            ref_support, ref_weights = oracles.hypergeometric_log_weights_row(params, size)
            assert np.array_equal(support, ref_support)
            assert np.array_equal(log_weights, ref_weights)
            assert joint_moment(params, 0.8, size) == oracles.joint_moment_loop(params, 0.8, size)

    def test_peak_memory_of_a_thousand_rows(self):
        params = ModelParams(1000, 100, 0.2)
        verify_negative_dependence(params, 1.0, 1000)  # builds the cached tables
        tracemalloc.start()
        try:
            verify_negative_dependence(params, 1.0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestBruteForceGuard:
    @pytest.mark.parametrize("total", range(2, 61))
    def test_matches_the_full_binomial(self, total):
        for heavy in range(total + 1):
            fits = math.comb(total, heavy) <= BRUTE_FORCE_LIMIT
            assert _brute_force_fits(ModelParams(total, heavy, 0.5)) == fits, heavy

    @pytest.mark.parametrize("total", [61, 100, 2000, 10**5, 10**7])
    def test_first_count_past_the_limit(self, total):
        heavy = next(m for m in range(total) if math.comb(total, m) > BRUTE_FORCE_LIMIT)
        for m in (heavy, total - heavy):
            assert not _brute_force_fits(ModelParams(total, m, 0.5))
        for m in (heavy - 1, total - heavy + 1):
            assert _brute_force_fits(ModelParams(total, m, 0.5))

    def test_large_instance_returns_at_once(self):
        """C(10^7, 5 x 10^6) has about 3 x 10^6 digits; the guard stops after
        a dozen products, so "auto" skips brute force without building it."""
        params = ModelParams(10**7, 5 * 10**6, 0.5)
        started = time.perf_counter()
        with pytest.raises(CapacityError):
            brute_force_joint_moment(params, 1.0, 1)
        assert time.perf_counter() - started < 0.1
        report = verify_negative_dependence(params, 1.0, 1, "auto")
        assert report.brute_max_error is None
        assert time.perf_counter() - started < 10.0
        negdep._log_half_binomial.cache_clear()  # drop the 5 x 10^6-entry table


class TestHypergeometricWeights:
    @pytest.mark.parametrize("count", [1, 2, 3, 10, 999, 1000, 24_000, 10**5])
    def test_half_tables_are_the_direct_form_and_its_mirror(self, count):
        """Each table is the two-row Loader form on 0..count // 2
        (oracles.log_dbinom_direct) and that half mirrored, byte for byte."""
        half = oracles.log_dbinom_direct(0, count // 2, count, 0.5)
        expected = np.concatenate((half, half[: (count + 1) // 2][::-1]))
        assert negdep._log_half_binomial(count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "total, heavy, size",
        [(1000, 100, 1), (1000, 100, 50), (1000, 100, 500), (1000, 100, 999), (3000, 1500, 100)],
    )
    def test_rows_match_forty_digits(self, total, heavy, size):
        """Every weight C(m, a) C(n, size - a) / C(N, size) above e^-700 within
        1e-12 relative (2.4e-13 measured; log-gamma carried up to 4.4e-12)."""
        support, log_weights = _hypergeometric_log_weights(ModelParams(total, heavy, 0.5), size)
        with mpmath.workdps(40):
            for a, log_weight in zip(support.tolist(), log_weights.tolist()):
                exact = mpmath.log(
                    mpmath.binomial(heavy, a) * mpmath.binomial(total - heavy, size - a)
                    / mpmath.binomial(total, size)
                )
                if exact > -700:
                    assert abs(mpmath.expm1(log_weight - exact)) <= 1e-12, a


class TestMomentComparisons:
    def test_factorial_example(self):
        # size 2, k = 2, half the balls heavy: 2 (1/2)^2 = 1/2 vs 2/(4 3/2) = 1/3
        binom, hyper = factorial_moment_comparison(ModelParams(4, 2, 0.5), 2, 2)
        assert binom == pytest.approx(0.5, rel=1e-14)
        assert hyper == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_k_beyond_size(self):
        assert factorial_moment_comparison(ModelParams(4, 2, 0.5), 2, 3) == (0.0, 0.0)

    def test_binomial_side_dominates(self):
        p = ModelParams(10, 4, 0.5)
        for size in (1, 3, 6, 10):
            for k in range(1, size + 1):
                binom, hyper = factorial_moment_comparison(p, size, k)
                assert binom >= hyper - 1e-14

    def test_mgf_example(self):
        binom, hyper = mgf_compare(ModelParams(4, 2, 0.5), 2.0, 2)
        assert binom == pytest.approx(2.25, rel=1e-14)
        assert hyper == pytest.approx(13.0 / 6.0, rel=1e-14)

    def test_mgf_domination_above_one(self):
        p = ModelParams(12, 5, 0.5)
        for u in (1.0, 1.5, 2.0, 4.0):
            for size in (1, 4, 8, 12):
                binom, hyper = mgf_compare(p, u, size)
                assert binom >= hyper - 1e-12

    def test_mgf_past_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binom, hyper = mgf_compare(ModelParams(3000, 1500, 0.5), 2.3, 3000)
        assert binom == math.inf
        assert hyper == math.inf
        for u in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                mgf_compare(ModelParams(10, 3, 0.5), u, 4)

    def test_mgf_large_finite_values_pinned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binom, hyper = mgf_compare(ModelParams(3000, 1500, 0.5), 2.3, 100)
        assert binom == 5.602661980034415e21
        # 40 digits at the float u = 2.3: 4.331009022456965200092928e21 (this
        # pin is 4.9e-14 off it; the log-gamma weights gave 4.331009022463609e21,
        # 1.5e-12 off)
        assert hyper == 4.331009022457177e21

    def test_mgf_at_one(self):
        binom, hyper = mgf_compare(ModelParams(9, 3, 0.5), 1.0, 5)
        assert binom == pytest.approx(1.0, rel=1e-14)
        assert hyper == pytest.approx(1.0, rel=1e-14)


class TestReport:
    def test_report_shape_and_pass(self):
        p = ModelParams(10, 3, 0.7)
        report = verify_negative_dependence(p, 1.0, 4)
        assert [row.size for row in report.rows] == [1, 2, 3, 4]
        assert report.passed
        assert report.min_slack >= SLACK_TOL
        assert report.brute_max_error is not None  # auto turns it on here
        assert report.brute_max_error < 1e-12

    def test_equality_at_single_rate(self):
        """alpha = 1 makes the indicators independent, killing every slack."""
        report = verify_negative_dependence(ModelParams(8, 3, 1.0), 1.3, 8)
        for row in report.rows:
            assert abs(row.slack) <= 1e-12

    def test_equality_at_time_zero(self):
        report = verify_negative_dependence(ModelParams(8, 3, 0.4), 0.0, 8)
        for row in report.rows:
            assert abs(row.slack) <= 1e-12

    def test_brute_modes(self):
        p = ModelParams(10, 3, 0.7)
        assert verify_negative_dependence(p, 1.0, 3, "never").brute_max_error is None
        always = verify_negative_dependence(p, 1.0, 3, "always")
        assert always.brute_max_error is not None
        with pytest.raises(ValueError):
            verify_negative_dependence(p, 1.0, 3, "sometimes")

    def test_brute_always_guard(self):
        with pytest.raises(CapacityError):
            verify_negative_dependence(ModelParams(40, 20, 0.5), 1.0, 2, "always")

    def test_json_dict(self, capsys):
        # the CLI's JSON body is the report's fields in declaration order
        argv = ["negdep", "--n-balls", "6", "--heavy", "2", "--alpha", "0.5"]
        assert cli.main([*argv, "--t-start", "1.0", "--max-size", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = verify_negative_dependence(ModelParams(6, 2, 0.5), 1.0, 2)
        assert payload["schema"] == "negdep-report/1"
        assert payload["total_balls"] == report.total_balls == 6
        assert len(payload["rows"]) == len(report.rows) == 2
        assert payload["passed"] is report.passed is True
        assert [row["joint"] for row in payload["rows"]] == [row.joint for row in report.rows]
        assert (list(payload), list(payload["rows"][0])) == (
            [
                "schema",
                "config",
                "total_balls",
                "heavy_count",
                "heavy_rate",
                "t",
                "rows",
                "min_slack",
                "passed",
                "brute_max_error",
            ],
            ["size", "joint", "product", "slack", "brute"],
        )

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            verify_negative_dependence(ModelParams(6, 2, 0.5), 1.0, 7)


class TestExactChiSquare:
    def test_matches_enumeration_oracle(self):
        for n, m, alpha, r, h, t in [
            (6, 2, 0.5, 4, 2, 1.0),
            (5, 2, 0.6, 1, 1, 0.7),
            (4, 1, 0.3, 0, 0, 0.4),
            (6, 3, 0.8, 3, 0, 2.0),
        ]:
            p = ModelParams(n, m, alpha)
            ours = exact_chi_square(p, t)
            reference = oracles.chi_square_mixture(n, m, alpha, r + h, t)
            assert ours == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_enumeration_oracle_from_every_start(self, n):
        """The value does not depend on the start: the bit-level oracle,
        which fixes `ones` initial ones, agrees for every one of them."""
        for m in range(n + 1):
            for alpha in (0.25, 0.5, 1.0):
                for t in (0.1, 0.5, 1.0, 3.0):
                    ours = exact_chi_square(ModelParams(n, m, alpha), t)
                    for ones in range(n + 1):
                        reference = oracles.chi_square_mixture(n, m, alpha, ones, t)
                        assert ours == pytest.approx(reference, rel=1e-12)

    def test_matches_forty_digit_sum(self):
        # rel 1e-11: on this grid the largest error measured is 8.0e-14 (2.5e-12
        # with log-gamma weights, at N = 1000, m = 1, t = 0)
        for n in (2, 3, 6, 40, 200, 1000):
            for m in sorted({1, n // 10, n // 2, n - 1}):
                for alpha in (0.1, 0.5, 1.0):
                    for t in (0.0, 0.5, 2.0, 8.0):
                        reference = oracles.chi_square_overlap_mp(n, m, alpha, t)
                        ours = exact_chi_square(ModelParams(n, m, alpha), t)
                        assert ours == pytest.approx(reference, rel=1e-11)

    def test_single_rate_equality(self):
        """With one clock rate the coordinates are independent and the
        chi-square factorises into (1 + z^2)^N - 1 exactly."""
        p = ModelParams(6, 2, 1.0)
        t = 1.0
        chi = exact_chi_square(p, t)
        z = mean_z(p, t)
        assert chi == pytest.approx((1 + z * z) ** 6 - 1.0, abs=1e-10)

    def test_two_rates_strictly_below_product_form(self):
        p = ModelParams(6, 2, 0.5)
        t = 1.0
        chi = exact_chi_square(p, t)
        z = mean_z(p, t)
        assert (1 + z * z) ** 6 - 1.0 - chi >= 1e-6

    def test_large_instances_are_finite(self):
        # N = 11 was past the old enumeration's guard; N = 10^6 sums 10^4 + 1 terms
        for p, t in [(ModelParams(11, 2, 0.5), 1.0), (ModelParams(10**6, 10**4, 0.2), 30.0)]:
            assert 0.0 < exact_chi_square(p, t) < math.inf

    @pytest.mark.parametrize("m", [1000, 20])
    def test_past_float_range_is_inf(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_chi_square(ModelParams(2000, m, 0.5), 0.0) == math.inf

    def test_no_cancellation_at_late_times(self):
        # the enumeration's 2^N sum(mu^2) - 1 rounds to 0.0 here (about 4e-18)
        value = exact_chi_square(ModelParams(10, 3, 0.5), 40.0)
        assert value > 0.0
        assert value == pytest.approx(
            oracles.chi_square_overlap_mp(10, 3, 0.5, 40.0), rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_chi_square(ModelParams(6, 2, 0.5), -1.0)

    def test_decreasing_in_time(self):
        p = ModelParams(6, 2, 0.5)
        values = [exact_chi_square(p, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
