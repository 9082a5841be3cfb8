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
    """N up to 400, m and max_size drawn with their extremes 0, N and 1, N
    weighted in."""
    total = draw(st.integers(2, 400))
    heavy = draw(st.one_of(st.sampled_from([0, total]), st.integers(0, total)))
    max_size = draw(st.one_of(st.sampled_from([1, total]), st.integers(1, total)))
    alpha = draw(st.floats(0.05, 1.0))
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    return ModelParams(total, heavy, alpha), t, max_size


def _assert_close(value, expected, what, rel=1e-12):
    """Within rel of expected where it is above 1e-300; below, where relative
    error means nothing (subnormal rounding), within 1e-300 absolute."""
    expected = float(expected)
    if expected > 1e-300:
        assert abs(value - expected) <= rel * expected, (what, value, expected)
    else:
        assert abs(value - expected) <= 1e-300, (what, value, expected)


def _turn(params, t):
    """floor(s*), s* = (m x + n y) / (x + y), from the survival floats."""
    x, y = math.exp(-params.heavy_rate * t), math.exp(-t)
    return int((params.heavy_count * x + params.regular_count * y) / (x + y))


# (N, m, alpha, t): N from 10^3 to 10^5; at t = 1 the rows of N = 10^5 past
# about 800 underflow, so two small-t instances keep its downward run in play
FORTY_DIGIT_CASES = [
    (1000, 100, 0.2, 1.0),
    (3000, 300, 0.5, 0.3),
    (10**4, 1000, 0.2, 0.01),
    (10**4, 9000, 0.7, 3.0),
    (10**5, 10**4, 0.2, 1.0),
    (10**5, 10**4, 0.2, 0.01),
    (10**5, 9 * 10**4, 0.9, 0.002),
]


class TestRecurrenceRows:
    """verify_negative_dependence computes every row by the three-term
    recurrence, up from J_0 below the turn s* and down from J_N above it."""

    @given(case=_negdep_cases())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_joint_moment_bit_for_bit(self, case):
        params, t, max_size = case
        report = verify_negative_dependence(params, t, max_size, "never")
        assert [row.size for row in report.rows] == list(range(1, max_size + 1))
        for row in report.rows:
            assert row.joint == joint_moment(params, t, row.size), row.size

    @given(case=_negdep_cases())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_hypergeometric_loop(self, case):
        """The per-size sums of math.exp terms the recurrence replaced stay the
        slower reference: every row within 1e-12 relative."""
        params, t, max_size = case
        report = verify_negative_dependence(params, t, max_size, "never")
        for row in report.rows:
            _assert_close(row.joint, oracles.joint_moment_loop(params, t, row.size), row.size)

    @given(
        total=st.integers(2, 400),
        heavy_frac=st.floats(0.0, 1.0),
        alpha=st.floats(1e-3, 1.0),
        t=st.one_of(st.just(0.0), st.floats(0.0, 700.0)),
        max_size=st.integers(1, 400),
    )
    @settings(max_examples=80, deadline=None)
    def test_row_one_is_mean_z(self, total, heavy_frac, alpha, t, max_size):
        """J_1 = (m x + n y) / N is mean_z's own arithmetic, so row 1's slack
        is exactly 0 (it read -2.1e-14 at (1000, 100, 0.2), t = 1, through the
        hypergeometric sums)."""
        params = ModelParams(total, round(heavy_frac * total), alpha)
        report = verify_negative_dependence(params, t, min(max_size, total), "never")
        assert report.rows[0].joint == mean_z(params, t)
        assert report.rows[0].slack == 0.0
        assert joint_moment(params, t, 1) == mean_z(params, t)

    def test_row_one_of_the_crosscheck_instance(self):
        report = verify_negative_dependence(ModelParams(1000, 100, 0.2), 1.0, 1000)
        assert report.rows[0].joint == mean_z(ModelParams(1000, 100, 0.2), 1.0)
        assert report.rows[0].slack == 0.0
        assert report.min_slack == 0.0

    @pytest.mark.parametrize("total, heavy, alpha, t", FORTY_DIGIT_CASES)
    def test_rows_match_forty_digits(self, total, heavy, alpha, t):
        """Every row above 1e-300 within 1e-12 relative of the 40-digit sum,
        at sizes 1, 3, 50, 300, floor(s*) - 1 .. floor(s*) + 2, N / 2, N - 1
        and N; x and y are the survival floats, taken exactly (1.4e-14 was
        the worst measured)."""
        params = ModelParams(total, heavy, alpha)
        rows = verify_negative_dependence(params, t, total, "never").rows
        turn = _turn(params, t)
        sizes = {1, 3, 50, 300, *range(turn - 1, turn + 3), total // 2, total - 1, total}
        for size in sorted(sizes):
            _assert_close(rows[size - 1].joint, oracles.joint_moment_mp(params, t, size), size)

    @pytest.mark.parametrize(
        "total, heavy, alpha, t",
        [(10**5, 10**4, 0.2, 0.01), (10**5, 5 * 10**4, 0.5, 0.001), (10**5, 9 * 10**4, 0.9, 0.002)],
    )
    def test_long_runs_stay_within_1e13(self, total, heavy, alpha, t):
        """Both runs walk about 5 x 10^4 steps here; their roundings vary from
        step to step, so the error stays near 1e-14 (1.3e-14 measured).  A
        product such as x y rounded once and used at every step biases every
        step alike: with x y taken once in both runs, the worst sampled row
        of each instance read 2e-13 to 5e-13."""
        params = ModelParams(total, heavy, alpha)
        turn = _turn(params, t)
        moments = negdep._joint_moments(params, t, range(1, total + 1))
        # turn and turn + 1 end the upward and the downward walk
        for size in (turn // 2, turn, turn + 1, turn + 2000, total - 1):
            _assert_close(moments[size - 1], oracles.joint_moment_mp(params, t, size), size, 1e-13)

    def test_all_rows_of_a_large_instance_at_once(self):
        """Every row of N = 10^5 is O(N) steps: about 0.25 s with the report's
        rows built (the hypergeometric sums took minutes)."""
        params = ModelParams(10**5, 10**4, 0.2)
        started = time.perf_counter()
        report = verify_negative_dependence(params, 1.0, 10**5)
        assert time.perf_counter() - started < 2.0
        assert len(report.rows) == 10**5
        assert report.passed and report.min_slack == 0.0

    @pytest.mark.parametrize("total, heavy", [(9, 0), (9, 9), (9, 4), (1000, 100), (3000, 1500)])
    def test_one_row_calls(self, total, heavy):
        """The weights that mgf_compare and exact_chi_square read are the
        per-size route's bits; joint_moment is within 1e-12 of its loop."""
        params = ModelParams(total, heavy, 0.5)
        for size in sorted({1, heavy or 1, total // 2, total}):
            support, log_weights = _hypergeometric_log_weights(params, size)
            ref_support, ref_weights = oracles.hypergeometric_log_weights_row(params, size)
            assert np.array_equal(support, ref_support)
            assert np.array_equal(log_weights, ref_weights)
            _assert_close(joint_moment(params, 0.8, size),
                          oracles.joint_moment_loop(params, 0.8, size), size)

    def test_peak_memory_of_a_thousand_rows(self):
        params = ModelParams(1000, 100, 0.2)
        verify_negative_dependence(params, 1.0, 1000)  # a first call, outside the trace
        tracemalloc.start()
        try:
            verify_negative_dependence(params, 1.0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestRecurrenceEdges:
    """Instances where the recurrence needs its explicit cases, each against
    the hypergeometric loop: exactly 0 where the loop reads 0, else as
    _assert_close."""

    @staticmethod
    def _check(params, t):
        report = verify_negative_dependence(params, t, params.total_balls, "never")
        for row in report.rows:
            expected = oracles.joint_moment_loop(params, t, row.size)
            if expected == 0.0:
                assert row.joint == 0.0, row.size
            else:
                _assert_close(row.joint, expected, row.size)
        return [row.joint for row in report.rows]

    @pytest.mark.parametrize("total, heavy", [(50, 10), (301, 0), (301, 301), (400, 399)])
    def test_time_zero_rows_are_one(self, total, heavy):
        assert self._check(ModelParams(total, heavy, 0.3), 0.0) == [1.0] * total

    @pytest.mark.parametrize("t", [0.05, 1.0, 7.0])
    def test_single_rate_is_a_power(self, t):
        """alpha = 1 makes J_s = x^s: the turn is N / 2."""
        rows = self._check(ModelParams(300, 120, 1.0), t)
        x = math.exp(-t)
        with mpmath.workdps(40):
            for size, joint in enumerate(rows, start=1):
                _assert_close(joint, mpmath.mpf(x) ** size, size)

    @pytest.mark.parametrize("heavy", [0, 200])
    @pytest.mark.parametrize("t", [0.01, 1.0, 5.0])
    def test_one_species(self, heavy, t):
        """m = 0 and m = N: J_N's neighbour is x^m y^n (m / x + n / y) / N,
        which needs neither x^(m - 1) nor y^(n - 1); the absent survival is
        read but cancels."""
        params = ModelParams(200, heavy, 0.4)
        rows = self._check(params, t)
        base = math.exp(-0.4 * t) if heavy else math.exp(-t)
        with mpmath.workdps(40):
            for size, joint in enumerate(rows, start=1):
                _assert_close(joint, mpmath.mpf(base) ** size, size)

    @pytest.mark.parametrize("alpha", [0.001, 0.078])
    def test_regular_survival_underflows(self, alpha):
        """y = e^-800 is 0: J_{s+1} = J_s x (m - s) / (N - s) up to m and 0
        past it, with the turn at m exactly; at alpha = 0.078 the rounded
        s* = 10 x / x reads 9.999999999999998."""
        params = ModelParams(50, 10, alpha)
        assert math.exp(-800.0) == 0.0
        rows = self._check(params, 800.0)
        assert all(joint > 0.0 for joint in rows[:10])
        assert rows[10:] == [0.0] * 40
        for size in range(1, 11):
            _assert_close(rows[size - 1], oracles.joint_moment_mp(params, 800.0, size), size)

    def test_survival_product_underflows(self):
        """x = y = e^-400 are normal but x y is not: J_1 = x, every later row
        underflows to 0, and the downward run divides by x and y in turn."""
        params = ModelParams(50, 10, 1.0)
        x = math.exp(-400.0)
        assert x > 0.0 and x * x == 0.0
        assert self._check(params, 400.0) == [x] + [0.0] * 49

    def test_subnormal_regular_survival(self):
        """y = e^-720 is subnormal, x about 0.49: rows up to m are normal, the
        rows past it underflow, and nothing overflows along the way."""
        params = ModelParams(50, 40, 0.001)
        rows = self._check(params, 720.0)
        for size in (1, 20, 39, 40):
            _assert_close(rows[size - 1], oracles.joint_moment_mp(params, 720.0, size), size)
        assert all(joint <= 1e-300 for joint in rows[40:])


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
