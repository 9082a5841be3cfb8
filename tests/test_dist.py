import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import oracles
from urnlab import dist as dist_module
from urnlab.bounds import kolmogorov_lower_bound
from urnlab.model import CapacityError, InitialState, ModelParams
from urnlab.dist import (
    _initial_states,
    _sum_law,
    Pmf,
    binomial_pmf,
    chain_law,
    chain_tv,
    convolve,
    coordinate_law,
    distance_curve,
    observable_mean_variance,
    observed_law,
    observed_tv,
    stationary_chain,
    stationary_observed,
    survival,
    tv,
    tv_product,
)


def _corners(p: ModelParams) -> set[InitialState]:
    """The extreme starts (r, h), r in {0, n} and h in {0, m}."""
    return {InitialState(r, h) for r in (0, p.regular_count) for h in (0, p.heavy_count)}


class TestPmf:
    def test_clamps_tiny_negatives(self):
        p = Pmf([0.5, 0.5, -1e-14])
        assert p.probs[2] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.6, -0.1])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.4])

    def test_renormalises_small_drift(self):
        p = Pmf([0.5, 0.5 + 1e-11])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_moments(self):
        p = Pmf([0.25, 0.5, 0.25])
        assert p.mean() == pytest.approx(1.0)
        assert p.variance() == pytest.approx(0.5)

    @given(
        digits=st.floats(min_value=0.0, max_value=8.0),
        prob=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        mirrored=st.booleans(),
    )
    @example(digits=8.0, prob=0.5, mirrored=False)
    @example(digits=6.0, prob=0.31, mirrored=True)
    @settings(max_examples=60, deadline=None)
    def test_mean_keeps_the_integer_index_dot_bit_for_bit(self, digits, prob, mirrored):
        """mean() dots a float index into the window; an integer index, which
        numpy casts to float before the same dot, gives the same bits, on
        windows up to 3.5e5 entries (10^8 trials) and reversed ones."""
        table = binomial_pmf(round(10**digits), prob)
        if mirrored:
            table = table.reversed()
        index = np.arange(table.offset, table.offset + table.window.size)
        assert table.mean() == float(index @ table.window)

    def test_frozen(self):
        p = Pmf([1.0])
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    def test_stores_the_trimmed_window(self):
        dense = np.array([0.0, 0.0, 0.25, 0.0, 0.5, 0.25, 0.0])
        p = Pmf(dense)
        assert (p.offset, len(p)) == (2, 7)
        np.testing.assert_array_equal(p.window, [0.25, 0.0, 0.5, 0.25])
        assert p.probs.tobytes() == dense.tobytes()
        assert not p.probs.flags.writeable
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    def test_window_with_offset_and_size(self):
        p = Pmf([0.0, 0.5, 0.5], offset=3, size=10)
        assert (p.offset, len(p)) == (4, 10)
        np.testing.assert_array_equal(p.probs, [0, 0, 0, 0, 0.5, 0.5, 0, 0, 0, 0])
        assert p.mean() == pytest.approx(4.5)
        for offset, size in ((-1, 10), (8, 10)):
            with pytest.raises(ValueError, match="support"):
                Pmf([0.5, 0.5, 0.0], offset, size)

    def test_reversed_is_the_law_of_size_minus_one_minus_x(self):
        p = Pmf([0.0, 0.25, 0.0, 0.75], offset=2, size=9)
        mirror = p.reversed()
        assert (mirror.offset, len(mirror)) == (3, 9)
        assert mirror.probs.tobytes() == p.probs[::-1].tobytes()
        assert mirror.mean() == pytest.approx(8 - p.mean())
        assert not mirror.window.flags.writeable


class TestBinomialPmf:
    @pytest.mark.parametrize(
        "trials, prob",
        [(1, 0.5), (7, 0.3), (50, 0.01), (200, 0.99), (1000, 0.4)],
    )
    def test_matches_scipy(self, trials, prob):
        ours = binomial_pmf(trials, prob).probs
        reference = scipy.stats.binom.pmf(np.arange(trials + 1), trials, prob)
        np.testing.assert_allclose(ours, reference, rtol=1e-11, atol=1e-300)

    # (trials, p): the README and benchmark sizes, and one p whose n p is not
    # a float (at 10^6 its rounding alone moves entries 30 sd out by 1.7e-12)
    ORACLE_CASES = [
        (1000, 0.115), (9000, 0.36), (10**4, 0.5), (10**5, 0.5),
        (10**6, 0.31), (10**6, 0.4765969541523558),
    ]

    @pytest.mark.parametrize("trials, prob", ORACLE_CASES)
    def test_matches_forty_digits(self, trials, prob):
        """Within 1e-12 relative of 40-digit arithmetic at the mode, 3, 9 and
        20 standard deviations out and the end points (an end point past the
        float range must read 0.0 or its nearest subnormal)."""
        table = binomial_pmf(trials, prob).probs
        mean, sd = trials * prob, math.sqrt(trials * prob * (1.0 - prob))
        points = {0, trials, int((trials + 1) * prob)}
        points |= {round(mean + z * sd) for z in (-20, -9, -3, 3, 9, 20)}
        for k in sorted(points):
            reference = oracles.binomial_pmf_mp(trials, prob, k)
            assert abs(table[k] - reference) <= 1e-12 * reference + 5e-324, k

    @pytest.mark.parametrize("trials, prob", ORACLE_CASES)
    def test_nonzero_span_is_the_full_evaluation(self, trials, prob):
        ours = binomial_pmf(trials, prob).probs
        reference = oracles.binomial_pmf_log_gamma(trials, prob)
        span, reference_span = np.flatnonzero(ours), np.flatnonzero(reference)
        assert (span[0], span[-1]) == (reference_span[0], reference_span[-1])

    @given(
        trials=st.integers(min_value=0, max_value=3000),
        prob=st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=1e-300, max_value=1e-3),
        ),
    )
    @example(trials=3, prob=1.0 - 2.0**-53)  # n - n p would read 4e-16, not 3e-16
    @example(trials=3, prob=5e-324)  # k / (n p) overflows
    # b(129) = 2.21e-324 rounds to 0.0 and b(371) = 2.54e-324 to 5e-324; a
    # product rounded into the subnormal range before its last factor can
    # read 5e-324 at the first and reads 0.0 at the second
    @example(trials=288, prob=0.0006837361039723803)
    @example(trials=1148, prob=0.8342670488203054)
    @settings(max_examples=200, deadline=None)
    def test_window_keeps_the_zero_pattern(self, trials, prob):
        """The Chernoff window drops only entries that the full log-gamma
        evaluation rounds to 0.0, and keeps every one it does not."""
        ours = binomial_pmf(trials, prob).probs
        reference = oracles.binomial_pmf_log_gamma(trials, prob)
        assert np.array_equal(ours > 0.0, reference > 0.0)
        np.testing.assert_allclose(ours, reference, rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("prob", [0.01, 0.3, 0.4999])
    @pytest.mark.parametrize("trials", [10**3, 10**4, 10**5, 10**6, 10**7])
    def test_matches_forty_digits_at_block_edges(self, trials, prob):
        """Within 1e-12 relative of 40-digit arithmetic (plus the smallest
        subnormal) at every anchor of the recurrence, one step to either
        side of it and 511 steps out from it, on both sides of the mode:
        2,202 points, at most 2.0e-13 off."""
        table = binomial_pmf(trials, prob)
        lo, hi = dist_module._window(trials, prob)
        mode = min(max(int((trials + 1) * prob), lo), hi)
        block = dist_module._BLOCK
        points = set()
        for anchor in range(mode, hi + 1, block):
            points |= {anchor - 1, anchor, anchor + 1, anchor + block - 1}
        for anchor in range(mode, lo - 1, -block):
            points |= {anchor - 1, anchor, anchor + 1, anchor - block + 1}
        dense = table.probs
        for k in sorted(k for k in points if lo <= k <= hi):
            reference = oracles.binomial_pmf_mp(trials, prob, k)
            assert abs(dense[k] - reference) <= 1e-12 * reference + 5e-324, k

    @given(
        trials=st.integers(min_value=1, max_value=10**7),
        prob=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.floats(min_value=1e-8, max_value=1e-3),
        ),
        place=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(trials=2396426, prob=0.011183996989124725, place=12087 / 12599)
    @settings(max_examples=300, deadline=None)
    def test_anchor_is_loaders_log_value(self, trials, prob, place):
        """The scalar anchor against Loader's vector form
        (oracles.log_dbinom_direct(k, k, n, p)) across the window: within
        8 u max(1, |log b|) where the vector form's bd0 runs its series
        (|v| < 1/10) on both rows, and within 8 u (|log b| + max(k, n - k))
        elsewhere, where its direct form loses up to x 2^-53.
        The largest gap found was 3.0e-12, at Binomial(2396426, 0.0112),
        k = 32834 (log b = -646.8; the example)."""
        lo, hi = dist_module._window(trials, prob)
        k = lo + round(place * (hi - lo))
        means = dist_module._means(trials, prob)
        scalar = dist_module._log_dbinom_at(k, trials, prob, means)
        vector = float(oracles.log_dbinom_direct(k, k, trials, prob)[0])
        mean, rest = means[0], means[1]
        in_series = all(abs(x - m) < (x + m) / 10 for x, m in ((k, mean), (trials - k, rest)))
        if k in (0, trials) or in_series:
            bound = max(1.0, abs(vector))
        else:
            bound = abs(vector) + max(k, trials - k)
        assert abs(scalar - vector) <= 8 * 2.0**-53 * bound

    @given(
        trials=st.integers(min_value=1, max_value=3000),
        prob=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.floats(min_value=1e-300, max_value=1e-3),
        ),
    )
    @example(trials=539, prob=0.0006431823297116543)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_direct_route(self, trials, prob):
        """Within 1e-12 relative of Loader's form at every entry
        (oracles.binomial_pmf_direct, the route the ratio recurrence
        replaced) wherever that exceeds 1e-290; at most 4.4e-13 was found.
        Up to 3,000 trials: past about 9,000 the direct route is itself
        more than 1e-12 off 40 digits deep in the tails (2.3e-12 found at
        2.4 x 10^6 trials), and test_matches_forty_digits_at_block_edges
        checks those tables against 40 digits instead."""
        ours = binomial_pmf(trials, prob).probs
        reference = oracles.binomial_pmf_direct(trials, prob)
        shown = reference > 1e-290
        np.testing.assert_allclose(ours[shown], reference[shown], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "trials, prob",
        [(194_333, 0.479), (1_990_048, 0.404), (5_213_925, 0.654), (5_232_520, 0.104)],
    )
    def test_mass_stays_within_rounding_of_one(self, trials, prob):
        """The odds p / q and q / p are rounded once and what the rounding
        left out is put back per column.  Rounded alone, they bias every
        ratio of a row the same way, and these tables' mass drifted 1.3e-14
        to 1.6e-14 from 1; with the rest put back, at most 2.2e-15 was found
        over 3,000 random tables from 10 to 10^7 trials."""
        assert abs(float(binomial_pmf(trials, prob).window.sum()) - 1.0) <= 4e-15

    @given(
        trials=st.one_of(
            st.integers(min_value=1, max_value=3000),
            st.integers(min_value=1, max_value=10**9),
        ),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        lower_half=st.booleans(),
    )
    @example(trials=1, ends=(0.0, 1.0), lower_half=False)
    @example(trials=10, ends=(0.0, 1.0), lower_half=False)
    @example(trials=2000, ends=(0.0, 1.0), lower_half=False)
    @example(trials=10**5, ends=(0.0, 1.0), lower_half=False)
    @example(trials=10**5, ends=(0.0, 1.0), lower_half=True)
    @example(trials=10**8, ends=(0.0, 1.0), lower_half=False)
    @example(trials=10**9, ends=(0.0, 1.0), lower_half=False)
    @example(trials=10**9, ends=(0.2, 0.7), lower_half=False)
    @settings(max_examples=200, deadline=None)
    def test_half_is_the_direct_route_bit_for_bit(self, trials, ends, lower_half):
        """p = 1/2 reads one row of Loader's form at k and at n - k
        (_log_dbinom_half), byte for byte the two-row form it replaced
        (oracles.log_dbinom_direct), so the stationary laws keep their bits:
        on any [lo, hi] in [0, n] up to 10^6 trials and in the Chernoff
        window past that, and on its lower half (negdep's (0, n // 2))."""
        lo, hi = (0, trials) if trials <= 10**6 else dist_module._window(trials, 0.5)
        if lower_half:
            hi = trials // 2
        else:
            lo, hi = sorted(lo + round(end * (hi - lo)) for end in ends)
        ours = dist_module._log_dbinom_half(lo, hi, trials)
        assert ours.tobytes() == oracles.log_dbinom_direct(lo, hi, trials, 0.5).tobytes()

    @pytest.mark.parametrize(
        "trials, k",
        [(12_000, 4_093), (20_000, 7_470), (24_000, 9_289), (24_750, 9_580), (39_750, 16_259)],
    )
    def test_half_tails_against_forty_digits(self, trials, k):
        """_log_dbinom_half's stated bound deep in the tails, where the
        direct bd0 loses up to x 2^-53 on each row x = k, n - k: within
        n 2^-53 + 1e-13 relative of 40 digits.  Each point is the largest
        error found over every entry above 1e-290 at its size, 1.07e-12 to
        2.22e-12 (at n = 24,750), past the 1e-12 the other tables keep."""
        with mpmath.workdps(40):
            exact = (
                mpmath.loggamma(trials + 1) - mpmath.loggamma(k + 1)
                - mpmath.loggamma(trials - k + 1) - trials * mpmath.log(2)
            )
            ours = mpmath.mpf(float(dist_module._log_dbinom_half(k, k, trials)[0]))
            error = abs(float(mpmath.expm1(ours - exact)))
        assert error <= trials * 2.0**-53 + 1e-13

    @given(
        trials=st.integers(min_value=1, max_value=10**9),
        prob=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.floats(min_value=5e-324, max_value=1e-300),
            st.floats(min_value=1.0 - 1e-12, max_value=1.0, exclude_max=True),
        ),
    )
    @example(trials=3, prob=5e-324)
    @example(trials=10**9, prob=5e-324)
    @example(trials=10**9, prob=1.0 - 2.0**-53)
    @example(trials=10**9, prob=0.5)
    @example(trials=9000, prob=0.36)
    @settings(max_examples=300, deadline=None)
    def test_window_edges_equal_the_bisection(self, trials, prob):
        """The Newton-estimated, certified window edges are the ones a
        bisection over each whole side finds (oracles.window_bisection)."""
        assert dist_module._window(trials, prob) == oracles.window_bisection(trials, prob)

    @given(n=st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_scalar_stirlerr_is_the_series_bit_for_bit(self, n):
        expected = dist_module._STIRLERR[n] if n <= 15 else (
            dist_module._stirlerr_series(np.array([float(n)]), n)[0]
        )
        assert dist_module._stirlerr(n) == expected

    def test_degenerate_probs(self):
        assert binomial_pmf(5, 0.0).probs[0] == 1.0
        assert binomial_pmf(5, 1.0).probs[5] == 1.0
        assert len(binomial_pmf(0, 0.3)) == 1

    def test_stores_only_the_window(self):
        """About 39 sqrt(trials) entries at p = 1/2, not the 10^8 + 1 of the support."""
        p = binomial_pmf(10**8, 0.5)
        assert len(p) == 10**8 + 1
        assert p.window.size < 400_000
        assert float(p.window.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_large_count_keeps_mass(self):
        p = binomial_pmf(2 * 10**6, 0.5)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(5, 1.2)


def _span(table: Pmf) -> np.ndarray:
    """Entries from the first to the last non-zero one."""
    nonzero = np.flatnonzero(table.probs)
    return table.probs[nonzero[0] : nonzero[-1] + 1]


def _assert_convolve_matches_dense(a: Pmf, b: Pmf) -> None:
    """convolve against the full-length oracle: same length, exact zeros
    outside the sum of the two non-zero spans, entries within 1e-16."""
    got = convolve(a, b).probs
    expected = oracles.convolve_dense(a.probs, b.probs)
    assert got.size == expected.size == len(a) + len(b) - 1
    nonzero_a, nonzero_b = np.flatnonzero(a.probs), np.flatnonzero(b.probs)
    assert np.all(got[: nonzero_a[0] + nonzero_b[0]] == 0.0)
    assert np.all(got[nonzero_a[-1] + nonzero_b[-1] + 1 :] == 0.0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)


@st.composite
def _dyadic_count_table(draw):
    """A pmf from small integer weights over a power-of-two total, with zero
    heads, zero tails and interior zeros (a single entry is a point mass).

    The power-of-two total makes every product and partial sum of two such
    tables exact, so any summation order gives the same bits.  With other
    totals a reordered sum can differ by one ulp, and one ulp of an entry
    above 1/2 (1.1e-16) exceeds the 1e-16 tolerance: [1/3, 2/3] convolved
    with [2/3, 1/3] reads 5/9 correctly rounded from the spans and one ulp
    low from the full tables.
    """
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    scale = 1 << max(sum(weights) - 1, 0).bit_length()
    weights[draw(st.integers(0, len(weights) - 1))] += scale - sum(weights)
    head, tail = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return Pmf(np.concatenate([np.zeros(head), np.array(weights) / scale, np.zeros(tail)]))


class TestConvolve:
    def test_two_dice(self):
        die = Pmf(np.full(6, 1 / 6))
        total = convolve(die, die)
        assert len(total) == 11
        assert total.probs[0] == pytest.approx(1 / 36)
        assert total.probs[5] == pytest.approx(6 / 36)

    @given(
        a=st.integers(min_value=0, max_value=40),
        b=st.integers(min_value=0, max_value=40),
        prob=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_binomial_semigroup(self, a, b, prob):
        """Bin(a, p) + Bin(b, p) = Bin(a + b, p)."""
        left = convolve(binomial_pmf(a, prob), binomial_pmf(b, prob))
        right = binomial_pmf(a + b, prob)
        np.testing.assert_allclose(left.probs, right.probs, atol=1e-12)

    @given(a=_dyadic_count_table(), b=_dyadic_count_table())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_with_zero_heads_tails_and_gaps(self, a, b):
        point = Pmf([1.0])
        for x, y in ((a, b), (b, a), (a, point), (point, b)):
            _assert_convolve_matches_dense(x, y)

    @given(
        total=st.integers(2, 60),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.floats(0.05, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_on_time_zero_corner_laws(self, total, heavy_share, alpha):
        p = ModelParams(total, round(heavy_share * total), alpha)
        for init in _corners(p):
            _assert_convolve_matches_dense(*chain_law(p, init, 0.0))

    def test_matches_dense_at_large_sizes(self):
        _assert_convolve_matches_dense(binomial_pmf(90_000, 0.5), binomial_pmf(10_000, 0.275))

    def test_observed_law_convolves_only_nonzero_spans(self, monkeypatch):
        """At N = 10^5 most entries of each binomial table underflow to exact
        zeros; np.convolve must see only the first-to-last non-zero spans.  The
        start puts balls of each species on both sides, so each coordinate law
        convolves two non-trivial binomials."""
        seen = []
        dense = np.convolve

        def spy(x, y):
            seen.append((x, y))
            return dense(x, y)

        params, start, t = ModelParams(100_000, 10_000, 0.2), InitialState(30_000, 2_000), 5.0
        monkeypatch.setattr(dist_module.np, "convolve", spy)
        law = observed_law(params, start, t)
        monkeypatch.undo()
        assert len(law) == params.total_balls + 1
        assert len(seen) == 3  # one per coordinate law, one for their sum
        for table in (v for pair in seen for v in pair):
            assert table[0] != 0.0 and table[-1] != 0.0
        regular, heavy = chain_law(params, start, t)
        assert np.array_equal(seen[-1][0], _span(regular))
        assert np.array_equal(seen[-1][1], _span(heavy))
        assert _span(regular).size < len(regular) / 4


class TestSurvival:
    def test_time_zero(self):
        pair = survival(ModelParams(10, 3, 0.5), 0.0)
        assert pair.heavy_survival == 1.0
        assert pair.regular_survival == 1.0
        assert pair.heavy_flip == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            survival(ModelParams(10, 3, 0.5), -0.1)

    def test_nan_time_rejected(self):
        # a NaN time passes every `t < 0` test, so it must be refused as input
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                survival(ModelParams(10, 3, 0.5), t)
            with pytest.raises(ValueError, match="non-negative"):
                coordinate_law(5, 2, 1.0, t)

    def test_values(self):
        pair = survival(ModelParams(10, 3, 0.25), 2.0)
        assert pair.heavy_survival == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert pair.regular_survival == pytest.approx(math.exp(-2.0), rel=1e-15)

    @given(t=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=50)
    def test_flip_survival_identity(self, t):
        pair = survival(ModelParams(10, 3, 0.3), t)
        assert pair.heavy_flip == pytest.approx((1 - pair.heavy_survival) / 2, abs=1e-15)
        assert pair.regular_flip == pytest.approx(
            (1 - pair.regular_survival) / 2, abs=1e-15
        )

    def test_flip_precise_at_tiny_times(self):
        # expm1 keeps the flip probability exact where 1 - e^{-at} would cancel
        pair = survival(ModelParams(10, 3, 0.5), 1e-12)
        assert pair.heavy_flip == pytest.approx(0.25e-12, rel=1e-9)


class TestLaws:
    def test_observed_law_matches_generator_oracle(self):
        p = ModelParams(7, 2, 0.3)
        init = InitialState(5, 0)
        for t in (0.1, 0.7, 2.5):
            ours = observed_law(p, init, t).probs
            reference = oracles.observed_law(5, 2, 0.3, 5, 0, t)
            np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_chain_law_matches_generator_oracle(self):
        p = ModelParams(6, 3, 0.6)
        init = InitialState(1, 2)
        regular, heavy = chain_law(p, init, 0.9)
        ours = np.outer(regular.probs, heavy.probs)
        reference = oracles.joint_law(3, 3, 0.6, 1, 2, 0.9)
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_law_at_time_zero_is_point_mass(self):
        p = ModelParams(8, 3, 0.5)
        law = observed_law(p, InitialState(2, 1), 0.0)
        assert law.probs[3] == pytest.approx(1.0)

    def test_law_converges_to_stationary(self):
        p = ModelParams(8, 3, 0.5)
        late = observed_law(p, InitialState(0, 0), 60.0)
        assert tv(late, stationary_observed(p)) < 1e-10

    def test_stationary_shapes(self):
        p = ModelParams(8, 3, 0.5)
        assert len(stationary_observed(p)) == 9
        regular, heavy = stationary_chain(p)
        assert len(regular) == 6
        assert len(heavy) == 4

    def test_init_validated(self):
        p = ModelParams(8, 3, 0.5)
        with pytest.raises(ValueError):
            observed_law(p, InitialState(6, 0), 1.0)

    @given(
        count=st.integers(0, 3000),
        all_left=st.booleans(),
        rate=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        t=st.one_of(st.sampled_from([0.0, 1e-12, 1e3]), st.floats(0.0, 60.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_sided_start_is_the_one_binomial(self, count, all_left, rate, t):
        """With every ball on one side the other factor is a point mass, and
        the one table returned as built is the convolution with it, bit for
        bit: window, offset and size.  The starters' factor is the flip table
        reversed."""
        ones = count if all_left else 0
        flip = dist_module._flip(rate, t)
        convolved = convolve(
            binomial_pmf(ones, flip).reversed(), binomial_pmf(count - ones, flip)
        )
        law = coordinate_law(count, ones, rate, t)
        assert (law.offset, len(law)) == (convolved.offset, len(convolved))
        assert law.window.tobytes() == convolved.window.tobytes()


class TestMirrorTable:
    """The law from c - k starters left against the one from k reversed
    (the mirror distance_curve reads for (r, m - h)): every starters' table
    is the flip table reversed, so both are built from the one flip."""

    @given(
        m=st.integers(0, 3000),
        rate=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        t=st.one_of(st.sampled_from([0.0, 1e-12, 1e3]), st.floats(0.0, 60.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_reversal_matches_the_direct_table(self, m, rate, t):
        """From a one-sided start they are the same table, bit for bit."""
        mirror = coordinate_law(m, 0, rate, t).reversed()
        direct = coordinate_law(m, m, rate, t)
        assert (mirror.offset, len(mirror)) == (direct.offset, len(direct))
        assert mirror.window.tobytes() == direct.window.tobytes()

    @given(
        data=st.data(),
        count=st.integers(2, 3000),
        rate=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        t=st.one_of(st.sampled_from([1e-12, 1e3]), st.floats(0.0, 60.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_interior_start_mirrors_within_rounding(self, data, count, rate, t):
        """From an interior start they convolve the same two factor tables in
        the other order, so they agree to the rounding of the sums: at most
        1.2e-15 relative was measured over 2,400 random cases.  Entries below
        1e-300 are compared absolutely."""
        k = data.draw(st.integers(1, count - 1))
        mirror = coordinate_law(count, k, rate, t).reversed()
        direct = coordinate_law(count, count - k, rate, t)
        assert len(mirror) == len(direct) == count + 1
        larger = np.maximum(mirror.probs, direct.probs)
        allowed = 4e-15 * larger + 1e-300
        assert np.all(np.abs(mirror.probs - direct.probs) <= allowed)

    @pytest.mark.parametrize(
        "m, rate, t", [(3000, 1.0, 1e-6), (3000, 0.3, 5.0), (100, 0.01, 0.01)]
    )
    def test_reversal_is_the_accurate_table(self, m, rate, t):
        """Against 40 digits at the exact flip (1 - e^{-rate t}) / 2, the
        reversal is within 1e-12 relative at 13 points across its entries
        above 1e-290.  A table built from 1 - flip rounded to a float was off
        by 6.5e-9 relative one step from its mode at t = 1e-6."""
        mirror = coordinate_law(m, 0, rate, t).reversed()
        above = np.flatnonzero(mirror.window > 1e-290) + mirror.offset
        with mpmath.workdps(40):
            flip = -mpmath.expm1(-mpmath.mpf(rate) * mpmath.mpf(t)) / 2
            for k in np.unique(np.linspace(above[0], above[-1], 13).round().astype(int)):
                k = int(k)
                exact = mpmath.binomial(m, k) * (1 - flip) ** k * flip ** (m - k)
                assert abs(mirror.window[k - mirror.offset] - exact) <= 1e-12 * exact

    def test_interior_start_is_accurate(self):
        """From 1,500 of 3,000 balls left at t = 1e-6 the law is within 1e-12
        relative of 40 digits at its seven central entries (3.5e-15 was
        measured).  A starters' table built from 1 - flip rounded to a float
        was off by 3.8e-10 there."""
        law = coordinate_law(3000, 1500, 1.0, 1e-6)
        with mpmath.workdps(40):
            flip = -mpmath.expm1(-mpmath.mpf(1e-6)) / 2
            stayed = [oracles.binomial_pmf_mp(1500, 1 - flip, j) for j in range(1501)]
            joined = [oracles.binomial_pmf_mp(1500, flip, j) for j in range(1501)]
            for k in range(1496, 1503):
                exact = mpmath.fsum(
                    stayed[j] * joined[k - j] for j in range(max(0, k - 1500), min(k, 1500) + 1)
                )
                assert abs(law.window[k - law.offset] - exact) <= 1e-12 * exact


class TestTv:
    def test_identical_laws(self):
        p = binomial_pmf(10, 0.4)
        assert tv(p, p) == 0.0

    def test_known_value(self):
        assert tv(Pmf([1.0]), Pmf([0.5, 0.5])) == pytest.approx(0.5)

    def test_point_mass_vs_uniform_coin(self):
        # tv(delta_0, Bin(4, 1/2)) = 1 - 1/16
        point = Pmf([1.0])
        assert tv(point, binomial_pmf(4, 0.5)) == pytest.approx(0.9375)

    @given(
        trials=st.integers(min_value=1, max_value=30),
        p1=st.floats(min_value=0.0, max_value=1.0),
        p2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_and_symmetry(self, trials, p1, p2):
        a, b = binomial_pmf(trials, p1), binomial_pmf(trials, p2)
        d = tv(a, b)
        assert 0.0 <= d <= 1.0
        assert d == tv(b, a)

    @given(a=_dyadic_count_table(), b=_dyadic_count_table())
    @settings(max_examples=80, deadline=None)
    def test_windows_match_the_dense_half_sum(self, a, b):
        """Dyadic tables sum exactly in any order, so the sum over the
        windows, which skips the zeros between disjoint ones, equals the
        dense half-sum bit for bit."""
        width = max(len(a), len(b))
        pa, pb = (np.pad(f.probs, (0, width - len(f))) for f in (a, b))
        assert tv(a, b) == min(1.0, 0.5 * float(np.abs(pa - pb).sum()))

    def test_tv_product_equals_flattened(self):
        x = (binomial_pmf(5, 0.3), binomial_pmf(3, 0.8))
        y = (binomial_pmf(5, 0.5), binomial_pmf(3, 0.5))
        flat_x = Pmf(np.outer(x[0].probs, x[1].probs).ravel())
        flat_y = Pmf(np.outer(y[0].probs, y[1].probs).ravel())
        assert tv_product(x, y) == pytest.approx(tv(flat_x, flat_y), abs=1e-14)

    def test_tv_product_equal_heavy_factor_reduces_to_regular(self):
        # a shared factor drops out: x (x) z vs y (x) z is tv(x, y) apart
        x = (binomial_pmf(1500, 0.2), binomial_pmf(4, 0.5))
        y = (binomial_pmf(1500, 0.5), binomial_pmf(4, 0.5))
        d = tv_product(x, y)
        assert d == pytest.approx(tv(x[0], y[0]), abs=1e-12)


def _blocked(x, y) -> float:
    return oracles.tv_product_blocked(x[0].probs, x[1].probs, y[0].probs, y[1].probs)


@st.composite
def _count_factors(draw, size):
    """A pmf from small integer weights: zero entries and tied likelihood
    ratios are common."""
    counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if not any(counts):
        counts[draw(st.integers(0, size - 1))] = 1
    return Pmf(np.array(counts, dtype=float) / sum(counts))


@st.composite
def _dyadic_factor_pair(draw, disjoint):
    """Two pmfs, each uniform on 2^j points, so every mass is exactly 1;
    with disjoint=True their supports do not meet."""
    size = draw(st.integers(2, 24))
    points = draw(st.permutations(range(size)))
    first = draw(st.sampled_from([k for k in (1, 2, 4, 8) if k < size]))
    second = draw(st.sampled_from([k for k in (1, 2, 4, 8, 16) if k <= size - first]))
    start = first if disjoint else draw(st.integers(0, size - second))
    a, b = np.zeros(size), np.zeros(size)
    a[list(points[:first])] = 1.0 / first
    b[list(points[start : start + second])] = 1.0 / second
    return Pmf(a), Pmf(b)


class TestTvProduct:
    """The threshold form against the blocked half-sum it replaced."""

    @given(
        sizes=st.tuples(st.integers(0, 60), st.integers(0, 60)),
        probs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_binomial_factors_match_blocked(self, sizes, probs):
        n, m = sizes
        x = (binomial_pmf(n, probs[0]), binomial_pmf(m, probs[1]))
        y = (binomial_pmf(n, probs[2]), binomial_pmf(m, probs[3]))
        d = tv_product(x, y)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(_blocked(x, y), rel=0, abs=1e-14)

    @given(sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_entries_and_tied_ratios_match_blocked(self, sizes, data):
        n, m = sizes
        x = (data.draw(_count_factors(n)), data.draw(_count_factors(m)))
        y = (data.draw(_count_factors(n)), data.draw(_count_factors(m)))
        for a, b in ((x, y), (y, x), (x, x)):
            d = tv_product(a, b)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(_blocked(a, b), rel=0, abs=1e-14)

    @given(
        total=st.integers(2, 40),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.floats(0.05, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_point_mass_corners_match_blocked(self, total, heavy_share, alpha):
        p = ModelParams(total, round(heavy_share * total), alpha)
        target = stationary_chain(p)
        for init in _corners(p):
            law = chain_law(p, init, 0.0)
            assert tv_product(law, target) == pytest.approx(
                _blocked(law, target), rel=0, abs=1e-14
            )

    @given(
        trials=st.tuples(st.integers(0, 50), st.integers(0, 50)),
        probs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_factors_are_exactly_zero(self, trials, probs):
        x = (binomial_pmf(trials[0], probs[0]), binomial_pmf(trials[1], probs[1]))
        y = tuple(Pmf(f.probs.copy()) for f in x)
        assert tv_product(x, x) == 0.0
        assert tv_product(x, y) == 0.0

    @given(data=st.data(), disjoint_factor=st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_supports_are_exactly_one(self, data, disjoint_factor):
        pairs = [data.draw(_dyadic_factor_pair(disjoint=False)) for _ in range(2)]
        pairs[disjoint_factor] = data.draw(_dyadic_factor_pair(disjoint=True))
        x = (pairs[0][0], pairs[1][0])
        y = (pairs[0][1], pairs[1][1])
        assert tv_product(x, y) == 1.0
        assert _blocked(x, y) == 1.0

    def test_lower_clamp(self):
        # equal shapes, one entry 2.8e-17 apart: the raw threshold sum is
        # -2.8e-17 while the half-sum is 1.4e-17
        x = (Pmf([0.9289360978356946, 0.0710639021643053]), Pmf([1.0]))
        y = (Pmf([0.9289360978356946, 0.07106390216430528]), Pmf([1.0]))
        d = tv_product(x, y)
        assert d >= 0.0
        assert d == pytest.approx(_blocked(x, y), rel=0, abs=1e-14)

    def test_rejects_mismatched_spaces(self):
        x = (binomial_pmf(5, 0.5), binomial_pmf(3, 0.5))
        with pytest.raises(ValueError):
            tv_product(x, (binomial_pmf(5, 0.5), binomial_pmf(4, 0.5)))

    def test_readme_chain_instance_matches_blocked(self):
        """chain_tv at the README curve --chain instance against the blocked
        half-sum from the same start, the worst start (0, 0)."""
        p = ModelParams(10_000, 1_000, 0.2)
        target = stationary_chain(p)
        for t in (5.0, 17.0, 30.0):
            expected = _blocked(chain_law(p, InitialState(0, 0), t), target)
            assert chain_tv(p, t) == pytest.approx(expected, rel=0, abs=1e-14)


class TestWorstCase:
    def test_tied_start_matches_forty_digits(self):
        """From (56, 0) at ModelParams(400, 100, 0.1), t = 11.5, the chain
        distance ties the worst start (0, 0) to 40 digits.  With log-gamma
        tables (0, 0) read 2.7e-13 below the exact value, so a non-worst
        start printed above the worst one."""
        p, t = ModelParams(400, 100, 0.1), 11.5
        exact = oracles.chain_tv_mp(300, 100, 0.1, 56, 0, t)
        assert chain_tv(p, t, InitialState(56, 0)) == pytest.approx(exact, rel=0, abs=1e-14)
        assert chain_tv(p, t) == pytest.approx(exact, rel=0, abs=1e-14)

    def test_observed_tv_corner_dominates_single_start(self):
        p = ModelParams(12, 4, 0.4)
        t = 1.3
        worst = observed_tv(p, t)
        assert worst >= observed_tv(p, t, InitialState(4, 2)) - 1e-15

    def test_full_scan_confirms_corners(self):
        p = ModelParams(12, 4, 0.4)
        for t in (0.4, 1.5):
            assert observed_tv(p, t, "full_scan") == pytest.approx(
                observed_tv(p, t, "corners"), abs=1e-12
            )

    @pytest.mark.parametrize("total, heavy", [(10, 4), (8, 3)])
    def test_mirror_reverses_the_oracle_law(self, total, heavy):
        """The premise of one start per mirror pair: from (n - r, m - h) the
        pair law is the law from (r, h) reversed along both axes, and the
        stationary factors are symmetric."""
        n, alpha, t = total - heavy, 0.4, 0.7
        p = ModelParams(total, heavy, alpha)
        for r in range(n + 1):
            for h in range(heavy + 1):
                law = oracles.joint_law(n, heavy, alpha, r, h, t)[::-1, ::-1]
                mirrored = oracles.joint_law(n, heavy, alpha, n - r, heavy - h, t)
                np.testing.assert_allclose(law, mirrored, rtol=0, atol=1e-12)
                regular, heavy_law = chain_law(p, InitialState(n - r, heavy - h), t)
                product = np.outer(regular.probs, heavy_law.probs)
                np.testing.assert_allclose(law, product, rtol=0, atol=1e-12)
        for factor in stationary_chain(p):
            np.testing.assert_array_equal(factor.probs, factor.probs[::-1])

    @pytest.mark.parametrize(
        "p", [ModelParams(12, 4, 0.4), ModelParams(10, 0, 0.5), ModelParams(10, 10, 0.5)]
    )
    def test_full_scan_is_max_over_every_start(self, p):
        n, m = p.regular_count, p.heavy_count
        every = [InitialState(r, h) for r in range(n + 1) for h in range(m + 1)]
        kept = oracles.starts(p, "chain", "full_scan")
        mirrors = {InitialState(n - s.regular_left, m - s.heavy_left) for s in kept}
        assert set(kept) | mirrors == set(every)
        assert len(set(kept)) == len(kept) == math.ceil(len(every) / 2)
        for t in (0.2, 0.9, 2.5):
            for fn in (observed_tv, chain_tv):
                single = max(fn(p, t, s) for s in every)
                assert fn(p, t, "full_scan") == pytest.approx(single, rel=0, abs=1e-13)

    @given(
        total=st.integers(2, oracles.CONFIGURATION_BALL_LIMIT),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.floats(0.05, 1.0),
        t=st.floats(0.0, 6.0),
    )
    @example(total=12, heavy_share=0.0, alpha=1.0, t=0.25210716703946284)
    @settings(max_examples=30, deadline=None)
    def test_chain_distance_is_the_configuration_distance(self, total, heavy_share, alpha, t):
        """Why the chain needs one start: the configuration walk on Z_2^N is
        equally far from uniform from every start, the pair state is a
        sufficient statistic of its law from a corner, and from any other
        start the pair law is a projection of it.  So chain_tv equals the
        configuration oracle, every corner ties, and the full scan finds no
        farther start."""
        p = ModelParams(total, round(heavy_share * total), alpha)
        d = chain_tv(p, t)
        oracle = oracles.configuration_tv(p.regular_count, p.heavy_count, alpha, t)
        assert d == pytest.approx(oracle, rel=0, abs=1e-13)
        for init in _corners(p):
            assert chain_tv(p, t, init) == pytest.approx(d, rel=0, abs=1e-13)
        assert chain_tv(p, t, "full_scan") == pytest.approx(d, rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "total, heavy, alpha, c",
        [
            (50, 38, 0.6, 0.5),
            (100, 10, 0.1, 1.0),
            (200, 4, 1.0, 0.8),
            (50, 25, 0.3, 1.5),
            (100, 2, 0.3, 3.0),
        ],
    )
    def test_no_start_beats_the_corners(self, total, heavy, alpha, c):
        """Points of the corners audit grid, at c times the chain cutoff
        scale max(log n, log m / alpha) / 2.  Gaps up to 3e-13 seen there
        were exact ties in 40-digit arithmetic, so the slack is the 1e-12
        mass drift a Pmf may carry unrenormalised."""
        p = ModelParams(total, heavy, alpha)
        t = c * max(math.log(p.regular_count), math.log(heavy) / alpha) / 2
        for fn in (observed_tv, chain_tv):
            assert fn(p, t, "full_scan") <= fn(p, t) + 1e-12

    @pytest.mark.parametrize(
        "fn, tables, products",
        [
            (observed_tv, [(90, 0, 1.0), (10, 0, 0.5)], 0),
            (chain_tv, [(90, 0, 1.0), (10, 0, 0.5)], 1),
        ],
        ids=["observed_tv", "chain_tv"],
    )
    def test_corners_evaluate_one_start_per_mirror_pair(
        self, fn, tables, products, monkeypatch
    ):
        """Per time, the observable's corners (0, 0) and (0, m) share one
        regular table and one heavy table, which (0, m) reads reversed: two
        tables, not four.  The chain's corners all tie, so it evaluates (0, 0)
        alone: two tables and one tv_product call."""
        calls, product_calls = [], []

        def counting_coordinate_law(count, ones_initial, rate, t):
            calls.append((count, ones_initial, rate))
            return coordinate_law(count, ones_initial, rate, t)

        def counting_tv_product(x, y):
            product_calls.append(x)
            return tv_product(x, y)

        monkeypatch.setattr(dist_module, "coordinate_law", counting_coordinate_law)
        monkeypatch.setattr(dist_module, "tv_product", counting_tv_product)
        times = (0.5, 3.0, 9.0)
        for t in times:
            fn(ModelParams(100, 10, 0.5), t)
        assert calls == tables * len(times)
        assert len(product_calls) == products * len(times)

    @pytest.mark.parametrize(
        "p, observable",
        [
            (ModelParams(10, 3, 0.5), [InitialState(0, 0), InitialState(0, 3)]),
            (ModelParams(10, 0, 0.5), [InitialState(0, 0)]),
            (ModelParams(10, 10, 0.5), [InitialState(0, 0)]),
        ],
        ids=["general", "no-heavies", "no-regulars"],
    )
    def test_corners_resolve_per_target(self, p, observable):
        """"corners" is the one start (0, 0) for the chain, and for the
        observable one start of each mirror pair of the extreme starts."""
        assert oracles.starts(p, "chain", "corners") == [InitialState(0, 0)]
        assert oracles.starts(p, "observable", "corners") == observable

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(10**4, 1000, 0.2),
            ModelParams(60, 6, 0.3),
            ModelParams(3000, 1500, 1.0),
            ModelParams(2779, 74, 0.526),
        ],
    )
    def test_corners_are_the_two_pinned_starts(self, p):
        """The corners' (0, m), read as (0, 0)'s heavy table reversed, is the
        table a pinned (0, m) builds, so the corners' distance is the larger
        of the two pinned distances bit for bit, at 25 times from 1e-3 to 40."""
        m = p.heavy_count
        for t in np.geomspace(1e-3, 40.0, 25):
            pinned = (observed_tv(p, t, InitialState(0, h)) for h in (0, m))
            assert observed_tv(p, t) == max(pinned)

    def test_full_scan_capacity_guard(self):
        p = ModelParams(2 * 10**6, 3, 0.7)
        with pytest.raises(CapacityError):
            observed_tv(p, 1.0, "full_scan")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            observed_tv(ModelParams(10, 3, 0.5), 1.0, "everything")

    def test_chain_dominates_observable(self):
        """Projecting the pair state onto the total contracts the distance."""
        p = ModelParams(14, 5, 0.35)
        for t in (0.3, 1.0, 3.0):
            assert chain_tv(p, t) >= observed_tv(p, t) - 1e-12

    def test_chain_tv_at_zero(self):
        p = ModelParams(10, 3, 0.5)
        stationary_regular, stationary_heavy = stationary_chain(p)
        expected = 1.0 - stationary_regular.probs[0] * stationary_heavy.probs[0]
        assert chain_tv(p, 0.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("target", ["observable", "chain"])
def test_evaluation_at_ten_million_stays_on_the_windows(target, t):
    """Building the curve and one evaluation at N = 10^7 allocate O(sqrt N)
    at their peak; one dense table of the support alone would be 80 MB.  At
    t = 1 the regular window and its stationary one are disjoint, 1.5 million
    apart, and the chain's rows skip the gap between them."""
    tracemalloc.start()
    try:
        distance_curve(ModelParams(10**7, 10**6, 0.2), (target,))(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class _TrackedPmf(Pmf):
    """A Pmf that can be weakly referenced, to see when a table is freed."""


class TestDistanceCurve:
    @pytest.mark.parametrize("strategy", ["corners", "full_scan", InitialState(3, 1)])
    def test_equals_the_single_time_functions(self, strategy):
        """The curve, observed_tv, chain_tv and the per-start maximum over
        chain_law agree bit for bit; the observable's interval reduction sums
        in another order than the per-start tv of observed_law, so that pair
        agrees to rounding."""
        p = ModelParams(12, 4, 0.4)
        observable = distance_curve(p, ("observable",), strategy)
        chain = distance_curve(p, ("chain",), strategy)
        observable_starts = oracles.starts(p, "observable", strategy)
        chain_starts = oracles.starts(p, "chain", strategy)
        for t in (0.0, 0.3, 1.1, 4.0):
            per_start_observable = max(
                tv(observed_law(p, s, t), stationary_observed(p)) for s in observable_starts
            )
            per_start_chain = max(
                tv_product(chain_law(p, s, t), stationary_chain(p)) for s in chain_starts
            )
            assert observable(t) == (observed_tv(p, t, strategy),)
            assert observable(t)[0] == pytest.approx(per_start_observable, rel=0, abs=1e-15)
            assert chain(t) == (chain_tv(p, t, strategy),) == (per_start_chain,)

    @pytest.mark.parametrize("target", ["observable", "chain", "kolmogorov"])
    def test_bad_time_rejected(self, target):
        curve = distance_curve(ModelParams(10, 3, 0.5), (target,))
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="non-negative"):
                curve(t)

    @pytest.mark.parametrize(
        "p", [ModelParams(12, 4, 0.4), ModelParams(9, 0, 0.5), ModelParams(7, 7, 0.3)]
    )
    @pytest.mark.parametrize(
        "strategy",
        ["corners", "full_scan", InitialState(3, 1), InitialState(0, 0), InitialState(0, 1)],
    )
    def test_several_targets_equal_their_single_curves(self, p, strategy):
        """One curve over several targets builds the union of their starts'
        tables once and reduces each target's own starts, so every value is
        its single-target curve's, bit for bit, in any order of the targets.
        The pinned starts share (0, 0) or its regular table with the half-line
        gap's start, or share nothing."""
        if isinstance(strategy, InitialState):
            strategy = InitialState(
                min(strategy.regular_left, p.regular_count),
                min(strategy.heavy_left, p.heavy_count),
            )
        for targets in [("observable", "chain", "kolmogorov"), ("kolmogorov", "observable")]:
            curve = distance_curve(p, targets, strategy)
            single = [distance_curve(p, (target,), strategy) for target in targets]
            for t in (0.0, 0.3, 1.1, 4.0):
                assert curve(t) == tuple(value(t)[0] for value in single)

    @pytest.mark.parametrize("strategy", ["corners", "full_scan", InitialState(3, 1)])
    def test_kolmogorov_is_the_half_line_gap_from_the_all_right_start(self, strategy):
        """Under every strategy the "kolmogorov" value is the half-line gap of
        the all-right start's two factor tables, which kolmogorov_lower_bound
        returns, bit for bit."""
        p = ModelParams(12, 4, 0.4)
        curve = distance_curve(p, ("observable", "kolmogorov"), strategy)
        for t in (0.0, 0.3, 1.1, 4.0):
            tables = chain_law(p, InitialState(0, 0), t)
            gap = dist_module._half_line_gap(*tables, stationary_observed(p))
            assert curve(t)[1] == gap == kolmogorov_lower_bound(p, t)

    def test_kolmogorov_resolves_no_start(self):
        """The half-line gap has the one start (0, 0) under every strategy: a
        full scan past the guard and a pinned start out of range are neither
        guarded nor validated until another target needs their starts."""
        for p, strategy, error in [
            (ModelParams(2 * 10**6, 3, 0.7), "full_scan", CapacityError),
            (ModelParams(60, 6, 0.3), InitialState(99, 0), ValueError),
        ]:
            (gap,) = distance_curve(p, ("kolmogorov",), strategy)(5.0)
            assert gap == distance_curve(p, ("kolmogorov",))(5.0)[0]
            with pytest.raises(error):
                distance_curve(p, ("kolmogorov", "observable"), strategy)

    @pytest.mark.parametrize("target", ["observable", "chain", "kolmogorov", "o"])
    def test_a_bare_target_name_is_refused(self, target):
        """A bare name is not read as the tuple of its letters: the error
        names the tuple form, not an unknown target 'o'."""
        with pytest.raises(TypeError, match=rf"\(params, \('{target}',\)\)"):
            distance_curve(ModelParams(10, 3, 0.5), target)

    def test_unknown_target(self):
        """The target is checked before the starts are resolved: a guarded
        full scan reports the unknown target, not a CapacityError."""
        for p, strategy in [
            (ModelParams(10, 3, 0.5), "corners"),
            (ModelParams(2 * 10**6, 3, 0.7), "full_scan"),
        ]:
            with pytest.raises(ValueError, match="unknown target"):
                distance_curve(p, ("pair",), strategy)

    @pytest.mark.parametrize(
        "target, stationary",
        [("observable", "stationary_observed"), ("chain", "stationary_chain")],
    )
    def test_full_scan_builds_each_regular_table_once(
        self, target, stationary, monkeypatch
    ):
        """n = 8, m = 4: the entries are r = 0..4 with h = 0..2, mirrored for
        r < 4 and h < 2, so h = 4 and 3 read the tables of 0 and 1 reversed:
        5 regular and 15 heavy tables are built per time, not 5 and 23, and
        the stationary tables once per curve."""
        p = ModelParams(12, 4, 0.4)
        calls, stationary_calls = [], []

        def counting_coordinate_law(count, ones_initial, rate, t):
            calls.append((count, ones_initial, rate))
            return coordinate_law(count, ones_initial, rate, t)

        def counting_stationary(params):
            stationary_calls.append(params)
            return original_stationary(params)

        original_stationary = getattr(dist_module, stationary)
        monkeypatch.setattr(dist_module, "coordinate_law", counting_coordinate_law)
        monkeypatch.setattr(dist_module, stationary, counting_stationary)
        entries = _initial_states(p, target, "full_scan")
        assert entries == [(r, h, r < 4 and h < 2) for r in range(5) for h in range(3)]
        curve = distance_curve(p, (target,), "full_scan")
        for t in (0.5, 2.0):
            calls.clear()
            curve(t)
            regular = [ones for count, ones, rate in calls if rate == 1.0]
            heavy = [ones for count, ones, rate in calls if rate == 0.4]
            assert regular == [0, 1, 2, 3, 4]
            assert heavy == [0, 1, 2] * 5
        assert stationary_calls == [p]

    @pytest.mark.parametrize("target", ["observable", "chain"])
    def test_one_regular_and_one_heavy_table_alive(self, target, monkeypatch):
        """At most one regular table, and one heavy table and its reversal,
        are alive at a time, and every table is freed after the evaluation."""
        p = ModelParams(12, 4, 0.4)
        live = {"regular": 0, "heavy": 0, "reversed": 0, "heavy or reversed": 0}
        peak = dict(live)

        def tally(kinds, step):
            for kind in kinds:
                live[kind] += step
                peak[kind] = max(peak[kind], live[kind])

        def track(law, kinds):
            tally(kinds, 1)
            weakref.finalize(law, tally, kinds, -1)
            return law

        def tracked_coordinate_law(count, ones_initial, rate, t):
            law = _TrackedPmf(coordinate_law(count, ones_initial, rate, t).probs)
            return track(law, ("regular",) if rate == 1.0 else ("heavy", "heavy or reversed"))

        def tracked_reversed(law):
            return track(Pmf.reversed(law), ("reversed", "heavy or reversed"))

        monkeypatch.setattr(dist_module, "coordinate_law", tracked_coordinate_law)
        monkeypatch.setattr(_TrackedPmf, "reversed", tracked_reversed, raising=False)
        distance_curve(p, (target,), "full_scan")(1.0)
        assert peak == {"regular": 1, "heavy": 1, "reversed": 1, "heavy or reversed": 2}
        assert set(live.values()) == {0}


class TestSumLaw:
    """Point and CDF values of the sum of two factor tables, read without
    convolving them, against the full convolution and its cumulative sums."""

    @given(a=_dyadic_count_table(), b=_dyadic_count_table())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_convolution_and_its_cumulative_sums(self, a, b):
        """Dyadic tables make every product and partial sum exact, so the
        values must agree bit for bit at every index, past both ends too."""
        dense = oracles.convolve_dense(a.probs, b.probs)
        cdf = np.cumsum(dense)
        nonzero = np.flatnonzero(dense)
        for x, y in ((a, b), (b, a)):
            p, p_cdf, first, last, mass = _sum_law(x, y)
            assert (first, last, mass) == (nonzero[0], nonzero[-1], 1.0)
            for j in range(-2, dense.size + 2):
                inside = 0 <= j < dense.size
                assert p(j) == (dense[j] if inside else 0.0)
                assert p_cdf(j) == (cdf[min(j, dense.size - 1)] if j >= 0 else 0.0)

    @given(
        long=st.tuples(st.integers(0, 400), st.floats(0.0, 1.0), st.booleans()),
        short=st.tuples(st.integers(0, 3), st.floats(0.0, 1.0), st.booleans()),
    )
    @settings(max_examples=150, deadline=None)
    def test_padded_reads_match_the_convolution(self, long, short):
        """p(j) against the full convolution at every j from first - 1 to
        last + 1, the overhangs where the shorter window runs past either
        end of the longer included, and 0.0 outside.  The shorter factor has
        at most 4 entries, so each route sums at most 4 products and is within
        4 u relative of the exact sum (u = 2^-53): within 1e-15 of each other,
        where no product is subnormal (below 1e-300, within 1e-300)."""
        tables = []
        for trials, prob, mirrored in (long, short):
            table = binomial_pmf(trials, prob)
            tables.append(table.reversed() if mirrored else table)
        dense = oracles.convolve_dense(tables[0].probs, tables[1].probs)
        for x, y in (tables, tables[::-1]):
            p, _, first, last, _ = _sum_law(x, y)
            assert p(first - 1) == p(last + 1) == 0.0
            for j in range(first, last + 1):
                assert p(j) == pytest.approx(dense[j], rel=1e-15, abs=1e-300), j


def _pinned_or_corners(data, p: ModelParams):
    if data.draw(st.booleans()):
        return "corners"
    return InitialState(
        data.draw(st.integers(0, p.regular_count)), data.draw(st.integers(0, p.heavy_count))
    )


_TIMES = st.one_of(st.sampled_from([0.0, 1e-12, 1e3]), st.floats(0.0, 60.0))


class TestIntervalDistance:
    """The observable distance on one interval against the full convolution
    it replaced (oracles.observable_distance_convolved), within 1e-13."""

    @given(
        data=st.data(),
        total=st.integers(2, 3000),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        t=_TIMES,
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_convolution_route(self, data, total, heavy_share, alpha, t):
        p = ModelParams(total, round(heavy_share * total), alpha)
        strategy = _pinned_or_corners(data, p)
        expected = oracles.observable_distance_convolved(p, strategy, t)
        got = distance_curve(p, ("observable",), strategy)(t)[0]
        assert got == pytest.approx(expected, rel=0, abs=1e-13)

    @given(
        total=st.integers(2, 30),
        heavy_share=st.floats(0.0, 1.0),
        alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        t=_TIMES,
    )
    @settings(max_examples=40, deadline=None)
    def test_full_scan_matches_the_convolution_route(self, total, heavy_share, alpha, t):
        p = ModelParams(total, round(heavy_share * total), alpha)
        expected = oracles.observable_distance_convolved(p, "full_scan", t)
        got = distance_curve(p, ("observable",), "full_scan")(t)[0]
        assert got == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "p",
        [ModelParams(300, 0, 0.4), ModelParams(300, 300, 0.4), ModelParams(300, 40, 1.0)],
        ids=["no-heavies", "no-regulars", "alpha-1"],
    )
    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.7, 1e3])
    def test_single_species_and_extreme_times(self, p, t):
        """m = 0, n = 0 and alpha = 1; a point mass at t = 0, nearly one at
        1e-12, and tables equal to the stationary ones up to rounding at 1e3."""
        for strategy in ("corners", InitialState(p.regular_count // 3, p.heavy_count // 2)):
            expected = oracles.observable_distance_convolved(p, strategy, t)
            got = distance_curve(p, ("observable",), strategy)(t)[0]
            assert got == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize("t", [50.0, 80.0])
    def test_interval_away_from_the_mode_of_the_law(self, t):
        """At the README curve instance, t = 50 and 80, p / pi at the mode of p
        is 1 - 1.0e-7 and 1 - 6.3e-13: the interval does not hold p's mode."""
        p = ModelParams(10_000, 1000, 0.2)
        got = observed_tv(p, t)
        assert got == pytest.approx(
            oracles.observable_distance_convolved(p, "corners", t), rel=0, abs=1e-13
        )

    @pytest.mark.parametrize(
        "p, start, t",
        [
            (ModelParams(2000, 1000, 1.0), InitialState(500, 500), 14.624431560686244),
            (ModelParams(2779, 74, 0.5259671852163785), InitialState(1351, 37), 23.85009864570661),
        ],
    )
    def test_ratio_flatter_than_table_noise(self, p, start, t):
        """Starts with W's mean near N / 2, where p / pi - 1 is below 1e-11:
        table entries carry about 1e-13 relative noise, so the one-step
        difference of log p - log pi has a random sign.  Bisecting on it
        missed the whole positive interval (5e-14 and 1e-12 of distance)."""
        expected = oracles.observable_distance_convolved(p, start, t)
        assert expected > 4e-14
        assert observed_tv(p, t, start) == pytest.approx(expected, rel=0, abs=1e-14)

    @pytest.mark.parametrize(
        "p, start, t",
        [
            (ModelParams(10_000, 1000, 0.2), "corners", 120.0),
            (ModelParams(10_000, 1000, 0.2), "corners", 150.0),
            (ModelParams(10_000, 1000, 0.2), "corners", 200.0),
            (ModelParams(2000, 1000, 1.0), InitialState(500, 500), 14.624431560686244),
            (ModelParams(2779, 74, 0.5259671852163785), InitialState(1351, 37), 23.85009864570661),
        ],
    )
    def test_fibonacci_search_runs_where_no_end_runs_on(self, p, start, t, monkeypatch):
        """Where I runs past neither end of pi's floor window the Fibonacci
        search finds the peak of p / pi, once per start: at the README
        instance at t = 120, where the log ratio falls 7.8e-12 a step at an
        end, and where the ratio is flat within the reads' error (t = 150 and
        200, distances below 1e-12, and test_ratio_flatter_than_table_noise's
        starts)."""
        searched, ratio_peak = [], dist_module._ratio_peak

        def counting_ratio_peak(ratio, lo, hi):
            searched.append((lo, hi))
            return ratio_peak(ratio, lo, hi)

        monkeypatch.setattr(dist_module, "_ratio_peak", counting_ratio_peak)
        got = distance_curve(p, ("observable",), start)(t)[0]
        assert got == pytest.approx(
            oracles.observable_distance_convolved(p, start, t), rel=0, abs=1e-13
        )
        assert len(searched) == (2 if start == "corners" else 1)

    @pytest.mark.parametrize(
        "p, start, t, below, above, interval",
        [
            (ModelParams(10_000, 1000, 0.2), InitialState(0, 0), 5.0, True, False, True),
            (ModelParams(10_000, 1000, 0.2), InitialState(9000, 1000), 5.0, False, True, True),
            (ModelParams(10_000, 1000, 0.2), InitialState(4500, 500), 2.0, False, False, True),
            (ModelParams(2000, 1000, 1.0), InitialState(0, 0), 50.0, False, False, False),
        ],
        ids=["prefix", "suffix", "neither", "neither-empty"],
    )
    def test_each_end_against_the_convolution_route(
        self, p, start, t, below, above, interval, monkeypatch
    ):
        """One start per case of _interval_distance: I runs past the lower
        end of pi's floor window (a prefix of it), past the upper end (a
        suffix), or past neither, with the peak of p / pi above 1 and at or
        below it (I empty: at t = 50 both factor tables are the stationary
        binomials).  Which ends run on is read off the convolved law; the
        peak search runs only where neither does."""
        pi = stationary_observed(p)
        pi_window = np.flatnonzero(pi.probs > dist_module._SEARCH_FLOOR)
        law = observed_law(p, start, t).probs
        assert (law[: pi_window[0]] > dist_module._SEARCH_FLOOR).any() == below
        assert (law[pi_window[-1] + 1 :] > dist_module._SEARCH_FLOOR).any() == above
        peaks, ratio_peak = [], dist_module._ratio_peak

        def recording_ratio_peak(ratio, lo, hi):
            found = ratio_peak(ratio, lo, hi)
            peaks.append(found[1])
            return found

        monkeypatch.setattr(dist_module, "_ratio_peak", recording_ratio_peak)
        got = distance_curve(p, ("observable",), start)(t)[0]
        assert got == pytest.approx(
            oracles.observable_distance_convolved(p, start, t), rel=0, abs=1e-13
        )
        if below or above:
            assert peaks == []
        else:
            assert len(peaks) == 1 and (peaks[0] > 1.0) == interval

    def test_both_ends_run_on(self):
        """Both ends run on only where p exceeds pi just past both ends of
        pi's floor window; p / pi is log-concave, so then p >= pi across the
        window, which mass 1 allows only where p equals pi to rounding there
        and an edge entry of pi lies within rounding of the floor.  Here
        pi's window is narrowed to its entries above 1e-270 at a time where
        both factor tables are the stationary binomials: both ends run on, p
        is read at its mode (4 reads) and the two looks past the window alone,
        and the distance is the mass drift, within 1e-13 of the convolution
        route."""
        p, t = ModelParams(2000, 1000, 1.0), 50.0
        regular, heavy = chain_law(p, InitialState(0, 0), t)
        pi = stationary_observed(p)
        above = np.flatnonzero(pi.window > 1e-270) + pi.offset
        reads, sum_law = [0], dist_module._sum_law

        def counting_sum_law(x, y):
            point, *rest = sum_law(x, y)

            def counted(j: int) -> float:
                reads[0] += 1
                return point(j)

            return (counted, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dist_module, "_sum_law", counting_sum_law)
            got = dist_module._interval_distance(
                regular, heavy, pi, np.cumsum(pi.window), int(above[0]), int(above[-1])
            )
        assert reads[0] == 6
        expected = oracles.observable_distance_convolved(p, InitialState(0, 0), t)
        assert got == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "p, times",
        [
            (ModelParams(10**4, 1000, 0.2), np.geomspace(1.3, 33.0, 40)),
            (ModelParams(10**5, 10**4, 0.2), np.geomspace(2.0, 60.0, 16)),
        ],
        ids=["README", "N1e5"],
    )
    def test_run_on_distance_reads_p_once_per_bisection_step(self, p, times, monkeypatch):
        """Where I runs past an end of pi's floor window [lo, hi], a distance
        reads p at most 6 + ceil(log2(hi - lo + 2)) times: p's mode (4 reads),
        one look past each end, and one bisection over the window on the sign
        of p - pi, no floor edge bisected (18 at the README instance, 20 at
        N = 10^5, both reached; 28 to 33 with p's floor edge bisected first).
        Which distances run on is read off the convolved law."""
        pi = stationary_observed(p)
        window = np.flatnonzero(pi.probs > dist_module._SEARCH_FLOOR)
        lo, hi = int(window[0]), int(window[-1])
        distances, sum_law = [], dist_module._sum_law

        def counting_sum_law(x, y):
            point, *rest = sum_law(x, y)
            law = convolve(x, y).probs > dist_module._SEARCH_FLOOR
            distances.append([law[:lo].any() or law[hi + 1 :].any(), 0])

            def counted(j: int) -> float:
                distances[-1][1] += 1
                return point(j)

            return (counted, *rest)

        monkeypatch.setattr(dist_module, "_sum_law", counting_sum_law)
        curve = distance_curve(p, ("observable",))
        for t in times:
            curve(float(t))
        run_on = [reads for runs, reads in distances if runs]
        assert len(run_on) > len(distances) / 2
        assert max(run_on) <= 6 + math.ceil(math.log2(hi - lo + 2))

    def test_point_evaluations_per_distance(self, monkeypatch):
        """At the README curve instance over 40 geometric times from 1.3 to
        33, the corners' 80 distances read p at most 22 times each on
        average (18.9 measured; 29.3 with p's floor edge bisected where I
        runs past an end of pi's window, 44.5 with the Fibonacci search run
        on every distance, 75.5 with the ternary mode search, two point
        values a step, and both floor edges always bisected).  Where both of
        p's floor edges and both ends of I are bisected a single distance
        reads p up to 66 times."""
        reads, sum_law = [], dist_module._sum_law

        def counting_sum_law(x, y):
            p, *rest = sum_law(x, y)
            reads.append(0)

            def counted(j: int) -> float:
                reads[-1] += 1
                return p(j)

            return (counted, *rest)

        monkeypatch.setattr(dist_module, "_sum_law", counting_sum_law)
        curve = distance_curve(ModelParams(10**4, 1000, 0.2), ("observable",))
        for t in np.geomspace(1.3, 33.0, 40):
            curve(float(t))
        assert len(reads) == 80
        assert sum(reads) <= 22 * len(reads)

    @pytest.mark.parametrize("strategy", ["corners", "full_scan", InitialState(5, 2)])
    def test_no_convolution_beyond_the_coordinate_laws(self, strategy, monkeypatch):
        """A coordinate table convolves its two binomials once when balls of
        its species start on both sides, and is the one binomial otherwise,
        so the corners convolve nothing; the distance itself convolves
        nothing."""
        tables, convolutions = [], []

        def counting_coordinate_law(count, ones_initial, rate, t):
            tables.append((count, ones_initial, rate))
            return coordinate_law(count, ones_initial, rate, t)

        def counting_convolve(a, b):
            convolutions.append((len(a), len(b)))
            return convolve(a, b)

        monkeypatch.setattr(dist_module, "coordinate_law", counting_coordinate_law)
        monkeypatch.setattr(dist_module, "convolve", counting_convolve)
        curve = distance_curve(ModelParams(12, 4, 0.4), ("observable",), strategy)
        for t in (0.0, 0.5, 3.0):
            tables.clear()
            convolutions.clear()
            curve(t)
            mixed = [ones for count, ones, rate in tables if 0 < ones < count]
            assert tables and len(convolutions) == len(mixed)
            if strategy == "corners":
                assert convolutions == []


class TestMoments:
    def test_example_value(self):
        mean, var = observable_mean_variance(ModelParams(4, 2, 0.5), 2.0)
        p = (1 - math.exp(-1.0)) / 2
        q = (1 - math.exp(-2.0)) / 2
        assert mean == pytest.approx(2 * p + 2 * q, rel=1e-14)
        assert var == pytest.approx(2 * p * (1 - p) + 2 * q * (1 - q), rel=1e-14)

    @given(t=st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_law_moments(self, t):
        p = ModelParams(9, 4, 0.6)
        law = observed_law(p, InitialState(0, 0), t)
        mean, var = observable_mean_variance(p, t)
        assert mean == pytest.approx(law.mean(), abs=1e-9)
        assert var == pytest.approx(law.variance(), abs=1e-9)

    def test_variance_capped_by_stationary(self):
        p = ModelParams(40, 10, 0.3)
        for t in (0.0, 0.5, 2.0, 10.0):
            _, var = observable_mean_variance(p, t)
            assert var <= p.total_balls / 4.0 + 1e-12
