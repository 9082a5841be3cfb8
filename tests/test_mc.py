import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    batch_scalar,
    batch_substreams,
    coupled_draw,
    ctmc_count_loop,
    ctmc_kernel_argsort,
    survival_draw,
)
from urnlab.model import CapacityError, InitialState, ModelParams
from urnlab import dist, mc
from urnlab.mc import (
    CTMC_EVENT_LIMIT,
    draw_stream,
    empirical_pmf,
    sample_batch,
    sample_coupled,
)

SMALL = ModelParams(6, 2, 0.5)
CORNER = InitialState(0, 0)
SEED_EDGES = (0, 2**63 + 5, 2**64 - 1)


@st.composite
def _batch_cases(draw):
    """Small params, any valid start, t from 0, seeds up to 2^64 - 1."""
    total = draw(st.integers(2, 12))
    params = ModelParams(total, draw(st.integers(0, total)), draw(st.floats(0.05, 1.0)))
    init = InitialState(
        draw(st.integers(0, params.regular_count)), draw(st.integers(0, params.heavy_count))
    )
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    seed = draw(st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1)))
    return params, init, t, draw(st.integers(1, 300)), seed


@st.composite
def _ctmc_cases(draw, chunk: int):
    """N up to 40 with m = 0 and m = N among the picks, any start, t in {0,
    1e-3} or up to 30, counts up to 300 and any seed; expected events are
    capped at 200 event chunks of `chunk`, so a small chunk stays fast."""
    total = draw(st.integers(2, 40))
    heavy = draw(st.one_of(st.sampled_from([0, total]), st.integers(0, total)))
    params = ModelParams(total, heavy, draw(st.floats(0.05, 1.0)))
    init = InitialState(
        draw(st.integers(0, params.regular_count)), draw(st.integers(0, params.heavy_count))
    )
    t = draw(st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(0.0, 30.0)))
    rate = (params.regular_count + params.heavy_count * params.heavy_rate) * t
    most = 300 if rate * 300 <= 200 * chunk else max(1, int(200 * chunk / rate))
    seed = draw(st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1)))
    return params, init, t, draw(st.integers(1, most)), seed


def _run_ctmc(kernel, params, init, t, count, seed):
    """(outcomes, events) of one kernel on block 0's ctmc substreams."""
    outcomes = np.zeros((count, 2), dtype=np.int64)
    events = np.zeros(count, dtype=np.int64)
    kernel(params, init, t, batch_substreams(seed, 0, range(6, 10)), outcomes, events)
    return outcomes, events


class TestDrawStream:
    def test_deterministic_per_key(self):
        a = draw_stream(7, 3).random(5)
        b = draw_stream(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_neighbouring_indices_decorrelate(self):
        a = draw_stream(7, 3).random(5)
        b = draw_stream(7, 4).random(5)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            draw_stream(-1, 0)
        with pytest.raises(ValueError):
            draw_stream(2**64, 0)
        with pytest.raises(ValueError):
            draw_stream(0, -1)
        with pytest.raises(ValueError):
            draw_stream(0, 2**64)

    @pytest.mark.parametrize("seed", [0.5, 1.0, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw_stream(seed, 0)
        with pytest.raises(ValueError, match="draw index must be an integer"):
            draw_stream(0, seed)


class TestSamplers:
    def test_time_zero_returns_initial_state(self):
        init = InitialState(3, 1)
        assert sample_coupled(SMALL, init, 0.0, draw_stream(0, 0)) == (3, 1)
        batch = sample_batch(SMALL, init, 0.0, 3, 0, sampler="ctmc")
        assert batch.outcomes.tolist() == [[3, 1]] * 3
        assert batch.event_counts.tolist() == [0] * 3

    def test_outputs_in_range(self):
        for index in range(200):
            r, h = sample_coupled(SMALL, CORNER, 1.0, draw_stream(5, index))
            assert 0 <= r <= 4
            assert 0 <= h <= 2

    def test_ctmc_rejects_negative_time(self):
        with pytest.raises(ValueError):
            sample_batch(SMALL, CORNER, -1.0, 5, 0, sampler="ctmc")

    def test_nan_time_rejected(self):
        for t in (float("nan"), float("inf")):
            for sampler in ("coupled", "ctmc"):
                with pytest.raises(ValueError, match="non-negative"):
                    sample_batch(SMALL, CORNER, t, 5, seed=0, sampler=sampler)

    def test_ctmc_event_guard(self):
        # SMALL runs at total rate 4 + 2 * 0.5 = 5 events per unit time
        started = time.perf_counter()
        with pytest.raises(CapacityError):
            sample_batch(SMALL, CORNER, 1e300, 1, 0, sampler="ctmc")
        with pytest.raises(CapacityError):
            sample_batch(SMALL, CORNER, CTMC_EVENT_LIMIT / 50.0, 11, 0, sampler="ctmc")
        assert time.perf_counter() - started < 1.0
        # the coupled sampler is O(1) per draw and needs no guard
        assert sample_batch(SMALL, CORNER, 1e300, 2, 0).count == 2

    def test_init_validated(self):
        with pytest.raises(ValueError):
            sample_coupled(SMALL, InitialState(5, 0), 1.0, draw_stream(0, 0))


class TestBatch:
    def test_reproducible(self):
        a = sample_batch(SMALL, CORNER, 0.8, 500, seed=3)
        b = sample_batch(SMALL, CORNER, 0.8, 500, seed=3)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_draws_are_stream_indexed(self):
        """Draw j only depends on (seed, j), so prefixes agree across sizes."""
        short = sample_batch(SMALL, CORNER, 0.8, 50, seed=3)
        long = sample_batch(SMALL, CORNER, 0.8, 200, seed=3)
        np.testing.assert_array_equal(short.outcomes, long.outcomes[:50])

    def test_seed_changes_output(self):
        a = sample_batch(SMALL, CORNER, 0.8, 200, seed=3)
        b = sample_batch(SMALL, CORNER, 0.8, 200, seed=4)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_outcomes_read_only(self):
        batch = sample_batch(SMALL, CORNER, 0.8, 10, seed=0)
        with pytest.raises(ValueError):
            batch.outcomes[0, 0] = 9

    def test_event_counts_only_for_ctmc(self):
        assert sample_batch(SMALL, CORNER, 0.5, 10, seed=0).event_counts is None
        batch = sample_batch(SMALL, CORNER, 0.5, 10, seed=0, sampler="ctmc")
        assert batch.event_counts is not None
        assert batch.event_counts.shape == (10,)

    def test_event_rate(self):
        # events per draw concentrate on (n + m alpha) t
        batch = sample_batch(SMALL, CORNER, 0.8, 5000, seed=12, sampler="ctmc")
        expected = (4 + 2 * 0.5) * 0.8
        assert batch.event_counts.mean() == pytest.approx(expected, abs=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_batch(SMALL, CORNER, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            sample_batch(SMALL, CORNER, -0.5, 5, seed=0)
        with pytest.raises(ValueError):
            sample_batch(SMALL, CORNER, 0.5, 5, seed=0, sampler="magic")

    @pytest.mark.parametrize("sampler", ["coupled", "ctmc"])
    def test_seed_validation(self, sampler):
        for seed in (0.5, True, -1, 2**64):
            with pytest.raises(ValueError, match="seed must"):
                sample_batch(SMALL, CORNER, 0.5, 5, seed=seed, sampler=sampler)
        # the last draw index must fit too; refused before anything is allocated
        with pytest.raises(
            ValueError, match=r"draw index must be an integer in \[0, 18446744073709551615\]"
        ):
            sample_batch(SMALL, CORNER, 0.5, 2**64 + 1, seed=0, sampler=sampler)

    def test_numpy_integer_seed(self):
        a = sample_batch(SMALL, CORNER, 0.8, 20, seed=np.uint64(2**64 - 1))
        b = sample_batch(SMALL, CORNER, 0.8, 20, seed=2**64 - 1)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    @pytest.mark.parametrize("sampler", ["coupled", "ctmc"])
    @given(case=_batch_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, sampler, case):
        """The block kernel equals a scalar read of the same substreams."""
        params, init, t, count, seed = case
        batch = sample_batch(params, init, t, count, seed, sampler=sampler)
        outcomes, events = batch_scalar(params, init, t, count, seed, sampler)
        assert np.array_equal(batch.outcomes, outcomes)
        if sampler == "ctmc":
            assert np.array_equal(batch.event_counts, events)
        else:
            assert batch.event_counts is None


class TestBlockContract:
    START = InitialState(7, 4)
    PARAMS = ModelParams(30, 5, 0.4)

    @pytest.mark.parametrize("sampler, t", [("coupled", 0.8), ("ctmc", 0.05)])
    def test_scalar_reference_across_block_edge(self, sampler, t):
        count = mc.BLOCK + 4
        batch = sample_batch(self.PARAMS, self.START, t, count, 2**64 - 1, sampler=sampler)
        outcomes, events = batch_scalar(self.PARAMS, self.START, t, count, 2**64 - 1, sampler)
        assert np.array_equal(batch.outcomes, outcomes)
        if sampler == "ctmc":
            assert np.array_equal(batch.event_counts, events)

    @pytest.mark.parametrize("sampler", ["coupled", "ctmc"])
    def test_prefixes_align_across_block_edge(self, sampler):
        assert mc.BLOCK == 65_536
        batches = [
            sample_batch(SMALL, CORNER, 0.8, count, 5, sampler=sampler)
            for count in (mc.BLOCK - 1, mc.BLOCK, mc.BLOCK + 1)
        ]
        longest = batches[-1]
        for batch in batches[:-1]:
            assert np.array_equal(batch.outcomes, longest.outcomes[: batch.count])
            if sampler == "ctmc":
                assert np.array_equal(batch.event_counts, longest.event_counts[: batch.count])

    @pytest.mark.parametrize("sampler", ["coupled", "ctmc"])
    def test_chunk_size_does_not_change_bytes(self, monkeypatch, sampler):
        default = sample_batch(SMALL, InitialState(3, 1), 0.8, 300, 9, sampler=sampler)
        monkeypatch.setattr(mc, "_CHUNK", 8)
        small = sample_batch(SMALL, InitialState(3, 1), 0.8, 300, 9, sampler=sampler)
        assert np.array_equal(default.outcomes, small.outcomes)
        if sampler == "ctmc":
            assert np.array_equal(default.event_counts, small.event_counts)

    @pytest.mark.parametrize("count", [1, 7])
    def test_long_ctmc_draws_cross_chunks(self, monkeypatch, count):
        """SMALL makes 5 events per unit time, so at t = 20 every draw makes
        about 100 events, more than 4 chunks of 8: the ball states carried
        over chunk edges must give the default chunk's and the scalar bytes."""
        default = sample_batch(SMALL, InitialState(3, 1), 20.0, count, 9, sampler="ctmc")
        monkeypatch.setattr(mc, "_CHUNK", 8)
        small = sample_batch(SMALL, InitialState(3, 1), 20.0, count, 9, sampler="ctmc")
        assert small.event_counts.min() > 4 * 8
        outcomes, events = batch_scalar(SMALL, InitialState(3, 1), 20.0, count, 9, "ctmc")
        for batch in (default, small):
            assert np.array_equal(batch.outcomes, outcomes)
            assert np.array_equal(batch.event_counts, events)

    @pytest.mark.parametrize(
        "params, init, t, count",
        [
            # 4 balls, 200 events a draw: nearly every event is overwritten
            (ModelParams(3, 1, 1.0), InitialState(1, 0), 50.0, 60),
            # 0.475 events a draw: one event chunk spans thousands of draws
            (ModelParams(50, 5, 0.5), InitialState(20, 2), 0.01, 20_000),
        ],
        ids=["overwritten", "sparse"],
    )
    def test_last_event_reduction_at_its_extremes(self, monkeypatch, params, init, t, count):
        """Each (draw, ball)'s last event comes from one sort of packed
        (key, position, coin) words and the words where the key changes:
        equal to the scalar reads whether nearly every key repeats or almost
        none does, at either chunk size."""
        outcomes, events = batch_scalar(params, init, t, count, 11, "ctmc")
        if t == 50.0:
            assert events.mean() > 40 * params.total_balls
        else:
            assert np.mean(events <= 1) > 0.9
        for chunk in (mc._CHUNK, 8):
            monkeypatch.setattr(mc, "_CHUNK", chunk)
            batch = sample_batch(params, init, t, count, 11, sampler="ctmc")
            assert np.array_equal(batch.outcomes, outcomes), chunk
            assert np.array_equal(batch.event_counts, events), chunk

    @pytest.mark.parametrize("chunk", [mc._CHUNK, 8, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ctmc_kernel_matches_argsort_oracle(self, chunk, data):
        """The packed-sort kernel gives the argsort kernel's bytes, outcomes
        and event counts, at the default chunk and at chunks of 8 and 3."""
        params, init, t, count, seed = data.draw(_ctmc_cases(chunk))
        with mock.patch.object(mc, "_CHUNK", chunk):
            outcomes, events = _run_ctmc(mc._ctmc_kernel, params, init, t, count, seed)
            expected = _run_ctmc(ctmc_kernel_argsort, params, init, t, count, seed)
        assert np.array_equal(outcomes, expected[0])
        assert np.array_equal(events, expected[1])

    def test_draw_ending_on_a_chunk_edge_carries_nothing(self):
        """Draws 33,526 and 42,097 of this block start exactly on an event
        chunk edge of their count chunk, where the chunk before ends on a
        draw's last event: no word may carry across such an edge."""
        case = (self.PARAMS, self.START, 0.8, mc.BLOCK, 3)
        outcomes, events = _run_ctmc(mc._ctmc_kernel, *case)
        expected = _run_ctmc(ctmc_kernel_argsort, *case)
        assert np.array_equal(outcomes, expected[0])
        assert np.array_equal(events, expected[1])
        for draw, edge in ((33_526, 2), (42_097, 3)):
            assert events[draw - draw % mc._CHUNK : draw].sum() == edge * mc._CHUNK

    def test_packed_word_bound(self):
        """A word is key << B | (2 position + coin) with key < _CHUNK (n + m)
        and B = 15 at _CHUNK = 8192, so n + m up to 2^35 fits int64; one ball
        more is refused before anything is allocated."""
        assert mc._field_bits() == 15
        assert mc._ctmc_ball_limit() == 2**35
        limit = mc._ctmc_ball_limit()
        tracemalloc.start()
        with pytest.raises(CapacityError, match=f"{limit}-ball guard"):
            sample_batch(ModelParams(limit + 1, 0, 1.0), CORNER, 1.0 / limit, 10, 0, "ctmc")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20
        assert sample_batch(ModelParams(limit, 0, 1.0), CORNER, 0.0, 1, 0, "ctmc").count == 1

    def test_packed_words_at_the_ball_limit(self):
        """At _CHUNK = 3 the field is 3 bits and the limit 2^63 // 24 balls;
        there the largest words reach 2^63 - 24 and still give the argsort
        kernel's bytes."""
        with mock.patch.object(mc, "_CHUNK", 3):
            limit = mc._ctmc_ball_limit()
            assert limit == 2**63 // 24
            for params in (ModelParams(limit, 0, 1.0), ModelParams(limit, limit // 2, 0.5)):
                rate = params.regular_count + params.heavy_count * params.heavy_rate
                case = (params, InitialState(params.regular_count // 3, 0), 2.0 / rate, 30, 7)
                outcomes, events = _run_ctmc(mc._ctmc_kernel, *case)
                expected = _run_ctmc(ctmc_kernel_argsort, *case)
                assert events.sum() > 30
                assert np.array_equal(outcomes, expected[0])
                assert np.array_equal(events, expected[1])
            with pytest.raises(CapacityError):
                sample_batch(ModelParams(limit + 1, 0, 1.0), CORNER, 0.0, 1, 0, "ctmc")

    def test_sample_coupled_keeps_its_bytes(self):
        """The single-draw kernel reads its flips from one stream in a fixed
        order (regular from the left, from the right, then heavy); these
        values pin its bytes."""
        draws = [sample_coupled(self.PARAMS, self.START, 0.8, draw_stream(2**64 - 1, j))
                 for j in range(12)]
        assert draws == [(12, 4), (11, 4), (11, 4), (10, 4), (10, 1), (12, 5),
                         (11, 3), (14, 2), (10, 3), (7, 3), (10, 4), (7, 4)]
        big = ModelParams(10_000, 1000, 0.2)
        draws = [sample_coupled(big, CORNER, 3.0, draw_stream(5, j)) for j in range(6)]
        assert draws == [(4316, 222), (4332, 227), (4310, 244),
                         (4179, 208), (4252, 229), (4350, 237)]

    @given(case=_batch_cases())
    @settings(max_examples=40, deadline=None)
    def test_sample_coupled_is_the_scalar_draw(self, case):
        params, init, t, count, seed = case
        index = count - 1
        expected = coupled_draw(params, init, t, (draw_stream(seed, index),) * 4)
        assert sample_coupled(params, init, t, draw_stream(seed, index)) == expected

    def test_coupled_kernel_agrees_with_survival_construction_in_law(self):
        """Two-sample distance at 20k draws each from an interior start,
        flip kernel against the survival construction it replaced."""
        count, t, start = 20000, 0.8, InitialState(3, 1)
        kernel = sample_batch(SMALL, start, t, count, seed=12)
        rng = draw_stream(13, 0)
        loop = np.array([survival_draw(SMALL, start, t, (rng,) * 6) for _ in range(count)])
        totals = np.bincount(loop[:, 0] + loop[:, 1], minlength=SMALL.total_balls + 1)
        gap = dist.tv(empirical_pmf(kernel), dist.Pmf(totals / count))
        assert gap < 0.02

    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.3, 2.0, 40.0])
    @pytest.mark.parametrize("rate", [1.0, 0.35])
    def test_survival_construction_is_the_flip_law(self, rate, t):
        """The identity the kernel rests on, enumerated exactly: a survivors
        among L left starters and b among R right starters, each Binomial(.,
        q) with q = e^{-rate t}, and fair coins for the count - a - b others,
        put l balls left with the probability of coordinate_law."""
        q = math.exp(-rate * t)

        def binomial(n: int, p: float, k: int) -> float:
            return math.comb(n, k) * p**k * (1.0 - p) ** (n - k) if 0 <= k <= n else 0.0

        for count in range(13):
            for ones in range(count + 1):
                law = np.zeros(count + 1)
                for a in range(ones + 1):
                    for b in range(count - ones + 1):
                        weight = binomial(ones, q, a) * binomial(count - ones, q, b)
                        for coins in range(count - a - b + 1):
                            law[a + coins] += weight * binomial(count - a - b, 0.5, coins)
                exact = dist.coordinate_law(count, ones, rate, t).probs
                assert np.max(np.abs(law - exact)) <= 1e-14, (count, ones)

    def test_ctmc_kernel_agrees_with_count_loop_in_law(self):
        """Two-sample distance and event-count means at 20k draws each,
        kernel against the exponential-clock loop it replaced."""
        count, t = 20000, 0.8
        kernel = sample_batch(SMALL, CORNER, t, count, seed=12, sampler="ctmc")
        rng = draw_stream(13, 0)
        loop = np.array([ctmc_count_loop(SMALL, CORNER, t, rng) for _ in range(count)])
        totals = np.bincount(loop[:, 0] + loop[:, 1], minlength=SMALL.total_balls + 1)
        gap = dist.tv(empirical_pmf(kernel), dist.Pmf(totals / count))
        assert gap < 0.02
        expected = (4 + 2 * 0.5) * t
        tolerance = 4.0 * (2.0 * expected / count) ** 0.5
        assert abs(kernel.event_counts.mean() - loop[:, 2].mean()) <= tolerance


class TestEmpirical:
    def test_projections(self):
        batch = sample_batch(SMALL, CORNER, 0.8, 400, seed=1)
        total = empirical_pmf(batch)
        assert len(total) == 7
        assert total.probs.sum() == pytest.approx(1.0)
        regular = empirical_pmf(batch, "regular")
        heavy = empirical_pmf(batch, "heavy")
        assert len(regular) == 5
        assert len(heavy) == 3
        assert regular.mean() + heavy.mean() == pytest.approx(total.mean(), abs=1e-12)

    def test_unknown_projection(self):
        batch = sample_batch(SMALL, CORNER, 0.8, 10, seed=1)
        with pytest.raises(ValueError):
            empirical_pmf(batch, "median")

    def test_counts_match_manual_bincount(self):
        batch = sample_batch(SMALL, CORNER, 0.8, 64, seed=9)
        totals = batch.outcomes.sum(axis=1)
        manual = np.bincount(totals, minlength=7) / 64
        np.testing.assert_allclose(empirical_pmf(batch).probs, manual)


class TestAgainstExactLaws:
    def test_coupled_matches_observed_law(self):
        """20k draws of the O(1) sampler against the exact law; the frozen
        seed keeps the observed 0.0092 gap (block substreams) reproducible."""
        batch = sample_batch(SMALL, CORNER, 0.8, 20000, seed=11)
        gap = dist.tv(empirical_pmf(batch), dist.observed_law(SMALL, CORNER, 0.8))
        assert gap < 0.015

    def test_coupled_matches_chain_marginals(self):
        batch = sample_batch(SMALL, CORNER, 0.8, 20000, seed=11)
        regular_law, heavy_law = dist.chain_law(SMALL, CORNER, 0.8)
        assert dist.tv(empirical_pmf(batch, "regular"), regular_law) < 0.015
        assert dist.tv(empirical_pmf(batch, "heavy"), heavy_law) < 0.015

    def test_ctmc_agrees_with_coupled(self):
        """The event-driven route and the flip construction sample the same
        law; two-sample distance at 20k draws each stays in the noise."""
        coupled = sample_batch(SMALL, CORNER, 0.8, 20000, seed=11)
        ctmc = sample_batch(SMALL, CORNER, 0.8, 20000, seed=12, sampler="ctmc")
        gap = dist.tv(empirical_pmf(coupled), empirical_pmf(ctmc))
        assert gap < 0.02


def test_plug_in_distance_within_its_bias_bound():
    """The histogram's distance to stationarity lies within the plug-in
    bias scale sqrt((N + 1) / count) of the exact distance."""
    p, count = ModelParams(500, 50, 0.3), 20000
    batch = sample_batch(p, CORNER, 3.0, count, seed=42)
    estimate = dist.tv(empirical_pmf(batch), dist.stationary_observed(p))
    exact = dist.observed_tv(p, 3.0, CORNER)
    assert abs(estimate - exact) <= ((p.total_balls + 1) / count) ** 0.5
