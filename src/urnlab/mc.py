"""Monte Carlo cross-validation samplers.

Two independent routes to the same laws: `sample_coupled` draws the
time-t state in O(1) from the per-ball survival construction (exact, no time
discretisation), while `sample_ctmc` runs the event-driven continuous-time
simulation (physical, O(events)).  Agreement between the two validates both.

Randomness contract: draw j of a batch uses its own counter-based stream
keyed by (seed, j), so regenerating any draw, any subset, in any order, on
any machine with the same numpy yields identical outcomes.  A batch builds
one Philox generator and, before draw j, re-keys it to (seed, j) with a zero
counter and an empty buffer: Philox is counter-based, so that is the stream
a fresh `draw_stream(seed, j)` yields, which reproduces draw j on its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import CapacityError, InitialState, ModelParams, check_time
from .dist import Pmf, stationary_observed, survival, tv

_SAMPLERS = ("coupled", "ctmc")
CTMC_EVENT_LIMIT = 10**8


def _check_key(seed: int, index: int) -> None:
    """Refuse a Philox key (seed, index) that would not fit two uint64 words."""
    for name, value in (("seed", seed), ("draw index", index)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(value) < 2**64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer")


def draw_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one draw; pure function of (seed, index)."""
    _check_key(seed, index)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _coupled_species(
    params: ModelParams, init: InitialState, t: float
) -> tuple[tuple[int, int, float], ...]:
    """Per species (count, initially left, survival) at time t, regular first."""
    pair = survival(params, t)
    return (
        (params.regular_count, init.regular_left, pair.regular_survival),
        (params.heavy_count, init.heavy_left, pair.heavy_survival),
    )


def _coupled_draw(
    species: tuple[tuple[int, int, float], ...], rng: np.random.Generator
) -> tuple[int, int]:
    counts = []
    for side_count, initially_left, keep_prob in species:
        left_survivors = rng.binomial(initially_left, keep_prob)
        right_survivors = rng.binomial(side_count - initially_left, keep_prob)
        undecided = side_count - left_survivors - right_survivors
        counts.append(int(left_survivors) + int(rng.binomial(undecided, 0.5)))
    return counts[0], counts[1]


def sample_coupled(
    params: ModelParams, init: InitialState, t: float, rng: np.random.Generator
) -> tuple[int, int]:
    """One exact draw of (regular_left, heavy_left) at time t.

    Per species: balls that have not been redrawn (binomial survivors on each
    side) stay put, the rest land on fair coins.  Aggregating the per-ball
    indicators into binomials keeps the draw exact and O(1).
    """
    init.validate(params)
    return _coupled_draw(_coupled_species(params, init, t), rng)


def _ctmc_draw(
    params: ModelParams, init: InitialState, t: float, rng: np.random.Generator
) -> tuple[int, int, int]:
    n, m = params.regular_count, params.heavy_count
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    r_left, h_left = init.regular_left, init.heavy_left
    events = 0
    if total_rate <= 0.0:
        return r_left, h_left, events
    clock = 0.0
    heavy_share = heavy_rate_total / total_rate
    while True:
        clock += rng.exponential(1.0 / total_rate)
        if clock > t:
            break
        events += 1
        if rng.random() < heavy_share:
            if rng.random() * m < h_left:
                h_left -= 1
            if rng.random() < 0.5:
                h_left += 1
        else:
            if rng.random() * n < r_left:
                r_left -= 1
            if rng.random() < 0.5:
                r_left += 1
    return r_left, h_left, events


def _check_event_budget(params: ModelParams, t: float, draws: int) -> None:
    """Refuse an event-driven run expecting more than CTMC_EVENT_LIMIT events."""
    expected = (params.regular_count + params.heavy_count * params.heavy_rate) * t
    if expected * draws > CTMC_EVENT_LIMIT:
        raise CapacityError(
            f"{expected * draws:.3g} expected ctmc events exceed the {CTMC_EVENT_LIMIT} guard"
        )


def sample_ctmc(
    params: ModelParams, init: InitialState, t: float, rng: np.random.Generator
) -> tuple[int, int]:
    """One draw via the event-driven simulation of the jump process.

    Exponential holding times at total rate n + m alpha; each event redraws
    the side of a uniformly chosen ball of the selected species.  Costs
    O((n + m alpha) t) per draw, guarded at CTMC_EVENT_LIMIT expected
    events; serves as the physical oracle for sample_coupled.
    """
    init.validate(params)
    check_time(t)
    _check_event_budget(params, t, 1)
    r_left, h_left, _ = _ctmc_draw(params, init, t, rng)
    return r_left, h_left


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of draws of the pair state at one time point."""

    params: ModelParams
    init: InitialState
    t: float
    seed: int
    sampler: str
    outcomes: np.ndarray
    event_counts: np.ndarray | None = None

    @property
    def count(self) -> int:
        return int(self.outcomes.shape[0])


def sample_batch(
    params: ModelParams,
    init: InitialState,
    t: float,
    count: int,
    seed: int,
    sampler: str = "coupled",
) -> SampleBatch:
    """Draw `count` independent states, one keyed stream per draw.

    One generator serves the batch: before draw j it is re-keyed to
    (seed, j) with its counter and buffer reset, the state of a fresh
    `draw_stream(seed, j)`, so draw j equals what that stream alone yields.

    sampler "ctmc" additionally records per-draw event counts (their mean
    should match (n + m alpha) t); it is guarded at CTMC_EVENT_LIMIT expected
    events over the batch.
    """
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r} (expected one of {_SAMPLERS})")
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_key(seed, count - 1)
    check_time(t)
    if sampler == "ctmc":
        _check_event_budget(params, t, count)
    init.validate(params)
    species = _coupled_species(params, init, t)
    outcomes = np.empty((count, 2), dtype=np.int64)
    events = np.empty(count, dtype=np.int64) if sampler == "ctmc" else None
    rng = draw_stream(seed, 0)
    bit_generator = rng.bit_generator
    key = [int(seed), 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in range(count):
        key[1] = index
        bit_generator.state = fresh
        if sampler == "coupled":
            outcomes[index] = _coupled_draw(species, rng)
        else:
            r_left, h_left, n_events = _ctmc_draw(params, init, t, rng)
            outcomes[index] = (r_left, h_left)
            events[index] = n_events
    outcomes.setflags(write=False)
    if events is not None:
        events.setflags(write=False)
    return SampleBatch(
        params=params,
        init=init,
        t=t,
        seed=seed,
        sampler=sampler,
        outcomes=outcomes,
        event_counts=events,
    )


def empirical_pmf(batch: SampleBatch, projection: str = "total") -> Pmf:
    """Histogram of a batch as a dense pmf over the projection's full support.

    projection: "total" (regular + heavy), "regular", or "heavy".  The
    reduction is a deterministic ordered bincount.
    """
    if projection == "total":
        values = batch.outcomes.sum(axis=1)
        support = batch.params.total_balls
    elif projection == "regular":
        values = batch.outcomes[:, 0]
        support = batch.params.regular_count
    elif projection == "heavy":
        values = batch.outcomes[:, 1]
        support = batch.params.heavy_count
    else:
        raise ValueError(f"unknown projection {projection!r}")
    histogram = np.bincount(values, minlength=support + 1)
    return Pmf(histogram / batch.count)


@dataclass(frozen=True)
class TvEstimate:
    """Plug-in estimate of the observable distance with its bias scale.

    The plug-in estimator is biased upward by about sqrt((N + 1) / count)
    (half the expected L1 fluctuation of the histogram), so read `value`
    together with `bias_bound`.
    """

    value: float
    bias_bound: float
    count: int
    seed: int
    t: float


def estimate_observed_tv(
    params: ModelParams,
    t: float,
    count: int,
    seed: int,
    init: InitialState | None = None,
    sampler: str = "coupled",
) -> TvEstimate:
    """Monte Carlo estimate of the observable distance from `init` (default all-right)."""
    if init is None:
        init = InitialState(0, 0)
    batch = sample_batch(params, init, t, count, seed, sampler=sampler)
    value = tv(empirical_pmf(batch, "total"), stationary_observed(params))
    return TvEstimate(
        value=value,
        bias_bound=math.sqrt((params.total_balls + 1) / count),
        count=count,
        seed=seed,
        t=t,
    )
