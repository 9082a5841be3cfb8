"""Monte Carlo cross-validation samplers.

Two independent routes to the same laws: the coupled sampler draws the
time-t state in O(1) from each ball's chance of ending on the far side of
its start (exact, no time discretisation), while the ctmc sampler runs the
event-driven jump process (physical, O(events)).  Agreement between the two
validates both.  Each is one block kernel that draws a whole chunk per numpy
call; `sample_coupled` runs the coupled kernel on one draw.

Randomness contract: draw j of a batch lies in block b = j // BLOCK and
reads its variates from Philox substreams keyed by (seed, b, kind): key
[seed, 16 b + kind], counter starting at top word 1.  Kinds 0-3 are, for the
regular then the heavy species, the coupled sampler's flips among the balls
that start left and among those that start right; kinds 4-5 are unused;
kinds 6-9 are the ctmc sampler's event counts and its species, ball and coin
uniforms.  Within a block each substream is read in draw order, so draw j
depends only on (seed, j): a batch is a prefix of any longer batch with the
same seed, on any machine with the same numpy, and its bytes do not depend
on the chunk size the kernels work in.
`draw_stream(seed, j)` keeps counter top word 0, so it never overlaps a
batch substream and does not reproduce batch draw j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CapacityError, InitialState, ModelParams, check_integer, check_time
from .dist import Pmf, survival

_SAMPLERS = ("coupled", "ctmc")
CTMC_EVENT_LIMIT = 10**8
BLOCK = 65_536
_KINDS_PER_BLOCK = 16
_COUPLED_KINDS = range(0, 4)
_CTMC_KINDS = range(6, 10)
_CHUNK = 8_192  # draws (coupled) or events (ctmc) per numpy call


def _check_key(seed: int, index: int) -> None:
    """Refuse a Philox key (seed, index) that would not fit two uint64 words."""
    check_integer("seed", seed, 0, 2**64 - 1)
    check_integer("draw index", index, 0, 2**64 - 1)


def _philox(seed: int, index: int, counter_top: int) -> np.random.Generator:
    _check_key(seed, index)
    key = np.array([seed, index], dtype=np.uint64)
    counter = np.array([0, 0, 0, counter_top], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def draw_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, index), a pure function of both.

    Its counter starts at top word 0, so it is disjoint from every batch
    substream; it does not reproduce draw `index` of `sample_batch`.
    """
    return _philox(seed, index, 0)


def _substreams(seed: int, block: int, kinds: range) -> tuple[np.random.Generator, ...]:
    """Batch substreams of `block`, one per kind, counter top word 1."""
    return tuple(_philox(seed, block * _KINDS_PER_BLOCK + kind, 1) for kind in kinds)


def _coupled_species(
    params: ModelParams, init: InitialState, t: float
) -> tuple[tuple[int, int, float], ...]:
    """Per species (count, initially left, flip) at time t, regular first."""
    pair = survival(params, t)
    return (
        (params.regular_count, init.regular_left, pair.regular_flip),
        (params.heavy_count, init.heavy_left, pair.heavy_flip),
    )


def _coupled_kernel(
    species: tuple[tuple[int, int, float], ...],
    streams: tuple[np.random.Generator, ...],
    outcomes: np.ndarray,
) -> None:
    """Fill `outcomes` (draws x 2) with coupled draws, _CHUNK draws at a time.

    A ball ends on the far side of its start with probability f = (1 -
    e^{-rate t}) / 2, independently of every other ball, so a species'
    left count is initially_left - Binomial(initially_left, f) +
    Binomial(count - initially_left, f).  Species s reads the flips of its
    left starters from streams[2s] and of its right starters from
    streams[2s + 1], each in draw order with one (n, p) per stream.
    """
    for lo in range(0, len(outcomes), _CHUNK):
        size = min(_CHUNK, len(outcomes) - lo)
        for column, (side_count, initially_left, flip) in enumerate(species):
            from_left, from_right = streams[2 * column : 2 * column + 2]
            left = initially_left - from_left.binomial(initially_left, flip, size)
            left += from_right.binomial(side_count - initially_left, flip, size)
            outcomes[lo : lo + size, column] = left


def sample_coupled(
    params: ModelParams, init: InitialState, t: float, rng: np.random.Generator
) -> tuple[int, int]:
    """One exact draw of (regular_left, heavy_left) at time t.

    Per species: each ball ends on the far side of its start with
    probability (1 - e^{-rate t}) / 2, so the left count is the left
    starters that stay plus the right starters that flip, two binomials
    and O(1).  This is the batch kernel on one draw with every kind read
    from `rng`, in the order regular flips from the left, from the right,
    then the same for heavy.
    """
    init.validate(params)
    outcome = np.empty((1, 2), dtype=np.int64)
    _coupled_kernel(_coupled_species(params, init, t), (rng,) * 4, outcome)
    return int(outcome[0, 0]), int(outcome[0, 1])


def _ctmc_kernel(
    params: ModelParams,
    init: InitialState,
    t: float,
    streams: tuple[np.random.Generator, ...],
    outcomes: np.ndarray,
    events: np.ndarray,
) -> None:
    """Fill `outcomes` (draws x 2) and `events` with event-driven draws.

    Draw j makes K_j ~ Poisson((n + m alpha) t) events (streams[0]).  Each
    event, in draw-major order, takes one uniform each for its species
    (heavy below the heavy share of the rate, streams[1]), its ball (ball
    floor(u count) of that species, streams[2]; balls below the start's left
    count start left) and its coin (left below 1/2, streams[3]).  A ball
    ends on the side its last event's coin chose.  Event counts come _CHUNK
    draws at a time and events _CHUNK at a time; the last events of a draw
    cut by a chunk edge are carried into the next chunk, so temporaries stay
    O(_CHUNK + N) however many events one draw makes.

    Each (draw, ball)'s last event in a chunk is one unstable argsort of the
    keys draw (n + m) + ball and np.maximum.reduceat of the event positions
    over the runs of equal sorted keys: O(E log E) for E events, in key
    order, with no stable sort and no key wider than draw and ball.
    """
    n, m = params.regular_count, params.heavy_count
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    heavy_share = heavy_rate_total / total_rate
    count_rng, species_rng, ball_rng, coin_rng = streams
    empty = np.empty(0, dtype=np.int64)
    outcomes[:] = (init.regular_left, init.heavy_left)
    for lo in range(0, len(outcomes), _CHUNK):
        counts = count_rng.poisson(total_rate * t, min(_CHUNK, len(outcomes) - lo))
        events[lo : lo + counts.size] = counts
        ends = np.cumsum(counts)
        carried = (empty, empty, empty)
        for first in range(0, int(ends[-1]), _CHUNK):
            stop = min(first + _CHUNK, int(ends[-1]))
            draw = np.searchsorted(ends, np.arange(first, stop), side="right")
            heavy = species_rng.random(stop - first) < heavy_share
            ball = (ball_rng.random(stop - first) * np.where(heavy, m, n)).astype(np.int64)
            ball += heavy * n
            coin = (coin_rng.random(stop - first) < 0.5).astype(np.int64)
            draw, ball, coin = (np.concatenate(pair) for pair in zip(carried, (draw, ball, coin)))
            keys = draw * (n + m) + ball
            order = np.argsort(keys)
            keys = keys[order]
            runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            last = np.maximum.reduceat(order, runs)  # each (draw, ball)'s last event, by key
            draw, ball, coin = draw[last], ball[last], coin[last]
            open_draw = draw[-1]
            cut = np.searchsorted(draw, open_draw) if ends[open_draw] > stop else draw.size
            carried = (draw[cut:], ball[cut:], coin[cut:])
            draw, ball, coin = draw[:cut], ball[:cut], coin[:cut]
            is_heavy = ball >= n
            started_left = np.where(is_heavy, ball - n < init.heavy_left, ball < init.regular_left)
            np.add.at(outcomes, (lo + draw, is_heavy.astype(np.intp)), coin - started_left)


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
    """Draw `count` independent states through the block kernels.

    Block b holds draws b BLOCK to (b + 1) BLOCK - 1 and reads the
    substreams keyed by (seed, b, kind), so draw j depends only on
    (seed, j); the module docstring lists the kinds.

    sampler "ctmc" additionally records per-draw event counts (their mean
    should match (n + m alpha) t); it is guarded at CTMC_EVENT_LIMIT expected
    events over the batch.
    """
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r} (expected one of {_SAMPLERS})")
    check_integer("count", count, 1, math.inf)
    _check_key(seed, count - 1)
    check_time(t)
    if sampler == "ctmc":
        expected = (params.regular_count + params.heavy_count * params.heavy_rate) * t * count
        if expected > CTMC_EVENT_LIMIT:
            raise CapacityError(
                f"{expected:.3g} expected ctmc events exceed the {CTMC_EVENT_LIMIT} guard"
            )
    init.validate(params)
    species = _coupled_species(params, init, t)
    outcomes = np.empty((count, 2), dtype=np.int64)
    events = np.empty(count, dtype=np.int64) if sampler == "ctmc" else None
    for block, lo in enumerate(range(0, count, BLOCK)):
        rows = slice(lo, lo + BLOCK)
        if sampler == "coupled":
            _coupled_kernel(species, _substreams(seed, block, _COUPLED_KINDS), outcomes[rows])
        else:
            streams = _substreams(seed, block, _CTMC_KINDS)
            _ctmc_kernel(params, init, t, streams, outcomes[rows], events[rows])
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
    """Histogram of a batch as a pmf over the projection's full support.

    projection: "total" (regular + heavy), "regular", or "heavy".  The
    reduction is a deterministic ordered bincount.
    """
    if projection == "total":
        values = batch.outcomes[:, 0] + batch.outcomes[:, 1]
        support = batch.params.total_balls
    elif projection == "regular":
        values = batch.outcomes[:, 0]
        support = batch.params.regular_count
    elif projection == "heavy":
        values = batch.outcomes[:, 1]
        support = batch.params.heavy_count
    else:
        raise ValueError(f"unknown projection {projection!r}")
    return Pmf(np.bincount(values) / batch.count, 0, support + 1)

