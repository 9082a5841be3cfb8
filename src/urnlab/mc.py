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


def _field_bits() -> int:
    """Width of a packed ctmc word's low field: 2 position + coin, with an
    event's position in its chunk at most _CHUNK (see _ctmc_kernel)."""
    return (2 * _CHUNK + 1).bit_length()


def _ctmc_ball_limit() -> int:
    """The most balls n + m whose packed ctmc words fit in int64: 2^35 at
    _CHUNK = 8192 (see _ctmc_kernel)."""
    return 2**63 // (_CHUNK << _field_bits())


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
    O(_CHUNK + carried events) however many events one draw makes.

    Each (draw, ball)'s last event in a chunk comes from one sort of one
    int64 word per event, key << B | (2 position + coin).  The key is
    (draw - the chunk's first draw) (n + m) + ball, built by one np.repeat
    over the chunk's own draws.  The position is 1 to _CHUNK within the
    chunk, and 0 for a carried event, whose key no other carried event
    shares.  So a key's last word in sorted order is its last event, and the
    words where the key changes are the last events in key order, each coin
    in the low bit; per (draw, species) sums of coin - started left then
    update the outcomes.  The field takes B = bit_length(2 _CHUNK + 1) = 15
    bits, and a key stays below _CHUNK (n + m), since a chunk's draws lie in
    one count chunk: every word is below _CHUNK (n + m) 2^B, which fits in
    int64 up to n + m = _ctmc_ball_limit() = 2^63 // (_CHUNK 2^B) = 2^35
    balls.  sample_batch refuses more.
    """
    n, m = params.regular_count, params.heavy_count
    balls = n + m
    heavy_rate_total = m * params.heavy_rate
    total_rate = n + heavy_rate_total
    heavy_share = heavy_rate_total / total_rate
    bits = _field_bits()
    count_rng, species_rng, ball_rng, coin_rng = streams
    carried = np.empty(0, dtype=np.int64)  # the open draw's last events, position 0
    outcomes[:] = (init.regular_left, init.heavy_left)
    for lo in range(0, len(outcomes), _CHUNK):
        counts = count_rng.poisson(total_rate * t, min(_CHUNK, len(outcomes) - lo))
        events[lo : lo + counts.size] = counts
        ends = np.cumsum(counts)
        for first in range(0, int(ends[-1]), _CHUNK):
            stop = min(first + _CHUNK, int(ends[-1]))
            size = stop - first
            low, high = ends.searchsorted((first, stop - 1), side="right")
            per_draw = counts[low : high + 1].copy()  # each draw's events in [first, stop)
            per_draw[0] -= first - (ends[low] - counts[low])
            per_draw[-1] -= ends[high] - stop
            heavy = species_rng.random(size) < heavy_share
            key = (ball_rng.random(size) * np.where(heavy, m, n)).astype(np.int64)
            key += heavy * n  # the ball
            key += np.repeat(np.arange(0, (high - low + 1) * balls, balls), per_draw)
            field = np.arange(2, 2 * size + 2, 2) + (coin_rng.random(size) < 0.5)
            words = np.concatenate((carried, key << bits | field))
            words.sort()
            keys = words >> bits
            last = np.append(np.flatnonzero(keys[1:] != keys[:-1]), keys.size - 1)
            keys, coins = keys[last], words[last] & 1
            cut, carried = keys.size, keys[:0]
            if ends[high] > stop:  # the open draw goes on in the next chunk
                open_key = (high - low) * balls
                cut = keys.searchsorted(open_key)
                carried = (keys[cut:] - open_key) << bits | coins[cut:]
            draw, ball = np.divmod(keys[:cut], balls)
            is_heavy = ball >= n
            started_left = ball < np.where(is_heavy, n + init.heavy_left, init.regular_left)
            # each (draw, species) cell's sum of coin - started_left; the float
            # weights add these small integers exactly
            sums = np.bincount(
                2 * draw + is_heavy, weights=coins[:cut] - started_left,
                minlength=2 * (high - low + 1),
            )
            outcomes[lo + low : lo + high + 1] += sums.reshape(-1, 2).astype(np.int64)


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
        limit = _ctmc_ball_limit()
        if params.total_balls > limit:
            raise CapacityError(
                f"{params.total_balls} balls exceed the ctmc sampler's {limit}-ball guard"
            )
    init.validate(params)
    species = _coupled_species(params, init, t) if sampler == "coupled" else None
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

