"""The three benchmark workloads: inputs drawn from the seed, a fixed op list, checks.

Sizes are fixed.  The workload seed draws only the time grids, the epsilons
(in [0.15, 0.35]) and the Monte Carlo seeds; the program receives nothing but
these generated values.  Every op calls the library through module attributes
(``phase.mixing_time``, ``cli.main``) so that a traced run, which patches
those attributes, sees every call.

observable
    The README ``curve`` (N=10^4, 40 geometric points, no ``--chain``),
    ``bounds --exact`` at N=10^5 and an observable ``mixing_time`` search.
    Nearly all time goes to ``dist.binomial_pmf``, ``dist.convolve``,
    ``dist.tv`` and ``bounds.kolmogorov_lower_bound``; ``tv_product`` never
    runs.  At N=10^5 only about 5 % of the convolution multiply-adds touch
    entries that survive ``exp`` underflow, so a windowed ``Pmf`` shows here.
    Should move: ``dist.convolve``, ``dist.binomial_pmf``, ``dist.tv``,
    ``bounds``.  Should not move: ``dist.tv_product``, ``mc``, ``negdep``.

chain
    The README ``classify`` (its ratio runs a chain mixing-time search at
    N=10^4, m=10^3), ``curve --chain`` on a short grid and a chain
    ``mixing_time`` on the no-cutoff instance N=10^4, m=272, alpha=1/ln 10^4.
    ``dist.tv_product`` dominates (four corners per evaluation, about twenty
    evaluations per search); convolution is nearly free because a corner
    start makes one binomial factor have length 1.  The threshold-sorted
    product distance and mirror symmetry show here and must not move
    ``observable``.  Should move: ``dist.tv_product``, ``dist.chain_tv``,
    ``phase``.  Should not move: ``dist.convolve``, ``mc``, ``negdep``.

crosscheck
    The README ``simulate`` (coupled, N=500, 100k draws, JSON summary),
    coupled ``sample_batch`` at N=10^4, event-driven ``sample_batch`` at
    N=500 (about 1,400 events per draw) and ``negdep`` at N=10^3 (brute force
    skipped by its own guard, 1,000 closed-form rows).  Every cost is a
    per-item Python loop: one Philox generator per coupled draw, one event
    per ctmc loop turn, one scalar ``gammaln`` per hypergeometric term.
    Should move: ``mc.draw_stream``, ``mc.sample_coupled``,
    ``negdep.joint_moment``.  Should not move: ``dist.tv_product``,
    ``dist.convolve`` (``dist`` runs once, for the exact law).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from urnlab import InitialState, ModelParams, bounds, cli, dist, mc, negdep, phase

REFERENCE_SEED = 0
REFERENCE_TOL = 1e-9  # absolute, the tolerance of acceptance criteria 1 and 3
SANDWICH_TOL = 1e-9
BRACKET_WIDTH_FACTOR = 1e-3  # widest mixing bracket allowed, in relaxation times


class OpFailed(RuntimeError):
    """An op exited non-zero or produced output that failed its check."""


@dataclass(frozen=True)
class Op:
    """One timed operation of a workload.

    run() is the timed call.  summarize(result) turns its result into plain
    numbers and checks every invariant that needs no stored reference,
    raising OpFailed on a breach; it runs untimed and untraced.  When
    `seeded` is False the op's inputs do not depend on the seed, so its
    summary is compared with the stored reference on every seed, not only on
    REFERENCE_SEED.  Ops without a summary worth pinning (Monte Carlo) return
    None.  `metric` is the op's end-to-end name; when `work` is given the
    metric is a throughput, work(result) items per second, not seconds.
    """

    name: str
    metric: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    seeded: bool = True
    work: Callable[[Any], float] | None = None


@dataclass(frozen=True)
class Workload:
    inputs: dict
    warmup: Callable[[], Any]  # fixed inputs; its summary is pinned on every seed
    ops: tuple[Op, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _geometric_grid(rng: random.Random, lo: tuple, hi: tuple, points: int) -> dict:
    return {"t_start": rng.uniform(*lo), "t_stop": rng.uniform(*hi), "t_points": points}


def _grid_args(grid: dict) -> list[str]:
    return [
        "--t-start", _fmt(grid["t_start"]),
        "--t-stop", _fmt(grid["t_stop"]),
        "--t-points", str(grid["t_points"]),
        "--t-spacing", "geometric",
    ]


def _model_args(n_balls: int, heavy: int, alpha: float) -> list[str]:
    return ["--n-balls", str(n_balls), "--heavy", str(heavy), "--alpha", _fmt(alpha)]


def run_cli(argv: list[str]) -> str:
    """One in-process ``urnlab`` invocation; returns its stdout text."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    if code != 0:
        raise OpFailed(f"urnlab {argv[0]} exited with code {code}")
    return buffer.getvalue()


def _csv_rows(text: str) -> dict:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return {"columns": columns, "rows": rows}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


# ---------------------------------------------------------------------------
# Summaries and invariant checks
# ---------------------------------------------------------------------------


def _curve_summary(text: str, params: ModelParams) -> dict:
    table = _csv_rows(text)
    for row in table["rows"]:
        t, values = row[0], row[1:]
        _require(all(0.0 <= v <= 1.0 for v in values), f"distance outside [0, 1] at t={t}")
        if len(values) == 2:
            d_obs, d_chain = values
            # the observable is a projection of the chain, so it cannot be farther
            _require(d_obs <= d_chain + SANDWICH_TOL, f"D_obs > D_chain at t={t}")
            _require(
                d_chain <= bounds.product_chain_upper_bound(params, t) + SANDWICH_TOL,
                f"D_chain above its certified bound at t={t}",
            )
    return table


def _bounds_summary(text: str) -> dict:
    table = _csv_rows(text)
    col = {name: i for i, name in enumerate(table["columns"])}
    for row in table["rows"]:
        lower = max(row[col["lb_cheb"]], row[col["lb_kolm"]])
        upper = min(row[col["ub_l2"]], 1.0, row[col["ub_coupling_raw"]])
        exact = row[col["exact"]]
        _require(
            lower - SANDWICH_TOL <= exact <= upper + SANDWICH_TOL,
            f"bound sandwich broken at t={row[0]}",
        )
    return table


def _mixing_summary(result, params: ModelParams, epsilon: float) -> dict:
    _require(
        result.value_lo >= epsilon >= result.value_hi,
        f"bracket values {result.value_lo}, {result.value_hi} do not straddle {epsilon}",
    )
    width_goal = BRACKET_WIDTH_FACTOR * params.relaxation_time
    _require(
        0.0 <= result.bracket_hi - result.bracket_lo <= width_goal,
        f"bracket [{result.bracket_lo}, {result.bracket_hi}] wider than {width_goal}",
    )
    return dataclasses.asdict(result)


def _mean_within_4se(mean: float, exact_mean: float, exact_var: float, count: int, what: str):
    tolerance = 4.0 * math.sqrt(exact_var / count)
    _require(
        abs(mean - exact_mean) <= tolerance,
        f"{what}: mean {mean} is more than 4 SE ({tolerance}) from {exact_mean}",
    )


def _batch_summary(batch, with_events: bool) -> None:
    """Criterion-8 style checks: mean within 4 SE, TV within the bias scale."""
    params, init, t = batch.params, batch.init, batch.t
    exact = dist.observed_law(params, init, t)
    totals = batch.outcomes.sum(axis=1)
    _mean_within_4se(
        float(totals.mean()), exact.mean(), exact.variance(), batch.count, batch.sampler
    )
    distance = dist.tv(mc.empirical_pmf(batch), exact)
    bias = math.sqrt((params.total_balls + 1) / batch.count)
    _require(distance <= bias, f"{batch.sampler}: TV {distance} above bias scale {bias}")
    if with_events:
        # events per draw are Poisson with mean (n + m alpha) t
        expected = (params.regular_count + params.heavy_count * params.heavy_rate) * t
        _mean_within_4se(
            float(batch.event_counts.mean()), expected, expected, batch.count, "ctmc events"
        )


def _simulate_summary(text: str) -> None:
    report = json.loads(text)
    samples = report["config"]["samples"]
    _mean_within_4se(
        report["empirical_mean"], report["exact_mean"], report["exact_variance"],
        samples, "simulate",
    )
    _require(
        report["tv_to_exact"] <= report["tv_bias_bound"],
        f"simulate: TV {report['tv_to_exact']} above bias scale {report['tv_bias_bound']}",
    )


def _negdep_summary(text: str) -> dict:
    report = json.loads(text)
    _require(report["passed"] is True, "negdep certificate did not pass")
    return report


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _observable(rng: random.Random) -> Workload:
    inputs = {
        "curve_grid": _geometric_grid(rng, (0.5, 1.5), (25.0, 35.0), 40),
        "bounds_grid": _geometric_grid(rng, (4.0, 8.0), (30.0, 45.0), 3),
        "epsilon": rng.uniform(0.15, 0.35),
    }
    curve_params = ModelParams(10_000, 1000, 0.2)
    curve_argv = ["curve", *_model_args(10_000, 1000, 0.2), *_grid_args(inputs["curve_grid"])]
    bounds_argv = [
        "bounds", *_model_args(100_000, 10_000, 0.2), *_grid_args(inputs["bounds_grid"]),
        "--exact",
    ]
    epsilon = inputs["epsilon"]
    warm = ModelParams(100_000, 10_000, 0.2)
    return Workload(
        inputs=inputs,
        # a first N=10^5 convolution runs 2-5x slow while fresh arrays page-fault
        warmup=lambda: {"observed_tv": dist.observed_tv(warm, 20.0)},
        ops=(
            Op("curve", "curve_s", lambda: run_cli(curve_argv),
               lambda text: _curve_summary(text, curve_params)),
            Op("bounds", "bounds_s", lambda: run_cli(bounds_argv), _bounds_summary),
            Op("mixing_time", "mixing_time_s",
               lambda: phase.mixing_time(curve_params, epsilon, target="observable"),
               lambda result: _mixing_summary(result, curve_params, epsilon)),
        ),
    )


def _chain(rng: random.Random) -> Workload:
    inputs = {
        "curve_grid": _geometric_grid(rng, (4.0, 8.0), (25.0, 40.0), 3),
        "epsilon": rng.uniform(0.15, 0.35),
    }
    classify_argv = [
        "classify", "--m-rule", "power:0.75", "--alpha-rule", "const:0.2",
        "--sizes", "1000,10000,100000",
    ]
    curve_params = ModelParams(10_000, 1000, 0.2)
    curve_argv = [
        "curve", *_model_args(10_000, 1000, 0.2), *_grid_args(inputs["curve_grid"]), "--chain",
    ]
    no_cutoff = ModelParams(10_000, 272, 1.0 / math.log(10_000))
    epsilon = inputs["epsilon"]
    return Workload(
        inputs=inputs,
        warmup=lambda: {"chain_tv": dist.chain_tv(curve_params, 20.0)},
        ops=(
            Op("classify", "classify_s", lambda: run_cli(classify_argv), json.loads,
               seeded=False),
            Op("curve", "curve_s", lambda: run_cli(curve_argv),
               lambda text: _curve_summary(text, curve_params)),
            Op("mixing_time", "mixing_time_s",
               lambda: phase.mixing_time(no_cutoff, epsilon, target="chain"),
               lambda result: _mixing_summary(result, no_cutoff, epsilon)),
        ),
    )


def _crosscheck(rng: random.Random) -> Workload:
    inputs = {
        "simulate_seed": rng.randrange(2**32),
        "coupled_seed": rng.randrange(2**32),
        "ctmc_seed": rng.randrange(2**32),
    }
    simulate_argv = [
        "simulate", *_model_args(500, 50, 0.3), "--initial", "0,0", "--t-start", "3",
        "--samples", "100000", "--seed", str(inputs["simulate_seed"]), "--format", "json",
    ]
    negdep_argv = ["negdep", *_model_args(1000, 100, 0.2), "--t-start", "1.0"]
    start = InitialState(0, 0)
    coupled_params = ModelParams(10_000, 1000, 0.2)
    ctmc_params = ModelParams(500, 50, 0.3)
    warm = ModelParams(1000, 100, 0.2)

    def warmup():
        mc.sample_batch(ctmc_params, start, 3.0, 2000, seed=1)
        report = negdep.verify_negative_dependence(warm, 1.0, 100)
        return {"joint": [row.joint for row in report.rows]}

    return Workload(
        inputs=inputs,
        warmup=warmup,
        ops=(
            Op("simulate", "simulate_s", lambda: run_cli(simulate_argv),
               _simulate_summary),
            Op("coupled", "coupled_draws_per_s",
               lambda: mc.sample_batch(
                   coupled_params, start, 12.0, 20_000, inputs["coupled_seed"],
                   sampler="coupled"),
               lambda batch: _batch_summary(batch, with_events=False),
               work=lambda batch: batch.count),
            Op("ctmc", "ctmc_events_per_s",
               lambda: mc.sample_batch(
                   ctmc_params, start, 3.0, 200, inputs["ctmc_seed"], sampler="ctmc"),
               lambda batch: _batch_summary(batch, with_events=True),
               work=lambda batch: int(batch.event_counts.sum())),
            Op("negdep", "negdep_s", lambda: run_cli(negdep_argv), _negdep_summary,
               seeded=False),
        ),
    )


BUILDERS = {"observable": _observable, "chain": _chain, "crosscheck": _crosscheck}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's inputs depend on `seed` alone (stdlib Mersenne Twister)."""
    return BUILDERS[name](random.Random(seed))


def compare(actual, expected, path: str = "") -> list[str]:
    """Differences between two summaries: numbers within REFERENCE_TOL, the rest exact."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{path}: keys differ"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(expected, bool):
        if not isinstance(actual, (int, float)) or not abs(actual - expected) <= REFERENCE_TOL:
            return [f"{path}: {actual!r} != {expected!r} (tol {REFERENCE_TOL})"]
        return []
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
