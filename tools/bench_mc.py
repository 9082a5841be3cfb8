"""Benchmark record for the samplers, binomial tables, distances, convolution,
the half-line lower bound and negdep, at two levels.

Measures one or two checkouts of urnlab and writes one JSON record:

    python tools/bench_mc.py --out BENCH_<pr>.json
    python tools/bench_mc.py --parent ../urnlab-parent --out BENCH_<pr>.json

The checkout holding this script is measured as "change"; --parent names a
second checkout (for instance a `git clone` of the parent commit) measured
as "parent" with the same commands.  Every measurement runs in a fresh
interpreter that imports urnlab from that checkout's src/, with BLAS and
OpenMP at one thread (THREADS), parent and change in turn, so machine noise
falls on both.  Each per-layer case runs in 3 rounds per checkout (ROUNDS),
the checkout that goes first alternating from round to round; the record
keeps every round and the median over rounds of the per-round bests, since
one round per side cannot tell a 2x change from a shared machine's drift.

Per layer: the first call, then the best of 5 samples, of `mc.sample_batch`,
`dist.binomial_pmf`, `negdep.verify_negative_dependence`, `cli._json_text` on a
prebuilt negdep report, one evaluation of a
`dist.distance_curve` (the observable from the perfbench size N = 10^4, the
chain from N = 10^5, both up to N = 10^7; the curve is built before the
timed calls), `dist.coordinate_law` from a corner and from an interior
start, `dist.convolve` of two prebuilt binomial tables and
`bounds.kolmogorov_lower_bound` (up to N = 10^7), at fixed sizes
(CASES, each case in a fresh interpreter; the first call pays what a process
builds once, such as negdep's cached tables).  Each sample repeats the
call for at least MIN_SAMPLE_S, the count set by timing one more call after
the first, and reports the time per call: with one call per sample,
sub-millisecond cases spread 1.5x between rounds.  With each case, that
interpreter's peak RSS (ru_maxrss, set-up and import included), and the
best of 5 `import urnlab` times, each in a fresh interpreter, in the same
rounds.
End to end: the Tier-1 suite's wall time and criterion 8's call time (one
pytest run, read from its JUnit report), and the last stdout line of
`perfbench/run.py` for each workload at --seed and --seconds, ROUNDS runs
per checkout in the same alternating rounds; the record keeps every run and
the median of each end-to-end metric over the runs, since a workload run
once per checkout, always in the same order, can read the machine's drift
as a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "urnlab-bench-mc/10"
REPEATS = 5
MIN_SAMPLE_S = 0.02
ROUNDS = 3
WORKLOADS = ("observable", "chain", "crosscheck")
CRITERION_8 = "test_criterion_8_monte_carlo_consistency"
# every child runs with BLAS and OpenMP at one thread, as perfbench's workers do:
# OpenBLAS splits a dot product of more than 10,000 entries across threads, and on
# a shared machine such a dot can wait milliseconds for the second thread
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name: (call, arguments); model parameters are (total_balls, heavy_count, heavy_rate)
CASES = {
    "coupled_N1e4_t12_20k": ("sample_batch", ("coupled", (10_000, 1000, 0.2), 12.0, 20_000)),
    "coupled_N500_t3_1M": ("sample_batch", ("coupled", (500, 50, 0.3), 3.0, 1_000_000)),
    "ctmc_N500_t3_200": ("sample_batch", ("ctmc", (500, 50, 0.3), 3.0, 200)),
    "ctmc_N6_t0.8_200k": ("sample_batch", ("ctmc", (6, 2, 0.5), 0.8, 200_000)),
    # 0.475 events a draw: one event chunk spans thousands of draws
    "ctmc_N50_t0.01_20k": ("sample_batch", ("ctmc", (50, 5, 0.5), 0.01, 20_000)),
    "binomial_N272_p0.33": ("binomial_pmf", (272, 0.33)),
    "binomial_N1000_p0.115": ("binomial_pmf", (1000, 0.115)),
    "binomial_N9000_p0.36": ("binomial_pmf", (9000, 0.36)),
    "binomial_N9e4_p0.3": ("binomial_pmf", (90_000, 0.3)),
    "binomial_N1e5_p0.5": ("binomial_pmf", (100_000, 0.5)),
    "binomial_N1e6_p0.31": ("binomial_pmf", (1_000_000, 0.31)),
    "negdep_N1000_m100_t1_1000rows": ("verify_negative_dependence", ((1000, 100, 0.2), 1.0, 1000)),
    # every row of N = 10^4: the O(N) walk beside the 1,000-row case
    "negdep_N1e4_m1e3_t1_allrows": (
        "verify_negative_dependence", ((10_000, 1000, 0.2), 1.0, 10_000)
    ),
    "negdep_json_N1e3": ("json_text", ((1000, 100, 0.2), 1.0, 1000)),
    "observable_curve_N1e4_t5": ("distance_curve", ("observable", (10_000, 1000, 0.2), 5.0)),
    "observable_curve_N1e5_t20": ("distance_curve", ("observable", (100_000, 10_000, 0.2), 20.0)),
    "observable_curve_N1e6_t20": ("distance_curve", ("observable", (1_000_000, 100_000, 0.2), 20.0)),
    "chain_curve_N1e5_t20": ("distance_curve", ("chain", (100_000, 10_000, 0.2), 20.0)),
    "chain_curve_N1e6_t20": ("distance_curve", ("chain", (1_000_000, 100_000, 0.2), 20.0)),
    "observable_curve_N1e7_t20": (
        "distance_curve", ("observable", (10_000_000, 1_000_000, 0.2), 20.0)
    ),
    "chain_curve_N1e7_t20": ("distance_curve", ("chain", (10_000_000, 1_000_000, 0.2), 20.0)),
    "coordinate_law_n9e4_corner_t5": ("coordinate_law", (90_000, 0, 1.0, 5.0)),
    "coordinate_law_n9e4_interior_t5": ("coordinate_law", (90_000, 45_000, 1.0, 5.0)),
    "convolve_9000x1000": ("convolve", ((9000, 0.36), (1000, 0.115))),
    "convolve_90000x10000": ("convolve", ((90_000, 0.5), (10_000, 0.275))),
    "kolmogorov_N1e5_t6": ("kolmogorov_lower_bound", ((100_000, 10_000, 0.2), 6.0)),
    "kolmogorov_N1e6_t20": ("kolmogorov_lower_bound", ((1_000_000, 100_000, 0.2), 20.0)),
    "kolmogorov_N1e7_t20": ("kolmogorov_lower_bound", ((10_000_000, 1_000_000, 0.2), 20.0)),
}
ARGUMENT_NAMES = {
    "sample_batch": ("sampler", "params", "t", "draws"),
    "binomial_pmf": ("trials", "success_prob"),
    "verify_negative_dependence": ("params", "t", "max_size"),
    "json_text": ("params", "t", "max_size"),
    "distance_curve": ("target", "params", "t"),
    "coordinate_law": ("count", "ones_initial", "rate", "t"),
    "convolve": ("binomial_a", "binomial_b"),
    "kolmogorov_lower_bound": ("params", "t"),
}

# Runs in the measured checkout's interpreter; prints {"times": {case: {"first":
# seconds, "calls": calls per sample, "samples": [seconds per call]}}, "peak_rss_mb":
# the interpreter's peak RSS} (ru_maxrss is in KiB on Linux).  prepare[call] takes
# a case's arguments, does the untimed set-up and returns the timed call; every
# call of sample i of a sample_batch case uses seed i.
_LAYER_SCRIPT = """
import json, math, resource, sys, time
from urnlab import InitialState, ModelParams, bounds, cli, dist, mc, negdep

def curve_evaluation(target, params, t):
    try:
        curve = dist.distance_curve(ModelParams(*params), (target,))
    except ValueError:  # a checkout whose distance_curve takes one target name
        curve = dist.distance_curve(ModelParams(*params), target)
    return lambda seed: curve(t)

def convolution(a, b):
    x, y = dist.binomial_pmf(*a), dist.binomial_pmf(*b)
    return lambda seed: dist.convolve(x, y)

def negdep_json(params, t, max_size):
    report = negdep.verify_negative_dependence(ModelParams(*params), t, max_size)
    config = {"subcommand": "negdep", "n_balls": params[0], "heavy": params[1],
              "alpha": params[2], "t": t, "max_size": max_size, "brute": "auto"}
    return lambda seed: cli._json_text("negdep-report/1", config, report)

prepare = {
    "sample_batch": lambda sampler, params, t, draws: lambda seed: mc.sample_batch(
        ModelParams(*params), InitialState(0, 0), t, draws, seed, sampler=sampler),
    "binomial_pmf": lambda trials, prob: lambda seed: dist.binomial_pmf(trials, prob),
    "verify_negative_dependence": lambda params, t, max_size: lambda seed:
        negdep.verify_negative_dependence(ModelParams(*params), t, max_size),
    "distance_curve": curve_evaluation,
    "coordinate_law": lambda count, ones, rate, t: lambda seed:
        dist.coordinate_law(count, ones, rate, t),
    "convolve": convolution,
    "json_text": negdep_json,
    "kolmogorov_lower_bound": lambda params, t: lambda seed:
        bounds.kolmogorov_lower_bound(ModelParams(*params), t),
}
cases, repeats, min_sample = json.loads(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
times = {}
for name, (call, arguments) in cases.items():
    timed = prepare[call](*arguments)
    started = time.perf_counter()
    timed(0)
    first = time.perf_counter() - started
    started = time.perf_counter()
    timed(0)
    calls = max(1, math.ceil(min_sample / (time.perf_counter() - started)))
    samples = []
    for seed in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            timed(seed)
        samples.append((time.perf_counter() - started) / calls)
    times[name] = {"first": first, "calls": calls, "samples": samples}
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"times": times, "peak_rss_mb": peak_rss_mb}))
"""
_IMPORT_SCRIPT = """
import time
started = time.perf_counter()
import urnlab
print(time.perf_counter() - started)
"""


def _run(checkout: Path, command: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **THREADS)
    completed = subprocess.run(
        command, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return completed.stdout


def _git(checkout: Path) -> dict:
    def git(*args: str) -> str:
        completed = subprocess.run(
            ["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        return completed.stdout.strip() if completed.returncode == 0 else ""

    # dirty: the measured tree has uncommitted changes on top of sha
    return {"sha": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def _layer_round(checkout: Path, name: str) -> dict:
    """One round of a case in a fresh interpreter: memory a large case leaves
    to the allocator would otherwise spare the next case its page faults."""
    if name == "import_urnlab":
        command = [sys.executable, "-c", _IMPORT_SCRIPT]
        return {"best_s": min(float(_run(checkout, command)) for _ in range(REPEATS))}
    command = [
        sys.executable, "-c", _LAYER_SCRIPT, json.dumps({name: CASES[name]}), str(REPEATS),
        str(MIN_SAMPLE_S),
    ]
    measured = json.loads(_run(checkout, command))
    times = measured["times"][name]
    return {
        "first_s": times["first"], "best_s": min(times["samples"]),
        "calls_per_sample": times["calls"], "peak_rss_mb": measured["peak_rss_mb"],
    }


def _rounds(labels: list[str]):
    """(round, label) for ROUNDS rounds, the first label of a round alternating."""
    for i in range(ROUNDS):
        for label in labels if i % 2 == 0 else labels[::-1]:
            yield i, label


def per_layer(checkouts: dict[str, Path]) -> dict[str, dict]:
    """Every case, ROUNDS rounds per checkout, the first checkout of a round
    alternating: {label: {case: {"rounds": [...], "median_best_s", "of"}}}."""
    records = {label: {} for label in checkouts}
    for name in [*CASES, "import_urnlab"]:
        rounds = {label: [] for label in checkouts}
        for _, label in _rounds(list(checkouts)):
            rounds[label].append(_layer_round(checkouts[label], name))
        for label, measured in rounds.items():
            records[label][name] = {
                "rounds": measured, "of": REPEATS,
                "median_best_s": statistics.median(r["best_s"] for r in measured),
            }
    return records


def tier1(checkout: Path) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "junit.xml"
        started = time.perf_counter()
        _run(checkout, [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", f"--junitxml={report}",
        ])
        wall = time.perf_counter() - started
        root = ElementTree.parse(report).getroot()
    suite = root if root.tag == "testsuite" else root.find("testsuite")
    criterion = next(case for case in suite.iter("testcase") if case.get("name") == CRITERION_8)
    return {
        "tier1_wall_s": wall,
        "tier1_tests": int(suite.get("tests")),
        "tier1_failures": int(suite.get("failures")) + int(suite.get("errors")),
        "criterion_8_s": float(criterion.get("time")),
    }


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = _run(checkout, [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds),
    ])
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(checkouts: dict[str, Path], seed: int, seconds: float) -> dict[str, dict]:
    """Every workload, ROUNDS runs per checkout in alternating rounds:
    {label: {"perfbench_<workload>": {"runs": [...], "median": {metric: value}}}}."""
    records = {label: {} for label in checkouts}
    for workload in WORKLOADS:
        runs = {label: [] for label in checkouts}
        for i, label in _rounds(list(checkouts)):
            print(f"{label}: perfbench {workload}, round {i + 1}", file=sys.stderr, flush=True)
            runs[label].append(perfbench(checkouts[label], workload, seed, seconds))
        for label, measured in runs.items():
            records[label][f"perfbench_{workload}"] = {
                "runs": measured,
                "median": {
                    metric: statistics.median(run["metrics"][metric]["value"] for run in measured)
                    for metric in measured[0]["metrics"]
                },
            }
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    parser.add_argument("--parent", type=Path, help="second checkout, measured as parent")
    parser.add_argument("--seed", type=int, default=0, help="perfbench seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="perfbench run length")
    args = parser.parse_args()
    checkouts = {"change": ROOT}
    if args.parent is not None:
        checkouts = {"parent": args.parent.resolve(), **checkouts}
    results = {label: {**_git(path), "per_layer": {}, "end_to_end": {}}
               for label, path in checkouts.items()}
    print("per layer", file=sys.stderr, flush=True)
    for label, record in per_layer(checkouts).items():
        results[label]["per_layer"] = record
    for label, path in checkouts.items():
        print(f"{label}: Tier-1", file=sys.stderr, flush=True)
        results[label]["end_to_end"].update(tier1(path))
    for label, record in end_to_end(checkouts, args.seed, args.seconds).items():
        results[label]["end_to_end"].update(record)
    record = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
        "rounds": ROUNDS,
        "min_sample_s": MIN_SAMPLE_S,
        "perfbench": {"seed": args.seed, "seconds": args.seconds},
        "cases": {name: {"call": call, **dict(zip(ARGUMENT_NAMES[call], arguments))}
                  for name, (call, arguments) in CASES.items()},
        "checkouts": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
