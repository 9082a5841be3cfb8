"""Benchmark record for the samplers, binomial tables and negdep, at two levels.

Measures one or two checkouts of urnlab and writes one JSON record:

    python tools/bench_mc.py --out BENCH_<pr>.json
    python tools/bench_mc.py --parent ../urnlab-parent --out BENCH_<pr>.json

The checkout holding this script is measured as "change"; --parent names a
second checkout (for instance a `git clone` of the parent commit) measured
as "parent" with the same commands.  Every measurement runs in a fresh
interpreter that imports urnlab from that checkout's src/, parent and change
in turn, so machine noise falls on both.

Per layer: the first and the best of 5 calls of `mc.sample_batch`,
`dist.binomial_pmf` and `negdep.verify_negative_dependence` at fixed sizes
(CASES; the first call pays what a process builds once, such as negdep's
cached tables), and the best of 5 `import urnlab` times, each in a fresh
interpreter.  End to end: the Tier-1 suite's wall time and criterion 8's call
time (one pytest run, read from its JUnit report), and the last stdout line
of `perfbench/run.py` for each workload at --seed and --seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "urnlab-bench-mc/2"
REPEATS = 5
WORKLOADS = ("observable", "chain", "crosscheck")
CRITERION_8 = "test_criterion_8_monte_carlo_consistency"

# name: (call, arguments); model parameters are (total_balls, heavy_count, heavy_rate)
CASES = {
    "coupled_N1e4_t12_20k": ("sample_batch", ("coupled", (10_000, 1000, 0.2), 12.0, 20_000)),
    "coupled_N500_t3_1M": ("sample_batch", ("coupled", (500, 50, 0.3), 3.0, 1_000_000)),
    "ctmc_N500_t3_200": ("sample_batch", ("ctmc", (500, 50, 0.3), 3.0, 200)),
    "ctmc_N6_t0.8_200k": ("sample_batch", ("ctmc", (6, 2, 0.5), 0.8, 200_000)),
    "binomial_N1000_p0.115": ("binomial_pmf", (1000, 0.115)),
    "binomial_N9000_p0.36": ("binomial_pmf", (9000, 0.36)),
    "binomial_N1e5_p0.5": ("binomial_pmf", (100_000, 0.5)),
    "binomial_N1e6_p0.31": ("binomial_pmf", (1_000_000, 0.31)),
    "negdep_N1000_m100_t1_1000rows": ("verify_negative_dependence", ((1000, 100, 0.2), 1.0, 1000)),
}
ARGUMENT_NAMES = {
    "sample_batch": ("sampler", "params", "t", "draws"),
    "binomial_pmf": ("trials", "success_prob"),
    "verify_negative_dependence": ("params", "t", "max_size"),
}

# Runs in the measured checkout's interpreter; prints {case: [seconds per call]}.
# Repeat i of a sample_batch case uses seed i.
_LAYER_SCRIPT = """
import json, sys, time
from urnlab import InitialState, ModelParams, dist, mc, negdep
calls = {
    "sample_batch": lambda seed, sampler, params, t, draws: mc.sample_batch(
        ModelParams(*params), InitialState(0, 0), t, draws, seed, sampler=sampler),
    "binomial_pmf": lambda seed, trials, prob: dist.binomial_pmf(trials, prob),
    "verify_negative_dependence": lambda seed, params, t, max_size:
        negdep.verify_negative_dependence(ModelParams(*params), t, max_size),
}
cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
times = {}
for name, (call, arguments) in cases.items():
    times[name] = []
    for seed in range(repeats):
        started = time.perf_counter()
        calls[call](seed, *arguments)
        times[name].append(time.perf_counter() - started)
print(json.dumps(times))
"""
_IMPORT_SCRIPT = """
import time
started = time.perf_counter()
import urnlab
print(time.perf_counter() - started)
"""


def _run(checkout: Path, command: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
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


def per_layer(checkout: Path) -> dict:
    out = _run(checkout, [sys.executable, "-c", _LAYER_SCRIPT, json.dumps(CASES), str(REPEATS)])
    record = {name: {"first_s": times[0], "best_s": min(times), "of": REPEATS}
              for name, times in json.loads(out).items()}
    command = [sys.executable, "-c", _IMPORT_SCRIPT]
    imports = [float(_run(checkout, command)) for _ in range(REPEATS)]
    record["import_urnlab"] = {"best_s": min(imports), "of": REPEATS}
    return record


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
    for label, path in checkouts.items():
        print(f"{label}: per layer", file=sys.stderr, flush=True)
        results[label]["per_layer"] = per_layer(path)
    for label, path in checkouts.items():
        print(f"{label}: Tier-1", file=sys.stderr, flush=True)
        results[label]["end_to_end"].update(tier1(path))
    for workload in WORKLOADS:
        for label, path in checkouts.items():
            print(f"{label}: perfbench {workload}", file=sys.stderr, flush=True)
            results[label]["end_to_end"][f"perfbench_{workload}"] = perfbench(
                path, workload, args.seed, args.seconds
            )
    record = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "perfbench": {"seed": args.seed, "seconds": args.seconds},
        "cases": {name: {"call": call, **dict(zip(ARGUMENT_NAMES[call], arguments))}
                  for name, (call, arguments) in CASES.items()},
        "checkouts": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
