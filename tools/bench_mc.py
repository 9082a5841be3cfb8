"""Benchmark record for the Monte Carlo samplers, at two levels.

Measures one or two checkouts of urnlab and writes one JSON record:

    python tools/bench_mc.py --out BENCH_<pr>.json
    python tools/bench_mc.py --parent ../urnlab-parent --out BENCH_<pr>.json

The checkout holding this script is measured as "change"; --parent names a
second checkout (for instance a `git clone` of the parent commit) measured
as "parent" with the same commands.  Every measurement runs in a fresh
interpreter that imports urnlab from that checkout's src/, parent and change
in turn, so machine noise falls on both.

Per layer: the best of 5 `mc.sample_batch` times at fixed sizes (CASES).
End to end: the Tier-1 suite's wall time and criterion 8's call time (one
pytest run, read from its JUnit report), and the last stdout line of
`perfbench/run.py` for each workload at --seed and --seconds.
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
SCHEMA = "urnlab-bench-mc/1"
REPEATS = 5
WORKLOADS = ("observable", "chain", "crosscheck")
CRITERION_8 = "test_criterion_8_monte_carlo_consistency"

# name: (sampler, (total_balls, heavy_count, heavy_rate), t, draws)
CASES = {
    "coupled_N1e4_t12_20k": ("coupled", (10_000, 1000, 0.2), 12.0, 20_000),
    "coupled_N500_t3_1M": ("coupled", (500, 50, 0.3), 3.0, 1_000_000),
    "ctmc_N500_t3_200": ("ctmc", (500, 50, 0.3), 3.0, 200),
    "ctmc_N6_t0.8_200k": ("ctmc", (6, 2, 0.5), 0.8, 200_000),
}

# Runs in the measured checkout's interpreter; prints {case: best seconds}.
_LAYER_SCRIPT = """
import json, sys, time
from urnlab import InitialState, ModelParams, mc
cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
best = {}
for name, (sampler, params, t, draws) in cases.items():
    times = []
    for seed in range(repeats):
        started = time.perf_counter()
        mc.sample_batch(ModelParams(*params), InitialState(0, 0), t, draws, seed,
                        sampler=sampler)
        times.append(time.perf_counter() - started)
    best[name] = min(times)
print(json.dumps(best))
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
    return {name: {"best_s": seconds, "of": REPEATS} for name, seconds in json.loads(out).items()}


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
        "cases": {name: dict(zip(("sampler", "params", "t", "draws"), case))
                  for name, case in CASES.items()},
        "checkouts": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
