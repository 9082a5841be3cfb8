"""urnlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload observable --seed 1 --seconds 40 --trace 0
    for w in observable chain crosscheck; do python3 perfbench/run.py --workload $w; done

Each workload runs in fresh, single-threaded interpreters (worker.py; BLAS
and OpenMP pools capped at one thread), one after the other.  With
``--trace 0`` three workers in turn repeat the workload's fixed op list,
untraced, each for a third of ``--seconds``; their op times are pooled and
``setup_s`` is the median of their three set-ups.  The gated times,
``setup_s`` and ``wall_s``, are scaled towards a reference machine speed by
a calibration kernel run around every op (worker.py); the raw times are
reported beside them as ``setup_raw_s`` and ``wall_raw_s``.  With
``--trace 1`` it runs the op list untraced, traced (every layer function
wrapped, spans.py) and untraced again, and reports the per-layer metrics of
the traced pass and the tracing overhead against the two untraced passes.

Every op's output is checked (workloads.py); an op that raises, exits
non-zero or fails a check counts as failed.  The report names every metric
with its unit and sample count; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  A run record with all
samples is written under perfbench/out/.  Without the urnlab sources next to
this directory the script exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("observable", "chain", "crosscheck")
DEADLINE_S = 170.0  # every run must end within 180 s
WORKERS = 3

# The metrics on the last line: present on every workload and never zero.  The
# op metrics (curve_s, classify_s, coupled_draws_per_s, ...) exist on one
# workload each, so they are only reported.
# wall_s is the op list's time to solution: the sum over ops of each op's
# median scaled time.  In ten seeds per workload on a shared 2-vCPU Xeon VM
# the raw sum spread by 0.08-0.23 of its median (quartile distance), the
# scaled sum by 0.05-0.14.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def _worker(mode, workload, seed, seconds, deadline):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
               str(seconds)]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _summary(values):
    """Median, the highest percentile with at least 10 samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 20:
        q = 100 * (n - 10) // n
        rank = -(-q * n // 100)  # nearest rank; n - rank >= 10 samples lie above
        tail = (q, ordered[rank - 1])
    return statistics.median(ordered), tail, n


def _record():
    """Commit, interpreter, libraries and machine the run used."""
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


def _line(name, value, unit, extra=""):
    return f"  {name:<40} {value:>14.6g} {unit:<6} {extra}"


def _measure(workload, seed, seconds, deadline):
    # WORKERS fresh interpreters one after the other, each measuring for an
    # equal share of the run: every one gives a set-up sample, and pooling
    # their op samples evens out what differs from one process to the next
    children = [_worker("measure", workload, seed, seconds / WORKERS, deadline)
                for _ in range(WORKERS)]
    samples = {name: [v for child in children for v in child["samples"][name]]
               for name in children[0]["samples"]}
    samples["setup_raw_s"] = [child["setup_s"] for child in children]
    op_seconds, op_scaled = ({op: [v for child in children for v in child[key][op]]
                              for op in children[0][key]}
                             for key in ("op_seconds", "op_scaled"))
    attempted = sum(child["attempted"] for child in children)
    errors = [e for child in children for e in child["errors"]]
    metrics = {}
    lines = []
    units = {"setup_raw_s": "s", "pass_s": "s", **children[0]["units"]}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            lines.append(f"  {name:<40} {'-':>14} {unit:<6} no successful run")
            continue
        median, tail, n = _summary(values)
        best = min(values) if unit == "s" else max(values)
        metrics[name] = {"value": median, "unit": unit}
        tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "no tail percentile (n<20)"
        lines.append(_line(name, median, unit, f"median, n={n}, {tail_text}, best={best:.6g}"))
    setup = statistics.median(child["setup_scaled_s"] for child in children)
    metrics["setup_s"] = {"value": setup, "unit": "s"}
    lines.append(_line("setup_s", setup, "s",
                       f"median of {WORKERS} set-ups, scaled towards the reference speed"))
    raw = sum(statistics.median(times) for times in op_seconds.values())
    metrics["wall_raw_s"] = {"value": raw, "unit": "s"}
    lines.append(_line("wall_raw_s", raw, "s", "sum over ops of each op's median run"))
    wall = sum(statistics.median(times) for times in op_scaled.values())
    metrics["wall_s"] = {"value": wall, "unit": "s"}
    lines.append(_line("wall_s", wall, "s", "the same, each run scaled towards the reference speed"))
    peak = max(child["peak_rss_mb"] for child in children)
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    lines.append(_line("peak_rss_mb", peak, "MB", f"largest ru_maxrss of the {WORKERS} workers"))
    lines.append(_line("failed_frac", len(errors) / attempted, "ratio",
                       f"{len(errors)} of {attempted} ops"))
    calibration = [c for child in children for c in child["calibration"]]
    return {"metrics": {name: metrics[name] for name in END_TO_END}, "all_metrics": metrics,
            "samples": samples, "op_seconds": op_seconds, "op_scaled": op_scaled,
            "calibration_s": calibration, "attempted": attempted, "errors": errors,
            "lines": lines, "inputs": children[0]["inputs"]}


def _trace(workload, seed, seconds, deadline):
    main = _worker("trace", workload, seed, seconds, deadline)
    metrics = main["per_layer"]
    lines = [_line(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for op, (layer, self_ms) in main["attribution"].items():
        lines.append(f"  op {op}: largest self time in {layer} ({self_ms:.1f} ms)")
    lines.append(f"  {main['spans']} spans written to {main['spans_file']}")
    return {"metrics": metrics, "attempted": main["attempted"], "errors": main["errors"],
            "lines": lines, "inputs": main["inputs"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "urnlab" / "__init__.py").is_file():
        print(f"perfbench: no urnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = _trace if args.trace else _measure
    try:
        report = run(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = _record()
    print(f"urnlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(f"  inputs: {json.dumps(report['inputs'])}")
    print("\n".join(report.pop("lines")))
    errors = report["errors"]
    for error in errors[:5]:
        print(f"  FAILED {error}")
    result = {"correct": not errors, "attempted": report["attempted"], "failed": len(errors),
              "metrics": report["metrics"]}
    out = HERE / "out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**report, **result, "record": record}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
