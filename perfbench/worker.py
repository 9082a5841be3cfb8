"""One workload in a fresh interpreter: set up, then measure or trace.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``measure`` (untraced passes over the op list, as many as fit in
SECONDS and at least one) or ``trace`` (an untraced, a traced and another
untraced pass; the untraced pair brackets drift in machine speed).  Set-up
is the import of urnlab, input generation and one untimed warm-up op whose
result is checked against the stored reference.  The last
stdout line is one JSON object; run.py starts this script and reads it.

A shared machine's speed drifts by 30-60 % over seconds to minutes, so
every timing is also reported scaled towards a reference speed: a fixed
calibration kernel runs right after set-up and between ops, and a time is
multiplied by the square root of CAL_REF_S over the kernel's time measured
around it.  The root is a half correction: in ten-seed runs on a 2-vCPU Xeon
VM the ops slowed by 0.24 (long numpy ops) to 1.16 (interpreter loops) times
as much as the kernel, in log terms.  In one of two such sets a full
correction left chain's wall time spread wider than no correction did (0.18
against 0.11 of the median); the half correction kept every workload's
spread at 0.14 or less in both.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import urnlab  # noqa: E402

import workloads  # noqa: E402
from spans import OP_PREFIX, UNITS, Tracer  # noqa: E402

CAL_REF_S = 0.025  # the kernel's typical time on the 2-vCPU Xeon VM that set it
SETUP_CALIBRATIONS = 5

# The calibration kernel: an interpreter loop and in-cache numpy work in about
# equal parts.  It allocates nothing: a kernel that allocated large
# temporaries ran twice as fast after the chain ops as after the others,
# following the allocator state the ops left rather than the machine.
_CAL_X = np.linspace(0.0, 1.0, 20_000)
_CAL_OUT = np.empty_like(_CAL_X)


def calibrate():
    """Seconds for one run of the fixed calibration kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for _ in range(250):
        np.exp(_CAL_X, out=_CAL_OUT)
        np.multiply(_CAL_OUT, _CAL_X, out=_CAL_OUT)
        np.log1p(_CAL_OUT, out=_CAL_OUT)
    return time.perf_counter() - started


def _run_pass(workload, reference, seed, tracer=None, between=None):
    """Run every op once.  Returns [(op, seconds, result, error or None)]."""
    records = []
    for op in workload.ops:
        error = result = None
        if tracer is not None:
            tracer.op = op.name
            root = tracer.begin(OP_PREFIX + op.name)
            tracer.recording = True
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed op; the run goes on
            error = f"{op.name}: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.recording = False
            tracer.end(root)
        if error is None:
            error = _check(op, result, reference, seed)
        records.append((op, seconds, result, error))
        if between is not None:
            between()
    return records


def _check(op, result, reference, seed):
    try:
        summary = op.summarize(result)
    except workloads.OpFailed as exc:
        return f"{op.name}: {exc}"
    expected = reference.get(op.name)
    if expected is None or (op.seeded and seed != workloads.REFERENCE_SEED):
        return None
    differences = workloads.compare(summary, expected)
    if differences:
        return f"{op.name}: differs from reference: {differences[0]}"
    return None


def _setup(name, seed):
    if Path(urnlab.__file__).resolve().parent != ROOT / "src" / "urnlab":
        raise SystemExit(f"urnlab was imported from {urnlab.__file__}, not the checkout")
    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.build(name, seed)
    differences = workloads.compare(workload.warmup(), reference["warmup"][name])
    errors = [f"warm-up differs from reference: {d}" for d in differences[:1]]
    return workload, reference["ops"][name], errors, time.perf_counter() - _STARTED


def _measure(workload, reference, seed, seconds):
    """Untraced passes over the op list while the next is expected to fit in `seconds`.

    A calibration precedes the first op and follows every op; an op's scaled
    time uses the geometric mean of the two calibrations around it.
    """
    samples = {"pass_s": [], **{op.metric: [] for op in workload.ops}}
    op_seconds = {op.name: [] for op in workload.ops}
    op_scaled = {op.name: [] for op in workload.ops}
    attempted, errors = 0, []
    calibration = [calibrate()]
    started = time.perf_counter()
    last_pass = 0.0
    while time.perf_counter() - started + last_pass <= seconds:
        pass_started = time.perf_counter()
        records = _run_pass(workload, reference, seed,
                            between=lambda: calibration.append(calibrate()))
        flanks = calibration[-len(records) - 1:]
        for k, (op, elapsed, result, error) in enumerate(records):
            attempted += 1
            op_seconds[op.name].append(elapsed)
            speed = math.sqrt(flanks[k] * flanks[k + 1])
            op_scaled[op.name].append(elapsed * math.sqrt(CAL_REF_S / speed))
            if error is not None:
                errors.append(error)
                continue
            samples[op.metric].append(elapsed if op.work is None else op.work(result) / elapsed)
        samples["pass_s"].append(sum(r[1] for r in records))
        last_pass = time.perf_counter() - pass_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {op.metric: "s" if op.work is None else "1/s" for op in workload.ops}
    return {"attempted": attempted, "errors": errors, "samples": samples, "units": units,
            "op_seconds": op_seconds, "op_scaled": op_scaled, "peak_rss_mb": peak_rss_mb,
            "calibration": calibration}


def _trace(workload, reference, seed, spans_path):
    before = _run_pass(workload, reference, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_pass(workload, reference, seed, tracer)
    finally:
        tracer.uninstall()
    after = _run_pass(workload, reference, seed)
    tracer.write(spans_path)
    untraced = before + after
    untraced_wall = sum(r[1] for r in untraced) / 2.0
    traced_wall = sum(r[1] for r in traced)
    metrics = {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
               for name, value in tracer.layer_metrics().items()}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    errors = [r[3] for r in untraced + traced if r[3] is not None]
    return {"attempted": len(untraced) + len(traced), "errors": errors,
            "per_layer": metrics, "attribution": tracer.attribution(),
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv):
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    if mode not in ("measure", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    workload, reference, errors, setup_s = _setup(name, seed)
    speed = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    out = {"setup_s": setup_s, "setup_scaled_s": setup_s * math.sqrt(CAL_REF_S / speed),
           "inputs": workload.inputs}
    if mode == "measure":
        out.update(_measure(workload, reference, seed, seconds))
    elif mode == "trace":
        spans_path = HERE / "out" / f"spans-{name}-seed{seed}.csv.gz"
        out.update(_trace(workload, reference, seed, spans_path))
    out["errors"] = errors + out.get("errors", [])
    # a failed warm-up check counts as one more failed op
    out["attempted"] = out.get("attempted", 0) + 1
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
