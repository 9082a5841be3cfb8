"""Regenerate reference.json, the stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload's warm-up and ops once at workloads.REFERENCE_SEED and
stores their summaries.  Monte Carlo ops store none: their bytes may change
with the stream layout, so they are checked statistically instead.  Run it
only on a commit whose numbers are trusted; a reference regenerated from a
broken commit would hide the breakage.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    reference = {"seed": workloads.REFERENCE_SEED, "warmup": {}, "ops": {}}
    for name in workloads.NAMES:
        workload = workloads.build(name, workloads.REFERENCE_SEED)
        reference["warmup"][name] = workload.warmup()
        reference["ops"][name] = {}
        for op in workload.ops:
            summary = op.summarize(op.run())
            if summary is not None:
                reference["ops"][name][op.name] = summary
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
