"""Fingerprint the stdout of every `urnlab ...` invocation in a Markdown file.

Each invocation found in a fenced code block (backslash continuations
joined) runs in-process through urnlab.cli.main against the src/ tree next
to this script, with OpenMP and BLAS at one thread.  One line is printed
per invocation:

    <sha256 of stdout> <exit code> <argv>

Run it in two checkouts and diff the outputs to check that a change keeps
every printed byte:

    python tools/readme_cli.py              # README.md at the repository root
    python tools/readme_cli.py other.md
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

# numpy reads these when urnlab imports it, below: a threaded dot product of
# more than 10,000 entries can round differently, so the thread count is fixed
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from urnlab import cli  # noqa: E402


def invocations(text: str) -> list[list[str]]:
    """argv (without the program name) of each `urnlab` line in a code block."""
    found, in_block = [], False
    for line in text.replace("\\\n", " ").splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            in_block = not in_block
        elif in_block and stripped.startswith("urnlab "):
            found.append(shlex.split(stripped)[1:])
    return found


def run(argv: list[str]) -> tuple[str, int]:
    """sha256 of stdout and the exit code of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --version
            code = exc.code if isinstance(exc.code, int) else 1
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code


def main() -> int:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "README.md"
    for argv in invocations(path.read_text(encoding="utf-8")):
        digest, code = run(argv)
        print(digest, code, shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
