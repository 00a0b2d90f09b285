"""Benchmark command for the ReSim reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-exact --seed 1 \\
        --seconds 10 --trace 0

It imports ReSim from the checkout's ``src/`` (no installation, no
build step) and exits with status 2 when the sources are not there.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no ReSim sources under {SRC}; run this from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Queue workers are separate interpreters; they import the same
    # sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    from resim_bench.cli import main as run

    # A terminated run still stops its worker process and server thread
    # and removes its scratch directory (the cleanup runs in finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(sys.argv[1:], root=ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
