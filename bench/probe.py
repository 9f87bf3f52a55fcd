"""Set a workload up in a fresh interpreter and say ``ready``; the
benchmark times this from process start to that line.

    python3 bench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

if __name__ == "__main__":
    if sys.argv[1] == "cells":
        # One operad-forge process ready to take its arguments.
        import operad_forge.cli  # noqa: F401
    else:
        import workloads

        workloads.setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
