"""Record the expected outputs that the benchmark checks against.

    python3 bench/record.py

Runs every catalog entry of ``normalize`` and ``laws`` and the four ``cells``
requests once, untimed, and writes their output digests to ``data/``.  It
refuses to record if any request fails or breaks its law or verdict, or if a
``cells`` response misses its pinned counts.  Run it only at a commit whose
outputs are known good; the digests then hold every later commit to
byte-identical outputs.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    wl.DATA.mkdir(exist_ok=True)
    for name, cls in wl.IN_PROCESS.items():
        w = cls()
        digests: list[bytes] = []
        wl.measure(w, 0, [], 0, gen.CATALOG_SIZE[name], record=digests)
        (wl.DATA / f"{name}.digests").write_bytes(b"".join(digests))
        print(f"{name}: {len(digests)} digests")
    tally, outputs = wl.Tally(), {}
    wl.run_cells_pass(list(wl.CELLS_REQUESTS), None, tally, outputs)
    if tally.wrong or tally.failed:
        print("\n".join(tally.wrong), file=sys.stderr)
        return 1
    (wl.DATA / "cells.json").write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"cells: {len(outputs)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
