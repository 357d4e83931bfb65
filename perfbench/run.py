"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable table.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig2", "sampled", "faults")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps every proxy's default seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time the passes of one run should take at the "
                             "workload's nominal pass time; sets the pass "
                             "count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The program sees only the generated inputs: no environment knob
    # (scale, profiling, invariant checks, cache location) leaks in.
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds,
                      bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
