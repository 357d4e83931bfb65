"""Set one workload up in a fresh interpreter and print when it is ready.

Run by the benchmark as ``setup_probe.py <workload> <seed>``; the last
line of output is ``time.perf_counter()`` at the moment every proxy is
built and every trace emulated.  On Linux that clock is shared between
processes, so the parent subtracts the moment it started this one.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload].setup(seed)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
