"""One timed set-up: a fresh interpreter imports kbeq and builds the inputs.

Usage: ``python3 setup_probe.py WORKLOAD SEED WORK_DIR``.  Prints the
``time.perf_counter()`` reading at which the inputs are ready; the parent
subtracts the reading it took just before starting this process.  On Linux
``perf_counter`` is the system-wide monotonic clock, so the two readings
compare across processes.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[name](seed, work_dir).setup()
    print(repr(perf_counter()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
