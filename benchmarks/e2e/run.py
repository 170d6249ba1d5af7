"""The command ``BENCHMARK.json`` names:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``

measures one workload and prints one JSON line (see README.md, "Driver").
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # the script's own directory would let its modules shadow the standard
    # library's (trace, ...); import them as the package they are instead
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import driver_main

    sys.exit(driver_main())
