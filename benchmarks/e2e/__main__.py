"""``python -m benchmarks.e2e run|compare`` (from the repository root)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
