"""The measuring host's fingerprint, recorded next to every benchmark result.

The in-process benchmarks are the ``benchmarks/bench_*.py`` scripts run
under pytest-benchmark (its ``--benchmark-json`` document carries its own
``machine_info``); ``benchmarks/e2e`` stores :func:`machine_fingerprint`
in each report's ``meta.fingerprint``.
"""

from __future__ import annotations

import os
import platform
from typing import Any

__all__ = ["machine_fingerprint"]


def machine_fingerprint() -> dict[str, Any]:
    """Stable identity of the measuring host.

    Everything that plausibly moves a timing by an integer factor:
    interpreter version and implementation, OS, CPU architecture and
    count.  Deliberately no hostname — fingerprints should compare equal
    across identical CI runners.
    """
    return {
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }
