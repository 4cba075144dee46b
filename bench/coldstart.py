"""Cold import of the package in a fresh interpreter.

    python3 bench/coldstart.py SRC

Imports ``rotinf`` and ``rotinf.cli`` from the ``SRC`` directory and prints
the seconds from this process's start to the end of the import.
``process_age`` is shared with ``run_bench.py``, which times its own cold
import the same way.
"""

import time

_T0 = time.perf_counter()

import os
import sys


def process_age():
    """Seconds since this process started (Linux), else 0."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


if __name__ == "__main__":
    start = _T0 - process_age()
    sys.path.insert(0, sys.argv[1])
    import rotinf
    import rotinf.cli  # noqa: F401
    print(repr(time.perf_counter() - start))
