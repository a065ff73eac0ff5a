"""Run one cold frame-lab request in a fresh interpreter for setup_s.

Usage: python3 probe.py SRC_DIR CLI_ARG...

Imports numpy and framelab from SRC_DIR, runs `framelab.cli.main` once and
prints `time.monotonic()` at its end, the exit code and the process's peak
RSS in KiB.  The parent reads the monotonic clock before it starts this
process, so the difference covers interpreter start, the imports and the
first, cold op.  The BLAS/OpenMP
thread pins come from the environment run.py sets and this process inherits.
"""

import resource
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import numpy  # noqa: F401  (timed on purpose)
    from framelab.cli import main

    code = main(sys.argv[2:])
    end = time.monotonic()
    print(f"{end!r} {code} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
