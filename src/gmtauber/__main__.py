"""The `gmt` command: `python -m gmtauber ...` and the `gmt` console script.

`gmt` evaluates its means and diagnostics with elementwise numpy and
never calls BLAS, yet numpy's OpenBLAS starts a thread pool when it
loads, whose idle thread spins for about 0.1 s of CPU in every run. So
`run` holds OpenBLAS to one thread before numpy is first imported,
unless the caller has set OPENBLAS_NUM_THREADS. Importing `gmtauber`
or `gmtauber.cli` as a library changes no environment variable.
"""

import os
import sys


def run() -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    try:
        code = main()
    except BrokenPipeError:  # stdout's reader left early, as in `gmt generate | head`
        code = 0
    try:  # main flushes each write to stdout, so bytes are left only where one failed
        sys.stdout.flush()
    except OSError:  # which main has reported: the exit flush must not retry them
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
