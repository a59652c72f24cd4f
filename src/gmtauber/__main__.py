"""The `gmt` command: `python -m gmtauber ...` and the `gmt` console script.

`gmt` evaluates its means and diagnostics with elementwise numpy and
never calls BLAS, yet numpy's OpenBLAS starts a thread pool when it
loads, whose idle thread spins for about 0.1 s of CPU in every run. So
`run` holds OpenBLAS to one thread before numpy is first imported,
unless the caller has set OPENBLAS_NUM_THREADS.

A `gmt` run leaves only about 600 unreachable objects, however long
its sequence (a test holds it under 1,000 and flat in N), yet Python's
cycle collector would run 35 times while numpy and gmtauber import, and
make several full passes over some 22k tracked objects at exit.
So `run` turns the collector off before anything loads, and freezes
every object it tracks after the last flush of stdout, so that exit
skips those walks too. A frozen cycle is never collected, so its
finalizers never run; none has work to do, since `main` closes every
file it opens and `run` flushes stdout itself.

Importing `gmtauber` or `gmtauber.cli` as a library, or calling
`cli.main`, changes neither the environment nor the collector.
"""

import gc
import os
import sys


def run() -> int:
    gc.disable()
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
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
