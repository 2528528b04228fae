"""Child process of the sweep benchmark.

    child.py sweep <clogsim sweep arguments>
        Runs ``clogsim.cli.main`` once and prints, as its last line, a JSON
        object with the exit code, the wall time of the call and the peak
        resident set sizes of this process and of its reaped children (the
        sweep's worker pool).

    child.py setup <clogsim sweep arguments>
        Imports ``clogsim.cli`` and runs the CLI up to the point where the
        parsed sweep spec is handed to ``montecarlo.execute_sweep``, then
        exits 0.  The parent times the whole process, which makes the
        benchmark's set-up time: a fresh interpreter, the imports and the
        configuration parsing.  Exits 3 if the sweep is never reached.

The parent puts ``src`` on ``PYTHONPATH`` and pins the BLAS thread pools.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SpecParsed(BaseException):
    """Raised in place of the sweep; not caught by the CLI's handlers."""


def sweep(argv: list[str]) -> int:
    from clogsim import cli

    t0 = time.perf_counter()
    rc = cli.main(argv)
    sweep_s = time.perf_counter() - t0
    print(json.dumps({
        "rc": rc,
        "sweep_s": sweep_s,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return 0


def setup(argv: list[str]) -> int:
    from clogsim import cli, montecarlo

    def parsed(spec, workers=None):
        raise _SpecParsed

    montecarlo.execute_sweep = parsed
    try:
        cli.main(argv)
    except _SpecParsed:
        return 0
    return 3


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"sweep": sweep, "setup": setup}[mode](args))
