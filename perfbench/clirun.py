"""Runs one fielddesign command as `python -m fielddesign.cli` would, and
writes the machine speed it ran at, with its layer figures when traced.

    python3 perfbench/clirun.py STATS.json TRACE <fielddesign arguments...>

The speed sampler starts before `fielddesign.cli` is imported, so the
probes cover the import and the command (see speed.py).  With TRACE 1 the
tracer is installed after the import, and the time of `cli.main` is the
figure `cli.main_s`.  The process exits with the code of `cli.main`.

While the sampler runs, the command writes into memory, and its output goes
to the real stdout and stderr only after the sampler has stopped.  Under
CPython 3.11, a signal that interrupts a blocking write to a full pipe can
lose the rest of that write: with a timer signal every 2 ms, about a third
of 600 kB writes to a pipe arrived cut short, with exit code 0.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import Sampler


def main() -> int:
    stats, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    out, err = io.StringIO(), io.StringIO()
    sampler = Sampler()
    sampler.start()
    start = perf_counter()
    doc = {}
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli = importlib.import_module("fielddesign.cli")
            if trace:
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
            code = cli.main(argv)
            if trace:
                doc["trace"] = tracer.totals()
    finally:
        sampler.stop()
        sys.stdout.write(out.getvalue())
        sys.stderr.write(err.getvalue())
        doc["spent"] = sampler.spent
        doc["mean_probe"] = sampler.mean_probe(start, perf_counter())
        stats.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
