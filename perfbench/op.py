"""Run one behavrules CLI command in this process and report its cost.

Usage: python3 op.py SRC WORKDIR TRACE ARGV_JSON

Imports behavrules from SRC, changes into WORKDIR and times
behavrules.cli.main(ARGV) from its start until its output is complete.
The command's stdout and stderr are captured and written to stdout.txt and
stderr.txt in WORKDIR. A speed.Sampler samples the core's speed while
the command runs, and norm_wall_s and norm_cpu_s are its wall and CPU times
normalised by those samples (see speed.py). With TRACE=1 every layer
boundary records spans (see spans.py), written to trace.csv. The last line
printed is a JSON object with rc, error, wall_s, cpu_s, norm_wall_s,
norm_cpu_s, slowdown, peak_rss_mb and, when traced, layers.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def main(argv) -> int:
    src, workdir, trace, command = argv[0], argv[1], argv[2] == "1", json.loads(argv[3])
    sys.path.insert(0, src)
    from behavrules import cli
    from speed import Sampler

    os.chdir(workdir)
    tracer = None
    entry = cli.main
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    out, err = io.StringIO(), io.StringIO()
    error = None
    sampler = Sampler()
    with redirect_stdout(out), redirect_stderr(err):
        sampler.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = entry(command)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # reported as a failed operation, not a crash
            rc = None
            error = traceback.format_exc()
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        busy_s = sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open("stdout.txt", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    with open("stderr.txt", "w", encoding="utf-8") as fh:
        fh.write(err.getvalue())
    result = {
        "rc": rc, "error": error, "wall_s": wall_s, "cpu_s": cpu_s,
        "norm_wall_s": sampler.normalise(wall_s, busy_s),
        "norm_cpu_s": sampler.normalise(cpu_s, busy_s),
        "slowdown": sampler.slowdown(), "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write("trace.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
