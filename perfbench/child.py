"""One scenario execution in a fresh interpreter.

Usage (started by run.py):
    python3 perfbench/child.py CONFIG OUT_DIR SPAWN_TIME TRACE_PATH|- [--setup-only]

Imports accelatoms, parses and validates CONFIG through the public entry
points, runs the scenario into OUT_DIR and prints one JSON line: set-up and
solve times, peak resident memory, and a sha256 digest of every output file.
With a TRACE_PATH the public functions are wrapped for span tracing, the
spans are written to TRACE_PATH and the per-layer metrics join the JSON.
SPAWN_TIME is the parent's time.monotonic() just before it started this
process; the system-wide monotonic clock makes it comparable here.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    config_path, out_dir, spawn_time, trace_path = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    tracer = spans.Tracer() if trace_path != "-" else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("setup"):
        with span("import"):
            from accelatoms import config, runner
        if tracer:
            tracer.install()
        cfg = config.parse_config(Path(config_path).read_text())
        diags = config.validate(cfg)
    setup_s = time.monotonic() - float(spawn_time)
    if diags:
        print("\n".join(diags), file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(result))
        return 0

    start = time.perf_counter()
    with span("solve"):
        paths = runner.run_scenario(cfg, out_dir)
    result["solve_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["digests"] = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                         for p in paths}
    if tracer:
        bytes_written = sum(os.path.getsize(p) for p in paths)
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.rows_written,
                                               bytes_written)
        tracer.write(Path(trace_path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
