"""Benchmark of the accelatoms simulator, end to end and per layer.

    python3 perfbench/run.py --workload fig2_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (it imports the program from src/).
The seed draws the workload's physical parameters (see workloads.py); the
program receives only the generated configuration text. Each scenario
execution runs in a fresh child interpreter (child.py), one after another,
until --seconds have passed; every round is the same execution. After the
timed loop the outputs are checked (checks.py) and one JSON line is printed:
with --trace 0 the end-to-end metrics (medians over the executions), with
--trace 1 the per-layer metrics of traced executions, which alternate with
untraced ones so the tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import_s": "s", "config.parse_s": "s", "config.validate_s": "s",
    "rates.assemble_s": "s", "rates.calls": "count",
    "liouvillian.build_s": "s", "liouvillian.rhs_hermitian_calls": "count",
    "liouvillian.rhs_hermitian_s": "s", "liouvillian.rhs_calls": "count",
    "liouvillian.rhs_s": "s", "liouvillian.spectral_s": "s",
    "dynamics.evolve_s": "s", "dynamics.step_self_s": "s", "dynamics.records": "count",
    "dynamics.observables_s": "s", "dynamics.observables_us_per_record": "us",
    "runner.write_s": "s", "runner.rows_written": "count", "runner.bytes_written": "bytes",
    "bec.modes_s": "s", "bec.width_s": "s", "bec.bound_state_s": "s",
    "bec.bound_state_calls": "count", "bec.coupling_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the workloads are serial; one BLAS thread keeps 2 shared cores from oversubscribing
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def execute(cfg: Path, out: Path, trace: Path | None, timeout: float,
            setup_only: bool = False) -> dict | None:
    """Run child.py once; its JSON result, or None if the execution failed."""
    flags = ["--setup-only"] if setup_only else []
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg), str(out),
           repr(time.monotonic()), str(trace) if trace else "-"] + flags
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"execution {out.name}: no result within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"execution {out.name}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "accelatoms" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'accelatoms'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    work = HERE / "_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    params = workloads.params(args.workload, args.seed)
    cfg = work / "scenario.cfg"
    cfg.write_text(workloads.config_text(args.workload, params))

    def remaining() -> float:
        return max(5.0, CHILD_TIMEOUT_S - (time.monotonic() - t_start))

    # warm-up: compiles bytecode and fills the file cache before set-up is timed
    if execute(cfg, work / "warmup", None, remaining(), setup_only=True) is None:
        print("warm-up execution failed", file=sys.stderr)
        return 1

    rounds = []  # per round: the untraced result, then the traced one; None if it failed
    attempted = 0
    deadline = time.monotonic() + args.seconds
    while True:
        results = []
        for use_trace in ((False, True) if args.trace else (False,)):
            name = f"exec_{attempted:03d}"
            trace_path = work / f"{name}.trace.jsonl" if use_trace else None
            res = execute(cfg, work / name, trace_path, remaining())
            attempted += 1
            if res is not None:
                res["out"] = work / name
            results.append(res)
        rounds.append(results)
        if time.monotonic() >= deadline:
            break
    plain = [r[0] for r in rounds if r[0]]
    traced = [r[1] for r in rounds if args.trace and r[1]]
    pairs = [r for r in rounds if args.trace and r[0] and r[1]]
    failed = sum(res is None for r in rounds for res in r)
    if not plain or (args.trace and not pairs):
        print("no execution succeeded", file=sys.stderr)
        return 1

    problems = checks.check_outputs(args.workload, params, plain[0]["out"])
    problems += checks.check_identical([r["digests"] for r in plain + traced])
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        # paired within a round, so a drift in host speed between rounds cancels
        values["trace.overhead_s"] = statistics.median(
            traced_res["solve_s"] - plain_res["solve_s"] for plain_res, traced_res in pairs)
        units = PER_LAYER_UNITS
        (work / "layers.json").write_text(json.dumps(values, indent=1) + "\n")
    else:
        values = {name: statistics.median(r[name] for r in plain) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced executions in {time.monotonic() - t_start:.1f} s; untraced solve_s "
          + " ".join(f"{r['solve_s']:.3f}" for r in plain), file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
