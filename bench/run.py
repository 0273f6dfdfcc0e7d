"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload gmp_separation --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. The workload runs in a single child process with one BLAS
thread. With ``--trace 0`` the last line carries the end-to-end metrics;
``setup_s`` is the median over the measuring process and four processes that
only set up. With ``--trace 1`` it carries the per-layer metrics of a traced
phase, and the spans are written to ``bench/out/``. The exit code is 0 only
when every checked answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VARMA_CAUSAL_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child(args, *extra, timeout):
    """Run measure.py once and return its last stdout line, parsed."""
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = {**os.environ, **THREAD_ENV}
    launched = time.monotonic_ns()
    proc = subprocess.run([*cmd, "--launched-ns", str(launched)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload}: measuring process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "varma_causal" / "__init__.py").is_file():
        raise SystemExit(f"no varma_causal sources under {ROOT / 'src'}")

    if args.trace:
        out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        res = child(args, "--out", str(out), timeout=CHILD_TIMEOUT_S)
        metrics = res["per_layer"]
    else:
        setups = [child(args, "--setup-only", timeout=60)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = child(args, timeout=CHILD_TIMEOUT_S)
        metrics = {"setup_s": (statistics.median([*setups, res["setup_s"]]), "s"),
                   **res["end_to_end"]}

    info = res["machine"]
    print(f"# {args.workload} seed {args.seed}: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    if "round_wall_s" in res:
        print(f"# round wall times (s): {res['round_wall_s']}")
    for problem in res["problems"]:
        print(f"# WRONG: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
