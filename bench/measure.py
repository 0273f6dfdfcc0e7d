"""One workload in one process: set up, run timed rounds, check, report.

Started by ``run.py``, which passes the monotonic clock reading taken just
before it launched this process. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import varma_causal as vc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ANSWERS = 100
MIN_ROUNDS = 3


class Runner:
    """Times every step of every round; a domain error fails an answer.

    A step is an answer, or work inside a round that is not an answer, such
    as sampling a spec; each has a key that is the same in every round. Every
    round repeats the same steps on the same inputs, so each step's time is
    kept from every round, and a step's cost is its median over the rounds.
    A burst of load from elsewhere on the machine slows the steps that run
    during it; the median leaves those repeats out.
    """

    def __init__(self, tracer=None):
        self.times = {}  # step key -> elapsed ns of each round
        self.answer_keys = set()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failed_keys = set()
        self.tracer = tracer

    def answer(self, key, fn, *args, **kwargs):
        return self._timed(key, True, fn, args, kwargs)

    def step(self, key, fn, *args, **kwargs):
        return self._timed(key, False, fn, args, kwargs)

    def _timed(self, key, is_answer, fn, args, kwargs):
        if is_answer:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.answer = self.attempted - 1
        failed = False
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except vc.VarmaCausalError as exc:
            if not is_answer:
                raise
            out, failed = exc, True
            self.failed += 1
            self.failed_keys.add(key)
        elapsed = time.perf_counter_ns() - start
        if self.tracer is not None:
            self.tracer.answer = None
        self.times.setdefault(key, []).append(elapsed)
        if is_answer:
            self.answer_keys.add(key)
        return out

    def wall_s(self):
        """One round's duration with every step at its median repeat."""
        return sum(statistics.median(t) for t in self.times.values()) / 1e9

    def answer_times_ns(self):
        """Median repeat of each answer, ascending; failed answers are inf."""
        return sorted(math.inf if key in self.failed_keys
                      else statistics.median(self.times[key]) for key in self.answer_keys)


def run_rounds(workload, inputs, runner, seconds, min_answers, state):
    """Whole rounds until ``seconds`` have passed, with at least MIN_ROUNDS
    rounds and ``min_answers`` answers.

    Round r visits the inputs in an order shuffled by r, so the repeats of one
    step fall at unrelated times. ``state`` keeps the first round's outputs
    and digest; a later round whose digest differs is recorded as a problem.
    Returns each round's wall time.
    """
    walls = []
    start = time.perf_counter()
    while True:
        order = list(range(len(inputs)))
        random.Random(len(walls)).shuffle(order)
        t0 = time.perf_counter()
        outputs = workload.run_round(inputs, runner, order)
        walls.append(time.perf_counter() - t0)
        runner.rounds += 1
        try:
            digest = workload.digest(outputs)
        except Exception as exc:  # reported as a problem by the checks below
            digest = repr(exc)
        if "digest" not in state:
            state.update(outputs=outputs, digest=digest)
        elif digest != state["digest"]:
            state["problems"].append(f"round {len(walls)} differs from the first round")
        del outputs
        if (time.perf_counter() - start >= seconds and len(walls) >= MIN_ROUNDS
                and runner.attempted >= min_answers):
            return walls


def unexpected_failures(workload, inputs, runners):
    """Failed answers other than the workload's kept failures.

    A kept failure may also succeed; its answer is then checked like any
    other. Rounds repeat, so a kept failure fails in every round or in none.
    """
    kept = set(getattr(workload, "expected_failures", lambda _: ())(inputs))
    failed = set().union(*(r.failed_keys for r in runners)) - kept
    return [f"answer {key} failed" for key in sorted(failed)]


def nearest_rank(sorted_values, share):
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "varma_causal_threads": os.environ.get("VARMA_CAUSAL_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    state = {"problems": []}
    result = {"setup_s": setup_s, "machine": machine_info()}
    runner = Runner()
    if args.trace:
        from tracer import Tracer, layer_metrics

        run_rounds(workload, inputs, runner, args.seconds / 2, 0, state)
        traced = Runner(Tracer())
        traced.tracer.install()
        try:
            run_rounds(workload, inputs, traced, args.seconds / 2, 0, state)
        finally:
            traced.tracer.uninstall()
        metrics = layer_metrics(traced.tracer.spans, traced.rounds, traced.attempted)
        metrics["trace.overhead_s"] = (traced.wall_s() - runner.wall_s(), "s")
        result["per_layer"] = metrics
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "machine": result["machine"],
                           "fields": ["id", "name", "parent", "answer", "start_ns",
                                      "end_ns", "attrs"],
                           "spans": traced.tracer.spans}, fh)
                fh.write("\n")
        runners = (runner, traced)
    else:
        walls = run_rounds(workload, inputs, runner, args.seconds, MIN_ANSWERS, state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = runner.answer_times_ns()
        result["end_to_end"] = {
            "wall_s": (runner.wall_s(), "s"),
            "answer_p50_ms": (nearest_rank(times, 0.5) / 1e6, "ms"),
            "answer_p90_ms": (nearest_rank(times, 0.9) / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["round_wall_s"] = walls
        runners = (runner,)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    problems = state["problems"]
    problems += unexpected_failures(workload, inputs, runners)
    try:
        problems += workload.check(inputs, state["outputs"])
    except Exception as exc:  # a malformed answer must fail the run, not crash it
        problems.append(f"check raised {exc!r}")
    result.update(correct=not problems, attempted=attempted, failed=failed,
                  problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
