#!/usr/bin/env python3
"""dirlap benchmark: end-to-end and per-layer timings of two workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dense_spectra (the default) or cheeger_profile. Run from
anywhere inside a checkout that has src/dirlap; the program is imported
from that source tree. Every pass runs in a fresh Python process
(bench/worker.py) with the BLAS thread count set explicitly, the way a CLI
user starts one process per command.

--trace 0 times the workload: setup-only processes, then at least two whole
passes and more while another pass still fits in --seconds, and reports the median
wall_s, setup_s and peak_rss_mb. --trace 1 runs one plain pass and one pass
with every layer's public functions wrapped from outside the program, and
reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: the passes are then steady on a shared machine, and the
# figures are a single-threaded baseline.
BLAS_THREADS = 1
# setup_s is the median of this many set-up-only processes and the passes;
# a set-up process takes about a second, and the set-up's speed swings
# between consecutive processes on a shared machine
SETUP_SAMPLES = 15
# the output bytes of a run are compared across at least this many passes
MIN_PASSES = 2
# a run ends within this many seconds whatever --seconds says
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": min(BLAS_THREADS, nproc()),
        "nproc": nproc(),
    }


class Runner:
    """Starts the pass processes of one workload run, one at a time."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seeds = json.dumps(workloads.instance_seeds(workload, seed))
        self.started = started
        self.dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.count = 0

    def run(self, mode: str) -> tuple[dict, float]:
        """One pass process; returns its result and its wall-clock duration."""
        self.count += 1
        cwd = os.path.join(self.dir, f"pass-{self.count}")
        os.makedirs(cwd)
        result_path = os.path.join(cwd, "result.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, self.seeds,
                result_path, mode, str(min(BLAS_THREADS, nproc()))]
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} {mode} pass passed the {DEADLINE_S:.0f} s deadline") from exc
        duration = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} {mode} pass exited {proc.returncode}:\n{proc.stderr}")
        with open(result_path) as fh:
            result = json.load(fh)
        shutil.rmtree(cwd)
        return result, duration


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    runner = Runner(workload, seed, started)
    try:
        runner.run("setup")  # compiles bytecode and warms the file cache; not counted
        setups = [runner.run("setup")[0]["setup_s"] for _ in range(0 if trace else SETUP_SAMPLES)]
        passes = []
        longest = 0.0
        while True:
            result, duration = runner.run("plain")
            passes.append(result)
            longest = max(longest, duration)
            if trace or (len(passes) >= MIN_PASSES
                          and time.perf_counter() - started + longest > seconds):
                break
        traced = runner.run("traced")[0] if trace else None
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return summarize(passes, setups, traced)


def summarize(passes: list[dict], setups: list[float], traced: dict | None) -> dict:
    every = passes + ([traced] if traced else [])
    ops = [op for p in every for op in p["operations"]]
    problems = [f"{op['name']}: {op['detail']}" for op in ops if op["wrong"]]
    problems += sorted({msg for p in every for msg in p["selfcheck"]})
    if any(p["digests"] != every[0]["digests"] for p in every):
        problems.append("output bytes differ between passes")
    faults = sorted({f"{op['name']}: {op['known_fault']}" for op in ops if op["failed"] and op["known_fault"]})
    errors = sorted({f"{op['name']}: {op['detail']}" for op in ops if op["failed"] and not op["wrong"]
                     and not op["known_fault"]})
    wall = statistics.median(p["wall_s"] for p in passes)
    if traced:
        metrics = {name: (value, spans.unit(name)) for name, value in traced["trace"].items()}
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - wall, "s")
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "passes": [round(p["wall_s"], 4) for p in passes],
        "metrics": metrics,
        "problems": problems,
        "faults": faults,
        "errors": errors,
    }


def declared_metrics(trace: bool) -> set[str]:
    """Metric names BENCHMARK.json declares for a plain or a traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=workloads.NAMES[0], choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "dirlap", "__init__.py")):
        print(f"error: no dirlap source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    name = args.workload
    try:
        s = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"[{name}] seed={args.seed} pass wall_s={s['passes']} attempted={s['attempted']} "
          f"failed={s['failed']} correct={s['correct']}")
    for line in s["faults"]:
        print(f"[{name}] known fault, counted as failed: {line}")
    for line in s["errors"]:
        print(f"[{name}] operation raised: {line}")
    for line in s["problems"]:
        print(f"[{name}] WRONG: {line}")
    for metric, (value, unit) in s["metrics"].items():
        print(f"[{name}] {metric} = {value!r} {unit}")
    if set(s["metrics"]) != declared_metrics(bool(args.trace)):
        print("error: reported metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
