"""One pass of one workload, in a fresh process.

Usage (from run.py): worker.py WORKLOAD SEEDS_JSON RESULT_PATH MODE THREADS
with MODE one of setup, plain, traced. The current directory is the pass's
scratch directory. The process sets its BLAS thread count before numpy is
imported, times the setup (import dirlap, generate the graphs, write them
as graph JSON files), and unless MODE is setup runs the workload's timed
calls, reads ru_maxrss, checks every output, makes sure every check rejects
its deliberately wrong output, and writes one JSON result.
"""

import time

START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

workload, seeds_json, result_path, mode, threads = sys.argv[1:6]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = threads

import workloads  # noqa: E402  (stdlib only at import)

state = workloads.setup(workload, json.loads(seeds_json))
setup_s = time.perf_counter() - START


def write(result: dict) -> None:
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if mode == "setup":
    write({"setup_s": setup_s})
    sys.exit(0)

import checks  # noqa: E402
import spans  # noqa: E402

tracer = None
if mode == "traced":
    tracer = spans.Tracer()
    tracer.install()
ops = workloads.operations(workload, state)

raw, errors = [], []
wall_s = 0.0
for op in ops:
    start = time.perf_counter()
    try:
        raw.append(op.call())
        errors.append(None)
    except Exception as exc:  # an operation that raises is a failed operation
        raw.append(None)
        errors.append(f"{type(exc).__name__}: {exc}")
    wall_s += time.perf_counter() - start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

results, selfcheck, library = [], [], {}
for op, value, error in zip(ops, raw, errors):
    problems = []
    if error is None:
        if not op.outputs:
            library[op.name] = repr(value)
        try:
            data = op.read(value)
        except Exception as exc:
            data, problems = None, [f"output unreadable: {type(exc).__name__}: {exc}"]
        for check in op.checks if data is not None else []:
            try:
                check.run(data)
            except Exception as exc:
                problems.append(f"{check.label}: {type(exc).__name__}: {exc}")
            # only a CheckError on the wrong output counts as rejecting it
            try:
                wrong = check.corrupt(data)
            except Exception as exc:
                selfcheck.append(f"{op.name}: '{check.label}' could not build its wrong output: "
                                 f"{type(exc).__name__}: {exc}")
                continue
            try:
                check.run(wrong)
                selfcheck.append(f"{op.name}: '{check.label}' accepted a wrong output")
            except checks.CheckError:
                pass
            except Exception as exc:
                selfcheck.append(f"{op.name}: '{check.label}' raised on its wrong output: "
                                 f"{type(exc).__name__}: {exc}")
    results.append({
        "name": op.name,
        "failed": error is not None or bool(problems),
        "wrong": bool(problems) and op.known_fault is None,
        "known_fault": op.known_fault,
        "detail": error or "; ".join(problems) or None,
    })

with open("library.json", "w") as fh:
    json.dump(library, fh, sort_keys=True)
digests = {}
for name in sorted({out for op in ops for out in op.outputs} | {"library.json"}):
    if os.path.exists(name):
        with open(name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()

write({
    "setup_s": setup_s,
    "wall_s": wall_s,
    "peak_rss_mb": peak_rss_mb,
    "operations": results,
    "selfcheck": selfcheck,
    "digests": digests,
    "trace": tracer.metrics() if tracer else None,
})
