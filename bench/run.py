"""spinctrl benchmark: one entry point for every workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  BLAS is pinned to one thread before numpy loads.
Each workload's inputs come from --seed alone.  Whole passes over them are
repeated while another one fits in --seconds (at least one always runs),
and every output is checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run spends half its
time untraced and half traced and reports per-layer metrics (per traced
pass) plus the tracing overhead.  Full results, the environment record and,
for traced runs, the spans are written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 31  # fresh-interpreter set-ups per run, after one warm-up;
# setup_s is their median
SETUP_BATCH = 8  # set-ups taken before each pass, the rest after the last
TAIL_SHARE = 0.1  # job_s_tail: median of the slowest tenth of the jobs

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
# metric name -> unit, for --trace 0 and --trace 1, in BENCHMARK.json order
UNITS = {
    trace: {m["name"]: m["unit"] for m in _SPEC[key]}
    for trace, key in ((False, "end_to_end"), (True, "per_layer"))
}

# setup_s: a fresh interpreter imports spinctrl and builds every problem of
# a pass; only that span is timed.
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from spinctrl.experiments import build_problem, config_from_dict
for document in json.loads(sys.argv[2]):
    build_problem(config_from_dict(document))
print(time.perf_counter() - start)
"""


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "spinctrl", "__init__.py")):
        sys.exit(f"bench: no spinctrl sources under {SRC}")
    sys.path.insert(0, SRC)
    import spinctrl

    if os.path.dirname(os.path.abspath(spinctrl.__file__)) != os.path.join(SRC, "spinctrl"):
        sys.exit(f"bench: imported spinctrl from {spinctrl.__file__}, not {SRC}")


_import_package()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from spinctrl.dynamics import constant_control  # noqa: E402
from spinctrl.experiments import build_problem, config_from_dict  # noqa: E402


# --------------------------------------------------------------------------
# environment


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_revision():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "git_revision": _git_revision(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# measurement


class SetupSampler:
    """Fresh-interpreter set-ups of one pass's problems, timed one by one.

    The first sample is a warm-up (it also leaves compiled bytecode
    behind) and is dropped.  Samples are taken in batches between the
    passes, spread over the phases of the machine like the passes are.
    """

    def __init__(self, documents):
        self.documents = json.dumps(documents)
        self.samples = []
        self.take(1)

    def take(self, count):
        for _ in range(count):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, SRC, self.documents],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
            )
            self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def batch(self):
        self.take(min(SETUP_BATCH, SETUP_SAMPLES + 1 - len(self.samples)))

    def median(self):
        self.take(SETUP_SAMPLES + 1 - len(self.samples))
        return statistics.median(self.samples[1:])


def warm_up(documents):
    """Build each problem once and evaluate one control, untimed."""
    for document in documents:
        problem = build_problem(config_from_dict(document))
    prism = problem.prism
    middle = constant_control(0.5 * (prism.lower + prism.upper), problem.grid, prism)
    fields, forward, _ = problem.evaluate(middle)
    problem.gradient(fields, forward)


def measure(workload, units, budget, out_dir, expected, tracer=None, setup=None):
    """Repeat whole passes while another one fits in `budget` seconds.

    With a SetupSampler, a batch of set-ups runs before each pass; their
    time does not count against the budget."""
    passes = []
    begin = time.perf_counter()
    while True:
        if setup is not None:
            paused = time.perf_counter()
            setup.batch()
            begin += time.perf_counter() - paused
        gc.collect()  # each pass starts from the same heap, so peak RSS repeats
        capture = tracing.Capture(workload.job_boundary)
        with capture.installed(), (tracer.installed() if tracer else nullcontext()):
            start = time.perf_counter()
            outcomes = workloads.run_pass(workload, units, out_dir, capture)
            seconds = time.perf_counter() - start
        result = workloads.check_pass(workload, units, outcomes, expected)
        passes.append({
            "seconds": seconds,
            "jobs": capture.job_seconds,
            "iterations": sum(r.iterations for _, _, r in capture.optimizer_runs),
            "result": result,
        })
        typical = statistics.median(p["seconds"] for p in passes)
        if time.perf_counter() - begin + typical > budget:
            return passes


def tail(jobs):
    """Median time of the slowest TAIL_SHARE of the jobs (at least one),
    and how many jobs that is."""
    count = max(1, math.ceil(TAIL_SHARE * len(jobs)))
    return statistics.median(sorted(jobs)[-count:]), count


def interquartile_mean(jobs):
    """Mean of the middle half of the job times.

    A pass of multistart_p1 holds two populations, 54 gamma = 1 runs and 54
    slower gamma = 10 runs, so its median job falls in the gap between
    them, where the next job over is often 10-15% slower or faster.  The
    mean of the middle half moves smoothly as jobs cross that gap.
    """
    ordered = sorted(jobs)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summarize(passes):
    """Timing metrics, each taken per pass and then the median over passes.

    Every pass runs the same jobs in the same order.  On the shared machine
    the benchmark was built on, the speed of identical work varies by up to
    2x in phases of seconds to minutes, so every repeat of a job can fall in
    a slow phase.  Over the same eight runs per workload, per-pass medians
    spread about as much or less from run to run than each job's fastest
    time over the passes did, and half as much for the tail: the slowest
    of the per-job fastest times belong to the jobs whose every repeat was
    slowed, so that order statistic picks out the noise (README.md).
    """
    jobs = len(passes[0]["jobs"])
    pass_s = statistics.median(p["seconds"] for p in passes)
    tail_count = tail(passes[0]["jobs"])[1]
    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    return {
        "metrics": {
            "pass_s": pass_s,
            "jobs_per_s": jobs / pass_s,
            "job_s_iqm": statistics.median(interquartile_mean(p["jobs"]) for p in passes),
            "job_s_tail": statistics.median(tail(p["jobs"])[0] for p in passes),
        },
        "tail": {"slowest": tail_count, "jobs_per_pass": jobs},
        "pass_seconds": [p["seconds"] for p in passes],
        "passes": len(passes),
        "iterations_per_pass": sorted({p["iterations"] for p in passes}),
        "attempted": attempted,
        "failed": failed,
        "digests": sorted({p["result"].digest for p in passes}),
        "errors": [e for p in passes for e in p["result"].errors][:10],
    }


def problem_sizes(documents):
    sizes = set()
    for document in documents:
        p = document["p"]
        sizes.add((2 ** (p + 2), 3 * 2 ** p, document["steps"]))
    return [tracing.computed_costs(*size) for size in sorted(sizes)]


def run_workload(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    units = workload.make_inputs(seed)
    documents = [workload.document(unit) for unit in units]
    expected = workloads.expected_outcomes(name, workload, units)
    out_dir = os.path.join(OUT, f"cli-{os.getpid()}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_digest": workloads.input_digest(units),
        "environment": environment(),
        "computed": problem_sizes(documents),
    }
    try:
        warm_up(documents)
        if trace:
            untraced = summarize(measure(workload, units, seconds / 2, out_dir, expected))
            tracer = tracing.Tracer(workload.job_boundary)
            traced_passes = measure(workload, units, seconds / 2, out_dir, expected, tracer)
            traced = summarize(traced_passes)
            metrics = tracing.layer_metrics(tracer, len(traced_passes))
            metrics["trace.overhead_s"] = (
                traced["metrics"]["pass_s"] - untraced["metrics"]["pass_s"]
            )
            summary = {
                key: untraced[key] + traced[key] for key in ("attempted", "failed")
            }
            summary["digests"] = sorted(set(untraced["digests"]) | set(traced["digests"]))
            summary["errors"] = untraced["errors"] + traced["errors"]
            record["untraced"] = untraced
            record["traced"] = traced
            spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
            with open(spans_path, "w") as fh:
                json.dump(tracer.span_records(), fh)
            record["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            setup = SetupSampler(documents)
            summary = summarize(measure(workload, units, seconds, out_dir, expected, setup=setup))
            metrics = dict(summary["metrics"])
            metrics["setup_s"] = setup.median()
            record["setup_samples"] = setup.samples[1:]  # after the warm-up
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            record["tail"] = summary["tail"]
            record["passes"] = summary["passes"]
            record["pass_seconds"] = summary["pass_seconds"]
            record["iterations_per_pass"] = summary["iterations_per_pass"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted, failed = summary["attempted"], summary["failed"]
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted if attempted else 1.0,
        digests=summary["digests"],
        errors=summary["errors"],
        # one pass repeats the same inputs, so every pass must agree; and
        # every output was compared with its recorded seed-0 outcome
        correct=attempted > 0 and failed == 0 and len(summary["digests"]) == 1
        and expected is not None,
        metrics=metrics,
    )
    return record


def report(record):
    name, trace = record["workload"], record["trace"]
    for metric, value in record["metrics"].items():
        print(f"{name}: {metric} = {value} {UNITS[trace][metric]}")
    print(f"{name}: failed_frac = {record['failed_frac']} "
          f"({record['failed']} of {record['attempted']} jobs)")
    if not trace:
        tail_info = record["tail"]
        print(f"{name}: job_s_tail is the median over {record['passes']} passes of each "
              f"pass's median of its slowest {tail_info['slowest']} of "
              f"{tail_info['jobs_per_pass']} jobs (passes of {record['iterations_per_pass']} "
              f"iterations)")
    print(f"{name}: digest {' '.join(record['digests'])}")
    for error in record["errors"]:
        print(f"{name}: check failed: {error}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{name}-seed{record['seed']}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        records.append(record)
    env = records[0]["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    if env["blas_threads_exceed_nproc"]:
        print("WARNING: BLAS threads exceed nproc", file=sys.stderr)
    units = UNITS[bool(args.trace)]
    prefix = len(records) > 1  # `all`: metric names prefixed by workload
    metrics = {
        (f"{r['workload']}." if prefix else "") + metric: {
            "value": r["metrics"][metric], "unit": unit
        }
        for r in records
        for metric, unit in units.items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
