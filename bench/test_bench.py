"""Self-tests of the benchmark harness on a coarse grid.

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import sys
from contextlib import nullcontext

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spinctrl.experiments as experiments  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STEPS = 50  # coarse, but fine enough for RK4 to stay stable at p = 4
NAMES = sorted(workloads.WORKLOADS)


def recorded():
    with open(workloads.EXPECTED_PATH) as fh:
        return json.load(fh)["workloads"]


def one_pass(name, seed, out_dir, tracer=None):
    workload = workloads.WORKLOADS[name]
    units = workload.make_inputs(seed, steps=STEPS)
    capture = tracing.Capture(workload.job_boundary)
    with capture.installed(), (tracer.installed() if tracer else nullcontext()):
        outcomes = workloads.run_pass(workload, units, str(out_dir), capture)
    return units, capture, workloads.check_pass(workload, units, outcomes)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """One untraced pass per workload at seed 3, shared by the tests."""
    out = tmp_path_factory.mktemp("out")
    return {name: one_pass(name, 3, out) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs_and_digest(name, untraced, tmp_path):
    units, capture, first = untraced[name]
    again_units, _, again = one_pass(name, 3, tmp_path)
    assert first.failed == 0, first.errors
    assert len(capture.job_seconds) == first.attempted
    assert first.attempted == (
        len(units) * workloads.STUDY_RUNS if name == "multistart_p1" else len(units)
    )
    assert workloads.input_digest(units) == workloads.input_digest(again_units)
    assert first.digest == again.digest


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_different_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    digests = {workloads.input_digest(make(seed, steps=STEPS)) for seed in (0, 1, 2)}
    assert len(digests) == 3


def test_recorded_outcomes_are_the_papers():
    """gamma = 1: every start converges on one control; gamma = 10: every
    start falls into a period-2 cycle; every CLI optimization converges."""
    outcomes = recorded()
    unique, oscillating = outcomes["multistart_p1"]
    assert unique["classification"] == "Unique"
    assert [r[0] for r in unique["runs"]] == ["Converged"] * workloads.STUDY_RUNS
    assert oscillating["classification"] == "Oscillating"
    assert {(r[0], r[2]) for r in oscillating["runs"]} == {("Oscillating", 2)}
    assert len(oscillating["runs"]) == workloads.STUDY_RUNS
    statuses = [r[0] for unit in outcomes["cli_mixed"] for r in unit["runs"]]
    assert statuses == ["Converged"] * 4 + ["simulate"]


def test_reference_check_catches_changed_outcomes():
    expected = recorded()
    study = expected["multistart_p1"][0]
    runs = [list(r) for r in study["runs"]]
    assert workloads.reference_errors("Unique", runs, study) == []
    assert workloads.reference_errors("Multiple", runs, study)
    assert workloads.reference_errors("Unique", runs[:-1], study)
    for index, value in ((0, "MaxIters"), (1, runs[5][1] * (1 + 1e-4)), (2, 2)):
        changed = [list(r) for r in runs]
        changed[5][index] = value
        assert workloads.reference_errors("Unique", changed, study), (index, value)


def test_timings_are_medians_over_passes():
    import run

    passed = workloads.PassResult()
    passes = [
        {"seconds": seconds, "jobs": jobs, "iterations": 0, "result": passed}
        for seconds, jobs in ((4.5, [1.0, 3.0]), (4.0, [2.0, 2.0]), (9.0, [1.5, 7.0]))
    ]
    metrics = run.summarize(passes)["metrics"]
    assert metrics["pass_s"] == 4.5
    assert metrics["jobs_per_s"] == 2 / 4.5
    assert metrics["job_s_iqm"] == 2.0  # per-pass means 2.0, 2.0, 4.25
    assert metrics["job_s_tail"] == 3.0  # per-pass slowest 3.0, 2.0, 7.0
    assert run.tail([float(s) for s in range(1, 31)]) == (29.0, 3)
    assert run.interquartile_mean([1.0, 2.0, 100.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 4.5


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_matches_untraced(name, untraced, tmp_path):
    original = experiments.run_optimizer
    tracer = tracing.Tracer(workloads.WORKLOADS[name].job_boundary)
    _, _, traced = one_pass(name, 3, tmp_path, tracer)
    assert experiments.run_optimizer is original  # rebinding undone
    assert traced.digest == untraced[name][2].digest
    jobs = {span[4] for span in tracer.spans if span[0] == "job"}
    assert len(jobs) == traced.attempted
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["dynamics.integrate_forward_calls"] > 0
    assert metrics["dynamics.forward_step_us"] > 0
    assert metrics["objective.singlet_yield_gflops"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer((experiments, "run_optimizer"))
    clock = iter([0.0, 1.0, 3.0, 10.0])
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        outer()
    finally:
        tracing.time.perf_counter = real
    calls, self_s = tracer.totals()
    assert calls == {"outer": 1, "inner": 1}
    assert self_s == {"outer": 8.0, "inner": 2.0}


def test_gradient_integrand_flops_at_p4():
    flops, _ = tracing.gradient_integrand_cost(201, 64, 48)
    assert flops == 3 * 8 * 201 * 64 * 48 * 65  # about 0.96 GFLOP per call
