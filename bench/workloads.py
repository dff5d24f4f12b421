"""Seeded workloads of the spinctrl benchmark: inputs, passes and checks.

A workload turns a seed into one *pass*: a fixed, ordered list of units,
each one call a user makes (a 54-start uniqueness study, or one in-process
CLI invocation).  A *job* is one optimizer run or one CLI invocation, so a
study unit holds 54 jobs.  Seed 0 uses the anchor inputs themselves (for
multistart_p1 the paper's grid vertices and filter seed, for cli_mixed the
config's default start); every other seed moves each anchor by at most
JITTER_UT per component, inside its prism.  That changes every input and
every output digest but not the amount of work: the optimizers take the
same number of iterations as from the anchors (GPM within a few).  Wider
draws let the seed decide how many iterations a pass runs (a uniformly
drawn filter seed can turn the converging gamma = 1 study into a cycling
one, and GPM needs 20 to 200 iterations depending on its start), and the
spread between seeds would then measure the draw instead of the code.

Every output of a pass is checked afterwards, outside the timed region,
against generic rules and, on the default grid, against the seed-0
outcomes recorded in expected.json.  The outputs are also folded into a
digest of controls and costs, so that drift between passes shows.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace

import numpy as np

import spinctrl.cli as cli
import spinctrl.experiments as experiments
from spinctrl.experiments import (
    PRISM_CASE_1,
    PRISM_CASE_2,
    STUDY_VERTICES,
    ExperimentConfig,
)
from spinctrl.objective import pmp_residual
from spinctrl.optimize import STATUS_CONVERGED, STATUS_OSCILLATING

STUDY_RUNS = 54  # 27 grid starts around each of two vertices
JITTER_UT = 0.02
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
# Largest relative distance of a cost from its seed-0 value: ten times the
# largest seen over seeds 1-8 (4.5e-6, the gamma = 1 study, whose filter
# seed the jitter moves; the CLI costs moved by less than 1e-6).
REL_TOL = 5e-5


def _points(seed, anchors, prism):
    """The anchors at seed 0; otherwise each moved by up to JITTER_UT per
    component and clipped into the prism."""
    points = np.asarray(anchors, dtype=float)
    if seed != 0:
        rng = np.random.default_rng(seed)
        points = np.clip(points + rng.uniform(-JITTER_UT, JITTER_UT, points.shape), *prism)
    return [tuple(float(c) for c in point) for point in points]


# --------------------------------------------------------------------------
# checks shared by both workloads


def _cost_errors(costs):
    if all(math.isfinite(c) and 0.0 <= c <= 1.0 for c in costs):
        return []
    return [f"cost outside [0, 1] or not finite: {costs}"]


def optimizer_errors(problem, config, report):
    """Every generic check that applies to one optimizer outcome."""
    errors = _cost_errors([report.final_cost, *report.cost_history])
    prism = problem.prism
    values = report.final_control.values
    if config.method == "ipmp":
        if report.status == STATUS_CONVERGED:
            residual = pmp_residual(report.final_switching, report.final_control)
            if residual != 0.0:
                errors.append(f"converged IPMP with pmp_residual {residual}")
            on_bounds = (values == prism.lower) | (values == prism.upper)
            if not np.all(on_bounds):
                errors.append("converged IPMP control off the prism bounds")
    else:
        if not prism.contains(values):
            errors.append("GPM control leaves the prism")
        if report.final_cost < report.cost_history[0]:
            errors.append(
                f"GPM final cost {report.final_cost} below start {report.cost_history[0]}"
            )
    return errors


def _observed(report):
    """(status, cost, cycle period or None) of one optimizer run."""
    period = len(report.cycle_members) if report.status == STATUS_OSCILLATING else None
    return [report.status, float(report.final_cost), period]


def reference_errors(classification, runs, expected):
    """Differences between a unit's outcome and its recorded seed-0 outcome:
    classification, and per run its status, cycle period and cost (within
    REL_TOL)."""
    errors = []
    if classification != expected["classification"]:
        errors.append(f"classification {classification}, expected {expected['classification']}")
    if len(runs) != len(expected["runs"]):
        return errors + [f"{len(runs)} runs, expected {len(expected['runs'])}"]
    for index, (run, want) in enumerate(zip(runs, expected["runs"])):
        status, cost, period = run
        if [status, period] != [want[0], want[2]]:
            errors.append(f"run {index}: status {status} period {period}, expected "
                          f"{want[0]} period {want[2]}")
        if not abs(cost - want[1]) <= REL_TOL * abs(want[1]):
            errors.append(f"run {index}: cost {cost!r}, expected {want[1]!r} within {REL_TOL}")
    return errors


# --------------------------------------------------------------------------
# multistart_p1: the paper's uniqueness study


@dataclass(frozen=True)
class Study:
    config: ExperimentConfig
    vertices: tuple


def multistart_inputs(seed, steps=None):
    """The uniqueness study on prism case 2 from the paper's two grid
    vertices, with the paper's first filter seed, at gamma = 1 and then
    at gamma = 10."""
    vertex_a, vertex_b, v0 = _points(seed, (*STUDY_VERTICES, STUDY_VERTICES[0]), PRISM_CASE_2)
    base = ExperimentConfig(prism_lower=PRISM_CASE_2[0], prism_upper=PRISM_CASE_2[1], v0=v0)
    if steps is not None:
        base = replace(base, steps=steps)
    return [Study(replace(base, gamma=gamma), (vertex_a, vertex_b)) for gamma in (1.0, 10.0)]


def run_study(study, out_dir):
    return experiments.uniqueness_study(study.config, vertices=study.vertices)


def check_study(study, outcome):
    """(errors per job, classification, observed runs) of one study."""
    jobs = [optimizer_errors(*run) for run in outcome.runs] or [[]]
    if len(outcome.runs) != STUDY_RUNS:
        jobs[0].append(f"study captured {len(outcome.runs)} optimizer runs")
    runs = [_observed(report) for _, _, report in outcome.runs]
    return jobs, outcome.value.classification, runs


def study_document(study):
    return study.config.to_dict()


# --------------------------------------------------------------------------
# cli_mixed: in-process CLI calls


def cli_mixed_inputs(seed, steps=None):
    """In-process CLI calls, all from the config's default start (3, 3, 3):
    IPMP at p = 4 (dense objective contractions), IPMP at p = 2, GPM at
    p = 2 with and without the filter (91 and 60 evaluate + gradient
    pairs), and a state dump at p = 3 (8.9 MB of CSV).  Each call moves its
    own copy of the start."""
    p4, p2, gpm_filtered, gpm_nofilter, dump = _points(
        seed, [ExperimentConfig().u0_vector] * 5, PRISM_CASE_1
    )
    grid = () if steps is None else (f"steps={steps}",)

    def argv(command, p, u0, *overrides, flags=()):
        patches = (f"p={p}", f"u0.vector={json.dumps(list(u0))}", *overrides, *grid)
        return (command, *flags, *(a for o in patches for a in ("--override", o)))

    gpm = "optimizer=gpm"
    return [
        argv("optimize", 4, p4),
        argv("optimize", 2, p2),
        argv("optimize", 2, gpm_filtered, gpm),
        argv("optimize", 2, gpm_nofilter, gpm, "filter.enabled=false"),
        argv("simulate", 3, dump, flags=("--dump-states",)),
    ]


def run_cli(argv, out_dir):
    """(exit code, stdout) of one in-process CLI call."""
    text = io.StringIO()
    with redirect_stdout(text):
        code = cli.main([*argv, "--out", out_dir])
    return code, text.getvalue()


def _run_dir(stdout):
    for token in stdout.split():
        if token.startswith("run="):
            return token[len("run="):]
    raise ValueError(f"no run directory in CLI output: {stdout!r}")


def _cli_errors(argv, outcome):
    """Checks on one CLI call against its in-process result."""
    code, stdout = outcome.value
    if code != 0:
        return [f"exit code {code}"]
    captured = outcome.simulations or outcome.runs
    if len(captured) != 1:
        return [f"expected one in-process result, captured {len(captured)}"]
    run_dir = _run_dir(stdout)
    with open(os.path.join(run_dir, "report.json")) as fh:
        persisted = json.load(fh)
    errors = []
    if argv[0] == "simulate":
        config, cost = captured[0]
        if persisted["cost"] != float(cost):
            errors.append(f"persisted cost {persisted['cost']} != in-process {cost}")
        errors.extend(_cost_errors([float(cost)]))
        if "--dump-states" in argv:
            dim = 2 ** (config.p + 2)
            expected = (config.steps + 1) * dim * 3 * 2 ** config.p
            with open(os.path.join(run_dir, "states.csv"), "rb") as fh:
                rows = sum(1 for _ in fh) - 1  # header
            if rows != expected:
                errors.append(f"states.csv has {rows} rows, expected {expected}")
    else:
        problem, config, report = captured[0]
        if persisted["final_cost"] != float(report.final_cost):
            errors.append(
                f"persisted cost {persisted['final_cost']} != in-process {report.final_cost}"
            )
        errors.extend(optimizer_errors(problem, config, report))
    shutil.rmtree(run_dir)
    return errors


def check_cli(argv, outcome):
    """(errors of the one job, no classification, observed runs)."""
    runs = [["simulate", float(cost), None] for _, cost in outcome.simulations]
    runs += [_observed(report) for _, _, report in outcome.runs]
    return [_cli_errors(argv, outcome)], None, runs


def cli_document(argv):
    overrides = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--override"]
    return cli.load_config(None, overrides).to_dict()


# --------------------------------------------------------------------------
# passes


@dataclass(frozen=True)
class Workload:
    make_inputs: object  # (seed, steps=None) -> the units of one pass
    run: object  # (unit, out_dir) -> what the unit's call returned
    check: object  # (unit, Outcome) -> (errors per job, classification, runs)
    document: object  # unit -> config document of the problem it builds
    job_boundary: tuple  # (owner, attribute) whose calls are the jobs


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    "multistart_p1": Workload(
        multistart_inputs, run_study, check_study, study_document,
        (experiments, "run_optimizer"),
    ),
    "cli_mixed": Workload(cli_mixed_inputs, run_cli, check_cli, cli_document, (cli, "main")),
}


@dataclass(frozen=True)
class Outcome:
    """The traceback a unit raised (or None), what its call returned, and
    the optimizer runs and simulations captured while it ran."""

    error: str | None
    value: object
    runs: list
    simulations: list


def run_pass(workload, units, out_dir, capture):
    """Run every unit in order; returns one Outcome per unit.

    A unit that raises does not stop the pass; its job counts as failed.
    """
    outcomes = []
    for unit in units:
        runs, simulations = len(capture.optimizer_runs), len(capture.simulations)
        error = value = None
        try:
            value = workload.run(unit, out_dir)
        except Exception:  # a failing unit is recorded, the pass goes on
            error = traceback.format_exc()
        outcomes.append(
            Outcome(
                error,
                value,
                capture.optimizer_runs[runs:],
                capture.simulations[simulations:],
            )
        )
    return outcomes


def expected_outcomes(name, workload, units):
    """The recorded seed-0 outcomes of a workload's units, or None when the
    units are not on the grid they were recorded on."""
    with open(EXPECTED_PATH) as fh:
        recorded = json.load(fh)
    if any(workload.document(u)["steps"] != recorded["steps"] for u in units):
        return None
    return recorded["workloads"][name]


class PassResult:
    """Checks and digest of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outcomes = []  # per unit: {"classification", "runs"}
        self._digest = hashlib.sha256()

    def add(self, errors):
        """Count one job, failed if it has any errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def fold(self, status, cost, control=None):
        self._digest.update(f"{status}|{float(cost)!r}|".encode())
        if control is not None:
            self._digest.update(np.ascontiguousarray(control, dtype=float).tobytes())

    @property
    def digest(self):
        return self._digest.hexdigest()


def check_pass(workload, units, outcomes, expected=None):
    """Check every output of a pass, against `expected` (per unit) when
    given, and fold it into the digest."""
    result = PassResult()
    for index, (unit, outcome) in enumerate(zip(units, outcomes)):
        if outcome.error is not None:
            result.add([outcome.error])
            result.fold("error", float("nan"))
            result.outcomes.append(None)
            continue
        jobs, classification, runs = workload.check(unit, outcome)
        if expected is not None:
            jobs[0].extend(reference_errors(classification, runs, expected[index]))
        for errors in jobs:
            result.add(errors)
        for _, cost in outcome.simulations:
            result.fold("simulate", cost)
        for _, _, report in outcome.runs:
            result.fold(report.status, report.final_cost, report.final_control.values)
        result.outcomes.append({"classification": classification, "runs": runs})
    return result


def input_digest(units):
    return hashlib.sha256(repr(units).encode()).hexdigest()
