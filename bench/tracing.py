"""Job capture, span tracing and computed operation counts for the benchmark.

Both the job capture (always on) and the tracer (on with --trace 1) work by
rebinding public spinctrl functions in the module that calls them, for the
duration of a `with` block, and restoring them on exit.  `optimize` imports
`integrate_forward` by name, for example, so the traced name is
`spinctrl.optimize.integrate_forward`, not the one in `spinctrl.dynamics`.
Nothing under `src/` is edited.

Spans are kept in memory as [name, start, end, parent index, job id] and
written out by the caller once the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because everything runs on one thread.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

import spinctrl.cli as cli
import spinctrl.experiments as experiments
import spinctrl.objective as objective
import spinctrl.optimize as optimize

COMPLEX_BYTES = 16


def _patch(stack, owner, name, make):
    """Replace owner.name by make(original) until the stack closes."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


# --------------------------------------------------------------------------
# job capture (untraced and traced runs alike)


class Capture:
    """Job timer and result recorder for one pass.

    job_seconds holds the wall time of every call to the workload's job
    boundary.  optimizer_runs holds (problem, config, report) for every
    optimizer run, and simulations the (config, cost) of every in-process
    `simulate`, so that outputs can be checked after the pass.
    """

    def __init__(self, job_boundary):
        self.job_boundary = job_boundary
        self.job_seconds = []
        self.optimizer_runs = []
        self.simulations = []

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            _patch(stack, experiments, "run_optimizer", self._record_optimizer)
            _patch(stack, cli, "simulate", self._record_simulation)
            _patch(stack, *self.job_boundary, self._timed)
            yield self

    def _timed(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.job_seconds.append(time.perf_counter() - start)

        return timed

    def _record_optimizer(self, fn):
        def record(problem, u0, config):
            report = fn(problem, u0, config)
            self.optimizer_runs.append((problem, config, report))
            return report

        return record

    def _record_simulation(self, fn):
        def record(config):
            result = fn(config)
            self.simulations.append((result[0], result[4]))
            return result

        return record


# --------------------------------------------------------------------------
# computed operation counts
#
# Real floating-point operations and bytes, derived from array shapes, not
# measured.  Conventions: a complex multiply-add is 8 flops, a complex
# multiply 6, a complex add 2, a real-by-complex multiply 2.  Bytes count
# every complex array each numpy call reads or writes once (16 B/element),
# including the temporaries the code materializes (e.g. `.conj()`), and
# ignore cache reuse.  T = grid nodes, n = Hilbert dimension, L = ensemble.


def gradient_integrand_cost(t, n, l):
    """(flops, bytes) of one gradient_integrand call: for each of the 3
    Zeeman components, Z_i @ psi over all nodes, a conj temporary of the
    costates, and the per-node contraction."""
    ens = t * n * l
    flops = 3 * (8 * t * n * n * l + 8 * ens)
    elements = 3 * (n * n + 2 * ens + 2 * ens + 3 * ens)
    return flops, COMPLEX_BYTES * elements


def singlet_yield_cost(t, n, l):
    """(flops, bytes) of one singlet_yield call: P_S @ psi over all nodes,
    a conj temporary, the per-node contraction and the trapezoid dot."""
    ens = t * n * l
    flops = 8 * t * n * n * l + 8 * ens + 2 * t
    elements = n * n + 2 * ens + 2 * ens + 3 * ens
    return flops, COMPLEX_BYTES * elements


def rk4_step_cost(n, l, adjoint=False):
    """(flops, bytes) of one RK4 step of integrate_forward (or, with
    adjoint=True, integrate_adjoint).

    Per step: three generators v . Z + drift (a 3-term complex sum over an
    n x n block each), four generator-ensemble products, the stage
    combinations and the amplitude check.  The adjoint adds three P_S
    products for the singlet source, the node average and the source terms.
    """
    ens = n * l
    hamiltonians = 3 * (3 * 8 * n * n + 2 * n * n)
    products = 4 * (8 * n * n * l + 6 * ens)
    stages = 3 * 4 * ens + 12 * ens + 4 * ens
    flops = hamiltonians + products + stages
    elements = 3 * (3 * n * n + 2 * n * n) + 4 * (n * n + 2 * ens) + 3 * 3 * ens + 6 * 3 * ens
    if adjoint:
        flops += 3 * 8 * n * n * l + 4 * ens + 3 * 2 * ens + 4 * 2 * ens
        elements += 3 * (n * n + 2 * ens) + 3 * ens + 3 * 2 * ens + 4 * 3 * ens
    return flops, COMPLEX_BYTES * elements


def computed_costs(dim, count, steps):
    """The counts above for one problem size, labelled as computed."""
    nodes = steps + 1
    table = {
        "objective.gradient_integrand": gradient_integrand_cost(nodes, dim, count),
        "objective.singlet_yield": singlet_yield_cost(nodes, dim, count),
        "dynamics.forward_rk4_step": rk4_step_cost(dim, count),
        "dynamics.adjoint_rk4_step": rk4_step_cost(dim, count, adjoint=True),
    }
    return {
        "source": "computed from array shapes, not measured",
        "shape": {"nodes": nodes, "dim": dim, "count": count},
        "per_call": {
            name: {"flops": flops, "bytes": nbytes}
            for name, (flops, nbytes) in table.items()
        },
    }


# --------------------------------------------------------------------------
# tracing


def _steps(args):
    return args[1].steps  # the FieldTrajectory argument of both integrators


def _ensemble_shape(args):
    return args[0].states.shape  # (nodes, dim, count) of the forward ensemble


def _gradient_integrand_flops(args):
    return gradient_integrand_cost(*_ensemble_shape(args))[0]


def _singlet_yield_flops(args):
    return singlet_yield_cost(*_ensemble_shape(args))[0]


def _csv_bytes(args):
    return os.path.getsize(args[0])


def _iterations(result):
    return result.iterations


# (owner, attribute, span name, {counter: f(args)}, {counter: f(result)});
# both kinds of counter are read once the call has returned.
# A name called from two modules is rebound in both, under one span name.
TRACED = (
    (experiments, "build_model", "model.build_model", {}, {}),
    (experiments, "triplet_states", "model.triplet_states", {}, {}),
    (optimize, "filter_field", "dynamics.filter_field", {}, {}),
    (experiments, "filter_field", "dynamics.filter_field", {}, {}),
    (optimize, "integrate_forward", "dynamics.integrate_forward",
     {"dynamics.forward_steps": _steps}, {}),
    (experiments, "integrate_forward", "dynamics.integrate_forward",
     {"dynamics.forward_steps": _steps}, {}),
    (optimize, "integrate_adjoint", "dynamics.integrate_adjoint",
     {"dynamics.adjoint_steps": _steps}, {}),
    (optimize, "singlet_yield", "objective.singlet_yield",
     {"objective.singlet_yield_flops": _singlet_yield_flops}, {}),
    (experiments, "singlet_yield", "objective.singlet_yield",
     {"objective.singlet_yield_flops": _singlet_yield_flops}, {}),
    (optimize, "switching_function", "objective.switching_function", {}, {}),
    (objective, "gradient_integrand", "objective.gradient_integrand",
     {"objective.gradient_integrand_flops": _gradient_integrand_flops}, {}),
    (optimize.ControlProblem, "evaluate", "optimize.evaluate", {}, {}),
    (optimize.ControlProblem, "gradient", "optimize.gradient", {}, {}),
    (optimize, "synthesize_bang_bang", "optimize.synthesize", {}, {}),
    (optimize, "project_to_prism", "optimize.project", {}, {}),
    (optimize, "bb_step", "optimize.bb_step", {}, {}),
    (experiments, "gpm_optimize", "optimize.gpm_optimize", {},
     {"optimize.iterations": _iterations}),
    (experiments, "ipmp_optimize", "optimize.ipmp_optimize", {},
     {"optimize.iterations": _iterations}),
    (experiments, "compare_controls", "experiments.compare_controls", {}, {}),
    (experiments, "write_csv", "experiments.write_csv",
     {"experiments.bytes_written": _csv_bytes}, {}),
    (cli, "write_csv", "experiments.write_csv",
     {"experiments.bytes_written": _csv_bytes}, {}),
    (cli, "load_config", "cli.load_config", {}, {}),
)


class Tracer:
    """In-memory span recorder; spans opened inside a job carry its id."""

    def __init__(self, job_boundary):
        self.job_boundary = job_boundary
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._jobs = 0

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, name, span, on_call, on_result in TRACED:
                _patch(stack, owner, name,
                       lambda fn, s=span, c=on_call, r=on_result: self.wrap(s, fn, c, r))
            _patch(stack, *self.job_boundary, lambda fn: self.wrap("job", fn, job=True))
            yield self

    def wrap(self, span_name, fn, on_call=None, on_result=None, job=False):
        def traced(*args, **kwargs):
            if job:
                self._jobs += 1
                self._job = self._jobs
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [span_name, time.perf_counter(), None, parent, self._job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if job:
                    self._job = None
            for counter, measure in (on_call or {}).items():
                self.counts[counter] += measure(args)
            for counter, measure in (on_result or {}).items():
                self.counts[counter] += measure(result)
            return result

        return traced

    def totals(self):
        """Per span name: (call count, total self seconds)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
        return calls, self_s

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def _per_pass(value, passes):
    share = value / passes
    return int(share) if float(share).is_integer() else share


def layer_metrics(tracer, passes):
    """Per-layer metrics, each a per-pass figure over `passes` traced passes.

    `_s` is self time; a layer the workload never calls reports 0.
    """
    calls, self_s = tracer.totals()
    counts = tracer.counts

    def seconds(name):
        return self_s.get(name, 0.0) / passes

    def rate(numerator, name, scale):
        busy = self_s.get(name, 0.0)
        return numerator / busy * scale if busy > 0 else 0.0

    def step_us(name, steps):
        return self_s.get(name, 0.0) / steps * 1.0e6 if steps else 0.0

    evaluate_calls = calls["optimize.evaluate"]
    return {
        "model.build_model_s": seconds("model.build_model"),
        "model.triplet_states_s": seconds("model.triplet_states"),
        "dynamics.integrate_forward_s": seconds("dynamics.integrate_forward"),
        "dynamics.integrate_forward_calls": _per_pass(calls["dynamics.integrate_forward"], passes),
        "dynamics.integrate_adjoint_s": seconds("dynamics.integrate_adjoint"),
        "dynamics.integrate_adjoint_calls": _per_pass(calls["dynamics.integrate_adjoint"], passes),
        "dynamics.forward_step_us": step_us(
            "dynamics.integrate_forward", counts["dynamics.forward_steps"]
        ),
        "dynamics.adjoint_step_us": step_us(
            "dynamics.integrate_adjoint", counts["dynamics.adjoint_steps"]
        ),
        "dynamics.filter_field_s": seconds("dynamics.filter_field"),
        "objective.gradient_integrand_s": seconds("objective.gradient_integrand"),
        "objective.gradient_integrand_gflops": rate(
            counts["objective.gradient_integrand_flops"], "objective.gradient_integrand", 1.0e-9
        ),
        "objective.singlet_yield_s": seconds("objective.singlet_yield"),
        "objective.singlet_yield_gflops": rate(
            counts["objective.singlet_yield_flops"], "objective.singlet_yield", 1.0e-9
        ),
        "objective.switching_function_self_s": seconds("objective.switching_function"),
        "optimize.evaluate_calls": _per_pass(evaluate_calls, passes),
        "optimize.gradient_calls": _per_pass(calls["optimize.gradient"], passes),
        "optimize.iterations": _per_pass(counts["optimize.iterations"], passes),
        "optimize.iterations_per_evaluate": counts["optimize.iterations"] / evaluate_calls
        if evaluate_calls else 0.0,
        "optimize.synthesize_s": seconds("optimize.synthesize"),
        "optimize.project_s": seconds("optimize.project"),
        "optimize.bb_step_s": seconds("optimize.bb_step"),
        "experiments.compare_controls_s": seconds("experiments.compare_controls"),
        "experiments.compare_controls_calls": _per_pass(calls["experiments.compare_controls"], passes),
        "experiments.write_csv_s": seconds("experiments.write_csv"),
        "experiments.bytes_written": _per_pass(counts["experiments.bytes_written"], passes),
        "experiments.write_mb_per_s": rate(
            counts["experiments.bytes_written"], "experiments.write_csv", 1.0e-6
        ),
        "cli.load_config_s": seconds("cli.load_config"),
    }
