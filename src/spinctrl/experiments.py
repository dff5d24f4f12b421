"""Scripted studies on the radical-pair control problem, plus persistence.

Each study is a plain function over an ExperimentConfig: single optimization
runs, gamma sweeps against the no-filter baseline, yield-loss tables over
initial controls and proton counts on the built-in hyperfine tables, and the
54-start uniqueness study on the sign-changing prism.  Studies solve through
run_single or run_optimizer and propagate through ControlProblem.evaluate.
Results are written to a deterministic directory layout:

    <out>/<experiment-name>/<run-id>/
        config.json        resolved keys the command reads, defaults expanded
        report.json        status, iterations, final_cost (+ cycle period)
        cost_history.csv   iteration, cost
        control.csv        t, u_x, u_y, u_z        (uT, interval left nodes)
        field.csv          t, v_x, v_y, v_z        (uT, grid nodes)
        switching.csv      t, phi_x, phi_y, phi_z  (grid nodes)

for an optimize run; sweep-gamma writes sweep.csv, yield-loss yield_loss.csv
and summary.json, and grid-study a report.json summary plus runs.csv (index,
status, J: one row per start).  The run id hashes the name and config.json,
so identical configs land in identical directories with bit-identical files.
write_run is the one writer, and the CLI makes its one call; it moves each
finished file into place atomically.  The studies only compute and return.

Configs carry fields in uT (controls, prisms, filter state); hyperfine rows
are mT.  A filter v0 may be the string "matched": the value at t = 0 of the
optimal field of run_single on the no-filter twin, from the same start.
"""

import csv
import hashlib
import itertools
import json
import numbers
import os
import sys
import uuid
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase

import numpy as np

from .dynamics import (
    ControlSignal,
    FilterConfig,
    Prism,
    TimeGrid,
    constant_control,
    filter_field,  # noqa: F401  imported so that tracers can rebind it here
    integrate_forward,  # noqa: F401  likewise
)
from .model import GYRO_DEFAULT, build_model, default_hyperfine, triplet_states
from .objective import singlet_yield  # noqa: F401  likewise
from .optimize import (
    GPM_MAX_ITERS,
    IPMP_MAX_ITERS,
    STATUS_MAX_ITERS,
    STATUS_OSCILLATING,
    ControlProblem,
    OptimizerReport,
    control_norm,
    gpm_optimize,
    ipmp_optimize,
)
from .spin import MAX_PROTONS

# Reference parameter block: electromagnetic prisms (uT), gamma sample for
# sweeps, starting controls for the yield-loss table, and the two grid
# vertices of the uniqueness study.
PRISM_CASE_1 = ((3.0, 3.0, 3.0), (6.0, 6.0, 6.0))
PRISM_CASE_2 = ((3.0, 3.0, -1.0), (6.0, 6.0, 2.0))
GAMMA_SWEEP_DEFAULT = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0)
YIELD_LOSS_STARTS = ((3.0, 3.0, 3.0), (6.0, 6.0, 6.0), (6.0, 6.0, 3.0))
STUDY_VERTICES = ((6.0, 6.0, -1.0), (6.0, 6.0, 2.0))


class ConfigError(ValueError):
    """Rejected configuration; the message names the offending key."""


GRID_SPACING = 0.5  # uT, between neighbouring starts of the uniqueness study


def grid_points(vertex):
    """The 27 raw grid vectors vertex + GRID_SPACING * [1-i, 1-j, 1-k],
    unclipped, index order (i, j, k)."""
    offsets = GRID_SPACING * (1.0 - np.arange(3.0))
    ijk = np.indices((3, 3, 3)).reshape(3, -1).T  # rows (i, j, k), k fastest
    return np.asarray(vertex, dtype=float) + offsets[ijk]


def grid_initializers(vertex, grid: TimeGrid, prism: Prism):
    """27 constant-in-time controls on `grid`, clipped into `prism`.

    Clipping matters: the grid around a prism vertex pokes outside the box,
    and controls must start feasible.
    """
    return [
        constant_control(prism.clip(point), grid, prism)
        for point in grid_points(vertex)
    ]


@dataclass(frozen=True)
class ControlComparison:
    rel_ctrl: float
    rel_cost: float
    absolute: bool = False  # True when ||u1|| = 0 forced an absolute norm


def compare_controls(u1, u2, j1, j2, h=1.0):
    """Relative L2 discrepancy of two (steps, 3) controls, and of their costs.

    Both use u1/j1 as the reference.  A zero reference control makes the
    ratio undefined; the absolute difference norm is returned instead with
    the `absolute` flag raised.
    """
    diff = control_norm(u1 - u2, h)
    ref = control_norm(u1, h)
    if ref == 0.0:
        rel_ctrl, absolute = diff, True
    else:
        rel_ctrl, absolute = diff / ref, False
    rel_cost = abs(j1 - j2) / abs(j1) if j1 != 0 else abs(j2)
    return ControlComparison(rel_ctrl=rel_ctrl, rel_cost=rel_cost, absolute=absolute)


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved description of one experiment.

    Defaults reproduce the reference single-proton scenario: T = 0.5 us on
    200 intervals, the standard hyperfine table, prism [3,6]^3 uT, filter
    gamma = 1 with v0 = [3,3,3] uT, constant starting control [3,3,3] uT,
    IPMP optimizer.  SCHEMA maps each attribute to its document key.
    """

    p: int = 1
    t_final: float = 0.5
    steps: int = 200
    gyro: float = GYRO_DEFAULT
    k_singlet: float = 10.0
    k_triplet: float = 10.0
    hyperfine: tuple | None = None  # mT rows; None = built-in table for p
    prism_lower: tuple = PRISM_CASE_1[0]
    prism_upper: tuple = PRISM_CASE_1[1]
    filter_enabled: bool = True
    gamma: float = 1.0
    v0: tuple | str = (3.0, 3.0, 3.0)  # uT vector or "matched"
    u0_vector: tuple = (3.0, 3.0, 3.0)
    u0_values: tuple | None = None  # (steps, 3) rows; replaces u0_vector if set
    method: str = "ipmp"  # gpm | ipmp
    gpm_max_iters: int = GPM_MAX_ITERS
    gpm_step_scale: float = 1.0
    ipmp_max_iters: int = IPMP_MAX_ITERS
    gammas: tuple = GAMMA_SWEEP_DEFAULT
    p_max: int = 3

    def to_dict(self, command=None):
        """Nested plain-data form, the on-disk schema, of the keys `command`
        reads (every key unless a run command is named)."""
        document = {}
        for key, attr, _, _ in SCHEMA:
            value = getattr(self, attr)
            if key == "hyperfine" and value is None:
                value = default_hyperfine(self.p)
            if reads(command, key):
                set_key(document, key, _plain(value))
        return document


def set_key(document, key, value):
    """Set dotted `key` in a nested document, adding sections as needed; the
    document and every section on the way must be objects."""
    *sections, leaf = key.split(".")
    node = document
    for section in sections:
        if isinstance(node, dict):
            node = node.setdefault(section, {})
    if not isinstance(node, dict):
        raise ConfigError(f"config key {key} collides with a non-object value")
    node[leaf] = value
    return document


def _plain(value):
    """JSON form of a config value: tuples and arrays become lists."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(item) for item in value]
    return value


# Parsers: (document value, dotted key) -> attribute value, or ConfigError
# naming the key.


def _number(kind, check, need):
    def parse(value, key):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"config key {key} must be a number")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge ints
            raise ConfigError(f"config key {key} must be finite")
        if kind is int and value != int(value):
            raise ConfigError(f"config key {key} must be an integer")
        value = kind(value)
        if not check(value):
            raise ConfigError(f"config key {key} must be {need}")
        return value

    return parse


_POSITIVE = _number(float, lambda x: x > 0, "positive")
_NON_NEGATIVE = _number(float, lambda x: x >= 0, "non-negative")
_COUNT = _number(int, lambda n: n > 0, "positive")
_PROTONS = _number(int, lambda n: 1 <= n <= MAX_PROTONS, f"in 1..{MAX_PROTONS}")


def _array(value, key, need, shape_ok):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not shape_ok(arr.shape):
        raise ConfigError(f"config key {key} must be {need}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"config key {key} must be finite")
    return arr


def _vector3(value, key):
    arr = _array(value, key, "a 3-vector", lambda shape: shape == (3,))
    return tuple(float(c) for c in arr)


def _rows(value, key):
    """Table of 3-vector rows; its row count is checked later."""
    arr = _array(
        value, key, "rows of 3 numbers", lambda s: len(s) == 2 and s[1] == 3
    )
    return tuple(map(tuple, arr))


def _optional(parse):
    return lambda value, key: None if value is None else parse(value, key)


def _choice(*options):
    def parse(value, key):
        if value not in options:
            raise ConfigError(f"config key {key} must be {' or '.join(options)}")
        return value

    return parse


def _boolean(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key} must be true or false")
    return value


def _v0(value, key):
    if isinstance(value, str):
        if value != "matched":
            raise ConfigError(f'config key {key} must be a 3-vector or "matched"')
        return value
    return _vector3(value, key)


def _gammas(value, key):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config key {key} must be a non-empty list of numbers")
    return tuple(_POSITIVE(g, key) for g in value)


# (dotted document key, ExperimentConfig attribute, parser, help).  The
# document, its validation, --override and the CLI help all derive from
# this table; the dataclass fields hold the defaults.
SCHEMA = (
    ("p", "p", _PROTONS, f"proton count (1..{MAX_PROTONS})"),
    ("t_final", "t_final", _POSITIVE, "pulse duration, us (default 0.5)"),
    ("steps", "steps", _COUNT, "time intervals (default 200)"),
    ("constants.gyro", "gyro", _POSITIVE, "gyromagnetic ratio, rad/us/mT"),
    ("constants.k_singlet", "k_singlet", _NON_NEGATIVE,
     "singlet recombination rate, 1/us"),
    ("constants.k_triplet", "k_triplet", _NON_NEGATIVE,
     "triplet recombination rate, 1/us"),
    ("hyperfine", "hyperfine", _optional(_rows), "p rows of [Ax, Ay, Az], mT"),
    ("prism.lower", "prism_lower", _vector3, "control box lower corner, uT"),
    ("prism.upper", "prism_upper", _vector3, "control box upper corner, uT"),
    ("filter.enabled", "filter_enabled", _boolean,
     "true: first-order filter; false: v = u"),
    ("filter.gamma", "gamma", _POSITIVE, "filter rate, 1/us"),
    ("filter.v0", "v0", _v0, 'initial field, uT 3-vector, or "matched"'),
    ("u0.vector", "u0_vector", _vector3, "constant starting control, uT"),
    ("u0.values", "u0_values", _optional(_rows),
     "explicit steps x 3 starting control, uT; replaces u0.vector"),
    ("optimizer.method", "method", _choice("gpm", "ipmp"),
     "gpm | ipmp  (shorthand: optimizer=ipmp)"),
    ("optimizer.gpm.max_iters", "gpm_max_iters", _COUNT, "iteration cap"),
    ("optimizer.gpm.step_scale", "gpm_step_scale", _POSITIVE,
     "multiplier on the Barzilai-Borwein step"),
    ("optimizer.ipmp.max_iters", "ipmp_max_iters", _COUNT, "iteration cap"),
    ("sweep.gammas", "gammas", _gammas,
     "gamma values for sweep-gamma/yield-loss, 1/us"),
    ("sweep.p_max", "p_max", _PROTONS, "largest proton count in yield-loss"),
)
# The keys each run command does not read, as fnmatch patterns.  A key read
# under some settings only is read (filter.v0 = "matched" makes simulate read
# optimizer.* and grid-study u0.*).  config.json, the run id and the state
# cap cover the keys a command reads; setting another off its default fails.
UNREAD = {
    "simulate": ("sweep.*",),
    "optimize": ("sweep.*",),
    "sweep-gamma": ("filter.enabled", "filter.gamma", "sweep.p_max"),
    "yield-loss": ("p", "hyperfine", "u0.*", "filter.*"),
    "grid-study": ("optimizer.method", "optimizer.gpm.*", "sweep.*"),
}


def reads(command, key):
    """Whether `command` reads dotted `key`; unlisted names read them all."""
    return not any(fnmatchcase(key, u) for u in UNREAD.get(command, ()))


_ROWS = {tuple(row[0].split(".")): row for row in SCHEMA}
_SECTIONS = {path[:i] for path in _ROWS for i in range(1, len(path))}


def _leaves(data, path=()):
    """(schema row, value) for every leaf of a document; rejects unknown keys."""
    for key, value in data.items():
        where = (*path, key)
        name = ".".join(map(str, where))
        if where in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name} must be an object")
            yield from _leaves(value, where)
        elif where in _ROWS:
            yield _ROWS[where], value
        else:
            raise ConfigError(f"unknown config key: {name}")


MAX_ENSEMBLE_BYTES = 2 * 1024**3  # caps ensemble_bytes; p = 7 on 200 steps: 1.26 GB


def ensemble_bytes(p, steps):
    """Bytes of the forward and adjoint ensembles one run stores: two
    arrays of (steps+1) nodes x 2^(p+2) components x 3*2^p states.  No
    third is held and the contractions run in bounded blocks, so this is
    the run's peak, give or take one block."""
    return 2 * (steps + 1) * 2 ** (p + 2) * 3 * 2**p * 16


def config_from_dict(data, command=None):
    """Validate a nested config document for run `command` and fill every
    default; a ConfigError names the offending dotted key.  Each key that
    `command` does not read must hold its default (in document form), and
    the state cap charges each of p and sweep.p_max that it reads."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    config = ExperimentConfig(
        **{attr: parse(value, key) for (key, attr, parse, _), value in _leaves(data)}
    )

    p, steps = config.p, config.steps
    if config.hyperfine is not None and len(config.hyperfine) != p:
        raise ConfigError(f"config key hyperfine must be a {p}x3 array of mT rows")
    if config.u0_values is not None and len(config.u0_values) != steps:
        raise ConfigError(f"config key u0.values must be a {steps}x3 array")
    if any(lo > hi for lo, hi in zip(config.prism_lower, config.prism_upper)):
        raise ConfigError("config key prism.lower exceeds prism.upper")
    default = dict(_leaves(ExperimentConfig().to_dict()))
    for row, value in _leaves(config.to_dict()):
        if not reads(command, row[0]) and value != default[row]:
            why = "so it must be left at its default"
            raise ConfigError(f"config key {row[0]} is not read by {command}, {why}")
    if config.v0 == "matched" and not config.filter_enabled:
        why = "the no-filter model never reads v0"
        raise ConfigError(f'config key filter.v0 "matched" needs filter.enabled, {why}')
    for key, protons in (("p", p), ("sweep.p_max", config.p_max)):
        need = ensemble_bytes(protons, steps)
        if reads(command, key) and need > MAX_ENSEMBLE_BYTES:
            raise ConfigError(
                f"config key steps too large: {steps} steps at {key}={protons} "
                f"store {need / 2**30:.3g} GiB of states, over the "
                f"{MAX_ENSEMBLE_BYTES / 2**30:g} GiB cap"
            )
    return config


# --------------------------------------------------------------------------
# building and running problems


def build_problem(config: ExperimentConfig):
    """ControlProblem for a resolved (numeric-v0) config.

    The config passes the checks of a single run's document first (the
    state cap at p alone), so one built in Python is rejected with the
    same ConfigError as on the CLI.
    """
    if isinstance(config.v0, str):
        raise ConfigError(
            'filter.v0 "matched" must be resolved before building; '
            "see resolve_matched_v0"
        )
    config_from_dict(config.to_dict("optimize"), "optimize")
    return ControlProblem(
        assembly=build_model(
            config.p, gyro=config.gyro, k_singlet=config.k_singlet,
            k_triplet=config.k_triplet, hyperfine=config.hyperfine,
        ),
        basis=triplet_states(config.p),
        grid=TimeGrid(config.t_final, config.steps),
        prism=Prism(config.prism_lower, config.prism_upper),
        filter_cfg=FilterConfig(config.gamma, config.v0, config.filter_enabled),
    )


def initial_control(config: ExperimentConfig, problem: ControlProblem):
    """The configured starting control: u0.values when set, else the
    constant u0.vector.

    A start outside the prism is a ConfigError naming its key, raised here
    because a run that never starts from it (grid-study without a matched
    v0, yield-loss) carries the default u0.vector on any prism.
    """
    explicit = config.u0_values is not None
    try:
        if explicit:
            return ControlSignal(values=config.u0_values, bounds=problem.prism)
        return constant_control(config.u0_vector, problem.grid, problem.prism)
    except ValueError as exc:
        key = "u0.values" if explicit else "u0.vector"
        raise ConfigError(f"config key {key}: {exc}") from None


def run_optimizer(problem: ControlProblem, u0: ControlSignal, config: ExperimentConfig):
    if config.method == "gpm":
        return gpm_optimize(
            problem, u0, max_iters=config.gpm_max_iters,
            step_scale=config.gpm_step_scale,
        )
    return ipmp_optimize(problem, u0, max_iters=config.ipmp_max_iters)


def _nofilter_twin(config: ExperimentConfig):
    """(config with v0="matched" resolved, report) of run_single on the
    no-filter twin of `config`, which starts from the same control."""
    _, twin = run_single(replace(config, filter_enabled=False, v0=(0.0, 0.0, 0.0)))
    if isinstance(config.v0, str):  # the twin's optimal control is its field
        config = replace(config, v0=tuple(map(float, twin.final_control.values[0])))
    return config, twin


def resolve_matched_v0(config: ExperimentConfig):
    """Replace v0="matched" by the no-filter optimal field at t = 0.  The
    config is checked as a single run's first, so a matched v0 with the
    filter off is a ConfigError before the twin is solved."""
    if isinstance(config.v0, str):
        config_from_dict(config.to_dict("optimize"), "optimize")
        config = _nofilter_twin(config)[0]
    return config


def run_single(config: ExperimentConfig):
    """One optimization run; returns (resolved config, report)."""
    config = resolve_matched_v0(config)
    problem = build_problem(config)
    report = run_optimizer(problem, initial_control(config, problem), config)
    return config, report


def simulate(config: ExperimentConfig):
    """Propagate the starting control without optimizing.

    Returns (resolved config, problem, fields, forward ensemble, cost).
    """
    config = resolve_matched_v0(config)
    problem = build_problem(config)
    fields, forward, cost = problem.evaluate(initial_control(config, problem))
    return config, problem, fields, forward, cost


# --------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class SweepRow:
    gamma: float | None  # None marks the no-filter baseline row
    cost: float
    status: str

    @property
    def label(self):
        return "nofilter" if self.gamma is None else repr(self.gamma)


def gamma_sweep(config: ExperimentConfig):
    """Optimize at each of sweep.gammas, then append the no-filter baseline
    row; returns (config it ran, with v0="matched" resolved, rows).

    The config passes sweep-gamma's checks first, so one built in Python
    is rejected before any solve, as on the CLI.  A MaxIters run is
    recorded with its status, not raised.  The baseline is solved first,
    and v0="matched" is resolved from it and shared by every row.
    """
    config_from_dict(config.to_dict("sweep-gamma"), "sweep-gamma")
    config, baseline = _nofilter_twin(config)
    rows = []
    for gamma in config.gammas:
        _, report = run_single(replace(config, filter_enabled=True, gamma=gamma))
        rows.append(SweepRow(gamma, report.final_cost, report.status))
    rows.append(SweepRow(None, baseline.final_cost, baseline.status))
    return config, rows


@dataclass(frozen=True)
class YieldLossRow:
    p: int
    u0_label: str
    gamma: float
    j_filtered: float
    j_nofilter: float
    capped: bool = False  # the filtered or the no-filter run hit MaxIters

    @property
    def loss_percent(self):
        return 100.0 * (self.j_nofilter - self.j_filtered) / self.j_nofilter


def yield_loss_table(config: ExperimentConfig, starts=YIELD_LOSS_STARTS):
    """Loss of optimal yield due to filtering, per (p, u0, gamma), for p in
    1..sweep.p_max and gamma in sweep.gammas.

    Each (p, u0) pair is one gamma sweep, so the no-filter reference is its
    own optimization run in no-filter mode (direct-control switching
    function), never a large-gamma stand-in.  The filter starts at v0 = u0.
    Returns (rows, summary) where summary maps (p, label) -> (min, max)
    loss percent.  A key yield-loss replaces (UNREAD) set off its default,
    or a start outside the prism, is a ConfigError before any solve; so is
    a zero no-filter yield.
    """
    config_from_dict(config.to_dict(), "yield-loss")
    prism = Prism(config.prism_lower, config.prism_upper)
    labels = ["[" + ",".join(f"{c:g}" for c in start) + "]" for start in starts]
    for start, label in zip(starts, labels):
        if not prism.contains(start, tol=1.0e-12):  # ControlSignal's tolerance
            why = f"exclude the yield-loss start u0={label}"
            raise ConfigError(f"config keys prism.lower/prism.upper {why}")
    rows = []
    for p in range(1, config.p_max + 1):
        base = replace(config, p=p, hyperfine=None)
        for start, label in zip(starts, labels):
            start = tuple(float(c) for c in start)
            _, (*filtered, ref) = gamma_sweep(replace(base, u0_vector=start, v0=start))
            if ref.cost == 0.0:
                why = "the no-filter optimal yield is 0, so the loss is undefined"
                raise ConfigError(f"yield-loss at p={p}, u0={label}: {why}")
            rows.extend(
                YieldLossRow(
                    p=p,
                    u0_label=label,
                    gamma=row.gamma,
                    j_filtered=row.cost,
                    j_nofilter=ref.cost,
                    capped=STATUS_MAX_ITERS in (row.status, ref.status),
                )
                for row in filtered
            )
    summary = {}
    for row in rows:
        key = (row.p, row.u0_label)
        lo, hi = summary.get(key, (np.inf, -np.inf))
        summary[key] = (min(lo, row.loss_percent), max(hi, row.loss_percent))
    return rows, summary


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the multi-start study.

    classification: Unique | Multiple | Oscillating.  Pairwise discrepancy
    maxima cover all run pairs; the family fields compare the first run of
    each grid family (useful when the families land on distinct optima).
    config is the one every run solved (IPMP, v0="matched" resolved).
    """

    config: ExperimentConfig
    classification: str
    max_pairwise_ctrl: float
    max_pairwise_cost: float
    family_split: ControlComparison
    reports: tuple  # one OptimizerReport per start, in start order


def uniqueness_study(config: ExperimentConfig, vertices=STUDY_VERTICES):
    """Run IPMP from every grid start around each vertex and classify.

    Every run solves the same problem, with the filter seed v0 taken from
    the config (v0="matched" resolved once, with IPMP); only the starting
    control varies over the 54 grid points.  Deciding whether the filter
    regularizes away the start dependence only makes sense when the runs
    share one problem.
    """
    config = resolve_matched_v0(replace(config, method="ipmp"))
    problem = build_problem(config)
    starts = []
    for vertex in vertices:
        starts.extend(grid_initializers(vertex, problem.grid, problem.prism))

    reports = tuple(run_optimizer(problem, u0, config) for u0 in starts)

    h = problem.grid.h
    n = len(reports) // len(vertices)  # the first run of the second family
    controls = [r.final_control.values for r in reports]
    costs = [r.final_cost for r in reports]
    max_ctrl = max_cost = 0.0
    for a, b in itertools.combinations(range(len(reports)), 2):
        cmp = compare_controls(controls[a], controls[b], costs[a], costs[b], h)
        max_ctrl = max(max_ctrl, cmp.rel_ctrl)
        max_cost = max(max_cost, cmp.rel_cost)
    family_split = compare_controls(controls[0], controls[n], costs[0], costs[n], h)
    if all(r.status == STATUS_OSCILLATING for r in reports):
        classification = "Oscillating"
    elif max_ctrl == 0.0:
        classification = "Unique"
    else:
        classification = "Multiple"
    return UniquenessReport(
        config=config,
        classification=classification,
        max_pairwise_ctrl=max_ctrl,
        max_pairwise_cost=max_cost,
        family_split=family_split,
        reports=reports,
    )


# --------------------------------------------------------------------------
# persistence


def canonical_json(document):
    """Deterministic, standard JSON text: sorted keys, no whitespace drift,
    no NaN or Infinity."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def run_id(config: ExperimentConfig, name):
    payload = canonical_json({"experiment": name, "config": config.to_dict(name)})
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def write_csv(path, header, rows):
    """CSV from the standard writer: floats keep their shortest round-trip
    digits (bit-faithful), and a field holding a comma is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_run(out, name, config, files):
    """Write config.json plus `files` to <out>/<name>/<run id>/.

    `files` maps a file name to a JSON document or, for *.csv names, a
    (header, rows) table.  Each file is written to a temp file of its own
    and moved into place with os.replace, so a failed write leaves the
    files of an earlier identical run as they were, and two writers of one
    run do not remove each other's temp files.  Returns the run directory.
    """
    run_dir = os.path.join(out, name, run_id(config, name))
    os.makedirs(run_dir, exist_ok=True)
    for filename, content in {"config.json": config.to_dict(name), **files}.items():
        path = os.path.join(run_dir, filename)
        # not mkstemp, whose 0600 mode os.replace would give the run's files
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            if filename.endswith(".csv"):
                write_csv(tmp, *content)
            else:
                with open(tmp, "w") as fh:
                    fh.write(canonical_json(content) + "\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return run_dir


def report_document(report: OptimizerReport):
    doc = {
        "status": report.status,
        "iterations": report.iterations,
        "final_cost": float(report.final_cost),
    }
    if report.cycle_members is not None:
        doc["cycle"] = {"period": len(report.cycle_members)}
    return doc


def run_files(grid: TimeGrid, report: OptimizerReport):
    """The files of one optimization run, in write_run form."""
    nodes = grid.nodes
    return {
        "report.json": report_document(report),
        "cost_history.csv": (("iteration", "cost"), enumerate(report.cost_history)),
        "control.csv": (
            ("t", "u_x", "u_y", "u_z"),
            np.column_stack((nodes[:-1], report.final_control.values)),
        ),
        "field.csv": (
            ("t", "v_x", "v_y", "v_z"),
            np.column_stack((nodes, report.final_field.node_values)),
        ),
        "switching.csv": (
            ("t", "phi_x", "phi_y", "phi_z"),
            np.column_stack((nodes, report.final_switching)),
        ),
    }
