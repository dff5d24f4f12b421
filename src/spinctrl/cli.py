"""Command-line interface: config loading, subcommands, exit codes.

Exit status: 0 success; 1 configuration or usage error; 2 numerical abort
(a state norm grew or a costate overflowed); 3 an optimizer hit its iteration
cap and --strict was given (optimize, sweep-gamma, yield-loss, grid-study).
Configs are single JSON documents; --override patches dotted keys on top.
Results land under --out, the SPINCTRL_OUT environment variable, or
./results, in that order.  Each run subcommand only computes its files and
stdout lines; run_command makes the one write_run call for all of them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys

import numpy as np

from .dynamics import IntegrationOverflow, TimeGrid
from .experiments import (
    SCHEMA,
    ConfigError,
    canonical_json,
    compare_controls,
    config_from_dict,
    gamma_sweep,
    run_files,
    run_single,
    set_key,
    simulate,
    uniqueness_study,
    write_csv,  # noqa: F401  re-exported so that tracers can rebind it here
    write_run,
    yield_loss_table,
)
from .optimize import STATUS_MAX_ITERS

CONFIG_KEY_HELP = (
    "config keys (JSON document; --override key=value patches single keys):\n"
    + "".join(f"  {key:<31} {text}\n" for key, _, _, text in SCHEMA)
)


def apply_override(document, assignment):
    """Patch `document` with one dotted key=value string."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value, got: {assignment}")
    key, _, text = assignment.partition("=")
    key = key.strip()
    if key == "optimizer":  # shorthand for the method name
        key = "optimizer.method"
    if key not in {row[0] for row in SCHEMA}:
        raise ConfigError(f"unknown config key: {key}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare words are strings, e.g. filter.v0=matched
    return set_key(document, key, value)


def load_config(path, overrides=(), command=None):
    """JSON file (or nothing) + overrides -> ExperimentConfig, validated for
    run `command` (every key read, as by validate, when None)."""
    if path is None:
        document = {}
    else:
        try:
            with open(path) as fh:
                document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
    for assignment in overrides:
        document = apply_override(document, assignment)
    return config_from_dict(document, command)


# argparse options of each subcommand flag, keyed by the flag.
FLAGS = {
    "--config": dict(help="JSON config file (omit for defaults)"),
    "--override": dict(
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-key config patch, repeatable",
    ),
    "--out": dict(help="results directory (fallback: $SPINCTRL_OUT, ./results)"),
    "--strict": dict(
        action="store_true",
        help="exit 3 when an optimizer stops at its iteration cap",
    ),
    "--dump-states": dict(
        action="store_true",
        help="also write the full state trajectory (states.csv, large)",
    ),
    "run_a": dict(help="first run directory (reference)"),
    "run_b": dict(help="second run directory"),
}
RUN_FLAGS = ("--config", "--override", "--out", "--strict")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinctrl",
        description="Optimal-control toolkit for radical-pair spin dynamics.",
        epilog=CONFIG_KEY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="per-iteration logs on stderr",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, handler, text, flags in COMMANDS:
        command = sub.add_parser(name, help=text)
        command.set_defaults(handler=handler)
        for flag in flags:
            command.add_argument(flag, **FLAGS[flag])
    return parser


def run_command(study):
    """Handler of a run subcommand whose `study` maps (config, args) to
    (config to record, files, stdout lines, capped).  It makes the one
    write_run call, ends the last line with run=<dir>, and exits 3 on a
    capped run under --strict."""

    def handler(args):
        config = load_config(args.config, args.override, args.command)
        config, files, lines, capped = study(config, args)
        out = args.out or os.environ.get("SPINCTRL_OUT") or "results"
        run_dir = write_run(out, args.command, config, files)
        lines[-1] += f" run={run_dir}"
        print("\n".join(lines))
        return 3 if capped and args.strict else 0

    return handler


@run_command
def cmd_simulate(config, args):
    config, problem, fields, forward, cost = simulate(config)
    nodes, (_, dim, count) = problem.grid.nodes, forward.states.shape
    # mean over the ensemble (the law is per state), node by node: no copy
    norms = [np.einsum("sl,sl->", s.conj(), s).real / count for s in forward.states]
    files = {
        "report.json": {"cost": float(cost)},
        "field.csv": (
            ("t", "v_x", "v_y", "v_z", "norm_sq"),
            np.column_stack((nodes, fields.node_values, norms)),
        ),
    }
    if args.dump_states:
        # streamed node by node: the dump never copies or indexes the ensemble
        index = list(itertools.product(range(count), range(dim)))
        rows = (
            (t, state, component, z.real, z.imag)
            for t, node in zip(nodes.tolist(), forward.states)
            for (state, component), z in zip(index, node.T.ravel().tolist())
        )
        files["states.csv"] = (("t", "state", "component", "re", "im"), rows)
    return config, files, [f"simulate: J={float(cost):.10f}"], False


@run_command
def cmd_optimize(config, args):
    config, report = run_single(config)
    files = run_files(TimeGrid(config.t_final, config.steps), report)
    line = (
        f"optimize[{config.method}]: status={report.status} "
        f"iterations={report.iterations} J={report.final_cost:.10f}"
    )
    return config, files, [line], report.status == STATUS_MAX_ITERS


@run_command
def cmd_sweep_gamma(config, args):
    config, rows = gamma_sweep(config)
    table = [(r.label, r.cost, r.status) for r in rows]
    lines = [f"gamma={r.label}: J={r.cost:.10f} status={r.status}" for r in rows]
    capped = any(r.status == STATUS_MAX_ITERS for r in rows)
    files = {"sweep.csv": (("gamma", "J", "status"), table)}
    return config, files, [*lines, "sweep-gamma:"], capped


@run_command
def cmd_yield_loss(config, args):
    rows, summary = yield_loss_table(config)
    header = ("p", "u0", "gamma", "J_filtered", "J_nofilter", "loss_percent")
    table = [
        (r.p, r.u0_label, r.gamma, r.j_filtered, r.j_nofilter, r.loss_percent)
        for r in rows
    ]
    ranges = sorted(summary.items())
    summary_doc = [
        {"p": p, "u0": label, "min_loss_percent": lo, "max_loss_percent": hi}
        for (p, label), (lo, hi) in ranges
    ]
    lines = [
        f"p={p} u0={label}: loss% in [{lo:.4f}, {hi:.4f}]"
        for (p, label), (lo, hi) in ranges
    ]
    files = {"yield_loss.csv": (header, table), "summary.json": summary_doc}
    return config, files, [*lines, "yield-loss:"], any(row.capped for row in rows)


@run_command
def cmd_grid_study(config, args):
    study = uniqueness_study(config)
    report = {
        "classification": study.classification,
        "max_pairwise_ctrl": study.max_pairwise_ctrl,
        "max_pairwise_cost": study.max_pairwise_cost,
        "family_split": {
            "rel_ctrl": study.family_split.rel_ctrl,
            "rel_cost": study.family_split.rel_cost,
        },
    }
    capped = any(r.status == STATUS_MAX_ITERS for r in study.reports)
    runs = [(i, r.status, r.final_cost) for i, r in enumerate(study.reports)]
    files = {"report.json": report, "runs.csv": (("index", "status", "J"), runs)}
    line = (
        f"grid-study: classification={study.classification} "
        f"max_ctrl={study.max_pairwise_ctrl:.6f} "
        f"max_cost={study.max_pairwise_cost:.3e}"
    )
    return study.config, files, [line], capped


def _read_run(run_dir):
    control_path = os.path.join(run_dir, "control.csv")
    report_path = os.path.join(run_dir, "report.json")
    with open(control_path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["t", "u_x", "u_y", "u_z"]:
            raise ConfigError(f"{control_path} is not a control table")
        try:
            values = np.array([[float(c) for c in row[1:]] for row in reader])
        except ValueError:  # a cell that is not a number, or a ragged row
            values = np.empty(0)
    if values.shape[1:] != (3,) or not np.isfinite(values).all():  # no rows: (0,)
        raise ConfigError(f"{control_path} must hold rows of t and 3 finite numbers")
    with open(report_path) as fh:
        try:  # any JSON number, however long, reads as a float
            report = json.load(fh, parse_int=float)
        except ValueError:  # not JSON
            report = None
    cost = report.get("final_cost") if isinstance(report, dict) else None
    if type(cost) is not float or not np.isfinite(cost):
        raise ConfigError(f"{report_path} must hold a finite number as final_cost")
    return values, cost


def cmd_compare(args):
    u1, j1 = _read_run(args.run_a)
    u2, j2 = _read_run(args.run_b)
    if u1.shape != u2.shape:
        raise ConfigError(
            f"control grids differ: {u1.shape[0]} vs {u2.shape[0]} intervals"
        )
    cmp = compare_controls(u1, u2, j1, j2)
    tag = " (absolute: reference control is zero)" if cmp.absolute else ""
    print(f"rel_ctrl={cmp.rel_ctrl:.6f}{tag}")
    print(f"rel_cost={cmp.rel_cost:.6e}")
    return 0


def cmd_validate(args):
    config = load_config(args.config, args.override)
    print(canonical_json(config.to_dict()))
    return 0


# (name, handler, help, flags): the one list of subcommands.
COMMANDS = (
    ("simulate", cmd_simulate, "propagate the starting control, no optimization",
     ("--config", "--override", "--out", "--dump-states")),
    ("optimize", cmd_optimize, "run the configured optimizer once", RUN_FLAGS),
    ("sweep-gamma", cmd_sweep_gamma,
     "optimize across filter rates plus no-filter baseline", RUN_FLAGS),
    ("yield-loss", cmd_yield_loss, "filtered-vs-no-filter yield loss table",
     RUN_FLAGS),
    ("grid-study", cmd_grid_study, "multi-start uniqueness study (54 grid starts)",
     RUN_FLAGS),
    ("compare", cmd_compare, "compare the controls of two runs", ("run_a", "run_b")),
    ("validate", cmd_validate, "validate a config and echo its resolved form",
     ("--config", "--override")),
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    if args.command is None:
        parser.print_help()
        return 1
    level = logging.INFO if args.verbose else logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    try:
        return args.handler(args)
    except IntegrationOverflow as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
