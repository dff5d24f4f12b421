import json
import os
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spinctrl import experiments
from spinctrl.dynamics import Prism, TimeGrid, constant_control
from spinctrl.experiments import (
    GRID_SPACING,
    ConfigError,
    ExperimentConfig,
    SweepRow,
    YieldLossRow,
    build_problem,
    canonical_json,
    compare_controls,
    config_from_dict,
    gamma_sweep,
    grid_initializers,
    grid_points,
    initial_control,
    resolve_matched_v0,
    run_files,
    run_id,
    run_single,
    simulate,
    uniqueness_study,
    write_run,
    yield_loss_table,
)

PRISM_SIGNED = Prism(lower=(3.0, 3.0, -1.0), upper=(6.0, 6.0, 2.0))
WIDE = Prism(lower=(-100.0, -100.0, -100.0), upper=(100.0, 100.0, 100.0))

# Small-but-real optimization config reused below.  50 intervals keeps each
# IPMP run in the millisecond range at p = 1.
FAST = ExperimentConfig(steps=50)


class TestGridSpec:
    def test_point_count_and_lexicographic_order(self):
        pts = grid_points((6.0, 6.0, -1.0))
        assert pts.shape == (27, 3)
        # offsets are 0.5*(1-i), so index (0,0,0) sits above the vertex
        assert_allclose(pts[0], [6.5, 6.5, -0.5])
        assert_allclose(pts[13], [6.0, 6.0, -1.0])
        assert_allclose(pts[26], [5.5, 5.5, -1.5])

    def test_points_are_the_ijk_loop(self):
        """Every point, bit for bit and in order, as the (i, j, k) loop
        with k innermost builds it."""
        vertex = np.array([6.0, 6.0, -1.0])
        offsets = GRID_SPACING * (1.0 - np.arange(3.0))
        loop = [
            vertex + np.array([offsets[i], offsets[j], offsets[k]])
            for i in range(3)
            for j in range(3)
            for k in range(3)
        ]
        assert_array_equal(grid_points(tuple(vertex)), np.array(loop))

    def test_points_distinct(self):
        pts = grid_points((0.0, 0.0, 0.0))
        assert len({tuple(p) for p in pts}) == 27

    def test_second_vertex_center(self):
        pts = grid_points((6.0, 6.0, 2.0))
        assert_allclose(pts[13], [6.0, 6.0, 2.0])

    def test_initializers_constant_and_clipped(self):
        grid = TimeGrid(0.5, 8)
        controls = grid_initializers((6.0, 6.0, -1.0), grid, PRISM_SIGNED)
        assert len(controls) == 27
        lo = np.asarray(PRISM_SIGNED.lower)
        hi = np.asarray(PRISM_SIGNED.upper)
        for u in controls:
            assert u.values.shape == (8, 3)
            assert np.all(u.values >= lo) and np.all(u.values <= hi)
            assert_array_equal(u.values, np.tile(u.values[:1], (8, 1)))
        # raw [6.5, 6.5, -0.5] clips in x and y only
        assert_allclose(controls[0].values[0], [6.0, 6.0, -0.5])
        # raw [5.5, 5.5, -1.5] clips in z only
        assert_allclose(controls[26].values[0], [5.5, 5.5, -1.0])


class TestCompareControls:
    def test_identical_signals(self):
        grid = TimeGrid(1.0, 4)
        u = constant_control((1.0, 2.0, 3.0), grid, WIDE).values
        cmp = compare_controls(u, u, 0.5, 0.5, grid.h)
        assert cmp.rel_ctrl == 0.0
        assert cmp.rel_cost == 0.0
        assert not cmp.absolute

    def test_doubling_gives_unit_discrepancy(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-2.0, 2.0, size=(6, 3))
        cmp = compare_controls(values, 2.0 * values, 0.3, 0.3, 0.25)
        assert_allclose(cmp.rel_ctrl, 1.0, rtol=1e-12)
        assert cmp.rel_cost == 0.0

    def test_two_interval_hand_case(self):
        # diff norm sqrt(0.25*1) = 0.5, reference norm sqrt(0.25*5)
        u1 = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        u2 = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        cmp = compare_controls(u1, u2, 0.2, 0.25, 0.25)
        assert_allclose(cmp.rel_ctrl, 0.5 / np.sqrt(1.25), rtol=1e-12)
        assert_allclose(cmp.rel_cost, 0.25, rtol=1e-12)

    def test_zero_reference_reports_absolute_norm(self):
        u1 = np.zeros((2, 3))
        u2 = np.array([[0.0, 3.0, 4.0], [0.0, 3.0, 4.0]])
        cmp = compare_controls(u1, u2, 0.0, 0.125, 0.5)
        assert cmp.absolute
        assert_allclose(cmp.rel_ctrl, 5.0, rtol=1e-12)
        # zero reference cost falls back to |j2| as well
        assert_allclose(cmp.rel_cost, 0.125, rtol=1e-12)


class TestConfigDocument:
    def test_empty_document_gives_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_round_trip_identity(self):
        base = ExperimentConfig(
            p=2,
            gamma=10.0,
            method="gpm",
            v0="matched",
            prism_lower=(3.0, 3.0, -1.0),
            prism_upper=(6.0, 6.0, 2.0),
        )
        doc = base.to_dict()
        again = config_from_dict(doc)
        assert again.to_dict() == doc
        # the document always carries explicit hyperfine rows
        assert again.hyperfine is not None
        assert len(again.hyperfine) == 2

    def test_explicit_u0_round_trip(self):
        rows = [[3.0 + 0.1 * k, 4.0, 5.0] for k in range(10)]
        cfg = config_from_dict({"steps": 10, "u0": {"values": rows}})
        assert cfg.u0_values == tuple(map(tuple, rows))
        # document-level fixed point (hyperfine expands to explicit rows)
        assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: filtre"):
            config_from_dict({"filtre": {"gamma": 2.0}})

    def test_unknown_nested_key_names_dotted_path(self):
        with pytest.raises(ConfigError, match=r"unknown config key: filter\.gama"):
            config_from_dict({"filter": {"gama": 2.0}})
        with pytest.raises(
            ConfigError, match=r"unknown config key: optimizer\.gpm\.alpha"
        ):
            config_from_dict({"optimizer": {"gpm": {"alpha": 0.1}}})

    def test_prism_ordering_rejected(self):
        with pytest.raises(ConfigError, match=r"prism\.lower exceeds prism\.upper"):
            config_from_dict(
                {"prism": {"lower": [7.0, 3.0, 3.0], "upper": [6.0, 6.0, 6.0]}}
            )

    def test_steps_must_be_positive_integer(self):
        with pytest.raises(ConfigError, match="steps must be an integer"):
            config_from_dict({"steps": 2.5})
        with pytest.raises(ConfigError, match="steps must be positive"):
            config_from_dict({"steps": 0})

    def test_v0_string_must_be_matched(self):
        with pytest.raises(ConfigError, match="matched"):
            config_from_dict({"filter": {"v0": "auto"}})

    def test_matched_v0_needs_filter(self):
        """The no-filter model never reads v0, so "matched" there would only
        solve the no-filter twin a second time."""
        document = {"filter": {"enabled": False, "v0": "matched"}}
        for command in (None, "simulate", "optimize", "grid-study"):
            with pytest.raises(ConfigError, match=r"filter\.v0 \"matched\""):
                config_from_dict(document, command)

    def test_u0_values_shape_checked(self):
        with pytest.raises(ConfigError, match=r"u0\.values"):
            config_from_dict({"steps": 4, "u0": {"values": [[3.0, 3.0, 3.0]]}})

    def test_hyperfine_shape_checked(self):
        with pytest.raises(ConfigError, match="hyperfine"):
            config_from_dict({"p": 2, "hyperfine": [[1.0, 2.0, 3.0]]})

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"filter\.gamma must be positive"):
            config_from_dict({"filter": {"gamma": -1.0}})

    def test_method_vocabulary(self):
        with pytest.raises(ConfigError, match=r"optimizer\.method"):
            config_from_dict({"optimizer": {"method": "newton"}})

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError, match=r"constants\.k_singlet"):
            config_from_dict({"constants": {"k_singlet": -1.0}})

    def test_sweep_gammas_positive(self):
        with pytest.raises(ConfigError, match=r"sweep\.gammas"):
            config_from_dict({"sweep": {"gammas": [1.0, 0.0]}})

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


def test_run_id_depends_on_config_and_name():
    a = ExperimentConfig()
    b = ExperimentConfig(k_triplet=7.0)
    assert run_id(a, "optimize") == run_id(a, "optimize")
    assert run_id(a, "optimize") != run_id(b, "optimize")
    assert run_id(a, "optimize") != run_id(a, "sweep-gamma")
    assert len(run_id(a, "optimize")) == 12


def test_canonical_json_is_standard_json():
    assert canonical_json({"b": [1.5], "a": None}) == '{"a":null,"b":[1.5]}'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            canonical_json({"gamma": bad})


def test_build_problem_requires_numeric_v0():
    with pytest.raises(ConfigError, match="matched"):
        build_problem(ExperimentConfig(v0="matched"))


def test_config_built_in_python_is_validated():
    """A NaN gamma is a config error, not an integration overflow."""
    with pytest.raises(ConfigError, match="filter.gamma"):
        run_single(ExperimentConfig(steps=20, gamma=float("nan")))


@pytest.mark.parametrize(
    "kwargs, key",
    [({"p": 9}, "p"), ({"p": 7, "steps": 400}, "steps")],
    ids=["p9", "p7-400-steps"],
)
def test_oversized_config_rejected_before_building(kwargs, key):
    with pytest.raises(ConfigError, match=f"config key {key} "):
        build_problem(ExperimentConfig(**kwargs))


def test_start_outside_prism_names_its_key():
    signed = dict(prism_lower=(3.0, 3.0, -1.0), prism_upper=(6.0, 6.0, 2.0))
    constant = ExperimentConfig(steps=4, **signed)  # default start [3,3,3]
    with pytest.raises(ConfigError, match="config key u0.vector: "):
        initial_control(constant, build_problem(constant))
    rows = ((3.0, 3.0, 0.0),) * 3 + ((3.0, 3.0, 2.5),)
    explicit = replace(constant, u0_values=rows)
    with pytest.raises(ConfigError, match="config key u0.values: "):
        initial_control(explicit, build_problem(explicit))


def persisted_run(out):
    """(config, report, run directory) of a FAST run written as the CLI
    writes an optimize run."""
    cfg, report = run_single(FAST)
    grid = TimeGrid(cfg.t_final, cfg.steps)
    return cfg, report, write_run(out, "optimize", cfg, run_files(grid, report))


class TestRunSingle:
    def test_persisted_layout(self, tmp_path):
        cfg, report, run_dir = persisted_run(str(tmp_path))
        assert run_dir == str(tmp_path / "optimize" / run_id(cfg, "optimize"))
        for name in (
            "config.json",
            "report.json",
            "cost_history.csv",
            "control.csv",
            "field.csv",
            "switching.csv",
        ):
            assert os.path.exists(os.path.join(run_dir, name))
        with open(os.path.join(run_dir, "config.json")) as fh:
            assert json.load(fh) == cfg.to_dict("optimize")  # the keys it reads
        with open(os.path.join(run_dir, "report.json")) as fh:
            doc = json.load(fh)
        assert doc["status"] == report.status
        assert doc["iterations"] == report.iterations
        assert doc["final_cost"] == report.final_cost
        assert doc["cost_history"] == [float(c) for c in report.cost_history]

    def test_rerun_is_bit_identical(self, tmp_path):
        _, _, d1 = persisted_run(str(tmp_path / "a"))
        _, _, d2 = persisted_run(str(tmp_path / "b"))
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for name in names:
            with open(os.path.join(d1, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(d2, name), "rb") as fh:
                second = fh.read()
            assert first == second, name

    def test_failed_rewrite_keeps_earlier_run(self, tmp_path, monkeypatch):
        _, _, run_dir = persisted_run(str(tmp_path))

        def files():
            return {
                name: open(os.path.join(run_dir, name), "rb").read()
                for name in os.listdir(run_dir)
            }

        before = files()

        def failing_write_csv(path, header, rows):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(experiments, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            persisted_run(str(tmp_path))
        after = files()
        assert not [name for name in after if name.endswith(".tmp")]
        assert after == before

    def test_control_csv_contents(self, tmp_path):
        cfg, report, run_dir = persisted_run(str(tmp_path))
        data = np.loadtxt(
            os.path.join(run_dir, "control.csv"), delimiter=",", skiprows=1
        )
        assert data.shape == (50, 4)
        # interval left nodes, h = 0.5/50
        assert_allclose(data[:, 0], np.arange(50) * 0.01, atol=1e-15)
        assert_array_equal(data[:, 1:], report.final_control.values)
        # IPMP output is bang-bang so the csv holds exact prism faces
        assert np.isin(data[:, 1:], [3.0, 6.0]).all()

    def test_field_csv_row_count(self, tmp_path):
        cfg, report, run_dir = persisted_run(str(tmp_path))
        data = np.loadtxt(
            os.path.join(run_dir, "field.csv"), delimiter=",", skiprows=1
        )
        assert data.shape == (51, 4)
        assert_allclose(data[0, 1:], cfg.v0)


def test_simulate_matches_problem_evaluate():
    cfg = ExperimentConfig(steps=40)
    rcfg, problem, fields, forward, cost = simulate(cfg)
    assert rcfg == cfg
    f2, fw2, c2 = problem.evaluate(initial_control(rcfg, problem))
    assert cost == c2
    assert_array_equal(fields.node_values, f2.node_values)
    assert 0.0 < cost < 1.0
    # the field trajectory starts at the filter seed
    assert_allclose(fields.node_values[0], rcfg.v0)


def test_resolve_matched_v0_passes_a_vector_through():
    assert resolve_matched_v0(FAST) == (FAST, None)


def test_resolve_matched_v0_uses_nofilter_start_value():
    resolved, report = resolve_matched_v0(replace(FAST, v0="matched"))
    assert resolved.filter_enabled
    assert resolved.v0 == tuple(report.final_control.values[0])
    # the no-filter optimum is bang-bang, so the seed sits on prism faces
    assert set(np.asarray(resolved.v0).tolist()) <= {3.0, 6.0}


class TestSweeps:
    def test_sweep_row_labels(self):
        assert SweepRow(gamma=None, cost=0.1, status="Converged").label == "nofilter"
        assert SweepRow(gamma=2.0, cost=0.1, status="Converged").label == "2.0"

    def test_single_gamma_row_matches_standalone_run(self):
        cfg = replace(FAST, gammas=(1.0,))
        config, rows = gamma_sweep(cfg)
        assert config == cfg  # nothing to resolve
        assert len(rows) == 2
        row, baseline = rows
        assert row.gamma == 1.0
        _, rep = run_single(replace(FAST, filter_enabled=True, gamma=1.0))
        assert row.cost == rep.final_cost
        assert row.status == rep.status
        assert baseline.gamma is None
        _, ref = run_single(replace(FAST, filter_enabled=False, v0=(0.0, 0.0, 0.0)))
        assert baseline.cost == ref.final_cost

    def test_matched_sweep_hands_back_resolved_config(self):
        cfg = replace(FAST, gammas=(1.0,), v0="matched")
        config, rows = gamma_sweep(cfg)
        resolved, report = resolve_matched_v0(cfg)
        assert config == resolved
        # the no-filter solve of the resolution is the baseline row
        assert rows[-1].cost == report.final_cost

    def test_persist_sweep_layout(self, tmp_path):
        rows = [
            SweepRow(gamma=1.0, cost=0.25, status="Converged"),
            SweepRow(gamma=None, cost=0.26, status="Converged"),
        ]
        table = [(row.label, row.cost, row.status) for row in rows]
        run_dir = write_run(
            str(tmp_path),
            "sweep-gamma",
            FAST,
            {"sweep.csv": (("gamma", "J", "status"), table)},
        )
        lines = open(os.path.join(run_dir, "sweep.csv")).read().splitlines()
        assert lines[0] == "gamma,J,status"
        assert lines[1] == "1.0,0.25,Converged"
        assert lines[2] == "nofilter,0.26,Converged"


class TestYieldLoss:
    def test_loss_percent_arithmetic(self):
        row = YieldLossRow(
            p=1, u0_label="[3,3,3]", gamma=1.0, j_filtered=0.07, j_nofilter=0.08
        )
        assert_allclose(row.loss_percent, 12.5, rtol=1e-12)

    def test_rows_and_summary(self):
        cfg = replace(FAST, gammas=(1.0, 60.0), p_max=1)
        rows, summary = yield_loss_table(cfg, starts=((3.0, 3.0, 3.0),))
        assert [r.gamma for r in rows] == [1.0, 60.0]
        assert all(r.p == 1 and r.u0_label == "[3,3,3]" for r in rows)
        assert all(r.j_filtered >= 0.0 and r.j_nofilter >= 0.0 for r in rows)
        # one no-filter reference per (p, u0) pair, shared across gammas
        assert rows[0].j_nofilter == rows[1].j_nofilter
        lo, hi = summary[(1, "[3,3,3]")]
        assert lo == min(r.loss_percent for r in rows)
        assert hi == max(r.loss_percent for r in rows)
        # a fast filter tracks the bang-bang control closely
        assert rows[1].loss_percent < 1.5

    def test_start_labels(self):
        cfg = replace(FAST, gammas=(1.0,), p_max=1)
        rows, summary = yield_loss_table(cfg, starts=((6.0, 6.0, 3.0),))
        assert rows[0].u0_label == "[6,6,3]"
        assert (1, "[6,6,3]") in summary

    def test_start_outside_prism_rejected_before_solving(self, monkeypatch):
        """[6,6,2] lies in the signed prism and [6,6,3] does not: the error
        names the prism keys and that start, and comes before any solve."""

        def no_solve(*args):
            raise AssertionError("yield-loss solved before checking its starts")

        monkeypatch.setattr(experiments, "run_optimizer", no_solve)
        cfg = replace(FAST, prism_lower=(3.0, 3.0, -1.0), prism_upper=(6.0, 6.0, 2.0))
        with pytest.raises(ConfigError, match=r"prism\.upper exclude .* u0=\[6,6,3\]"):
            yield_loss_table(cfg, starts=((6.0, 6.0, 2.0), (6.0, 6.0, 3.0)))


def test_uniqueness_study_structure():
    # structural smoke on a coarse grid; the physics claims live in the
    # acceptance suite at full resolution
    cfg = ExperimentConfig(
        steps=40,
        prism_lower=(3.0, 3.0, -1.0),
        prism_upper=(6.0, 6.0, 2.0),
    )
    study = uniqueness_study(cfg)
    assert len(study.statuses) == 54
    assert len(study.costs) == 54
    assert len(study.controls) == 54
    assert study.classification in ("Unique", "Multiple", "Oscillating")
    assert study.max_pairwise_ctrl >= 0.0
    assert study.max_pairwise_cost >= 0.0
    if study.max_pairwise_ctrl == 0.0:
        assert study.classification in ("Unique", "Oscillating")


def test_uniqueness_study_resolves_matched_v0():
    cfg = ExperimentConfig(
        steps=20,
        prism_lower=(3.0, 3.0, -1.0),
        prism_upper=(6.0, 6.0, 2.0),
        v0="matched",
        u0_vector=(3.0, 3.0, 0.0),  # the start of the no-filter solve
    )
    study = uniqueness_study(cfg)
    assert len(study.costs) == 54
    # resolved once, with IPMP, and shared by every start
    resolved, _ = resolve_matched_v0(replace(cfg, method="ipmp"))
    assert study.config == resolved
    assert study.costs == uniqueness_study(resolved).costs
