import csv
import json
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spinctrl import experiments
from spinctrl.cli import COMMANDS, apply_override, build_parser, load_config, main
from spinctrl.experiments import (
    SCHEMA,
    UNREAD,
    ConfigError,
    ExperimentConfig,
    build_problem,
    ensemble_bytes,
    reads,
    resolve_matched_v0,
    simulate,
    uniqueness_study,
    write_csv,
)
from spinctrl.model import default_hyperfine


def _leaf_paths(document, prefix=""):
    paths = []
    for key, value in document.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, path))
        else:
            paths.append(path)
    return paths


SIGNED_PRISM = ("prism.lower=[3,3,-1]", "prism.upper=[6,6,2]")


def _run_recorded_v0(tmp_path, capsys, command, overrides):
    """filter.v0 in the config.json of one run of `command`."""
    args = [command, "--out", str(tmp_path / "res")]
    for patch in overrides:
        args += ["--override", patch]
    assert main(args) == 0
    run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
    with open(os.path.join(run_dir, "config.json")) as fh:
        return json.load(fh)["filter"]["v0"]


def _write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestOverrides:
    def test_dotted_patch(self):
        doc = apply_override({}, "filter.gamma=60")
        assert doc == {"filter": {"gamma": 60}}

    def test_optimizer_shorthand(self):
        assert apply_override({}, "optimizer=ipmp") == {
            "optimizer": {"method": "ipmp"}
        }

    def test_bare_word_is_a_string(self):
        assert apply_override({}, "filter.v0=matched") == {
            "filter": {"v0": "matched"}
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="filtre"):
            apply_override({}, "filtre.gamma=2")
        with pytest.raises(ConfigError, match=r"filter\.gama"):
            apply_override({}, "filter.gama=2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "filter.gamma")

    def test_section_holding_a_value_rejected(self):
        with pytest.raises(ConfigError, match="filter.gamma collides"):
            apply_override({"filter": 1.0}, "filter.gamma=2")

    def test_later_override_wins(self):
        cfg = load_config(None, ["filter.gamma=60", "filter.gamma=2"])
        assert cfg.gamma == 2.0


class TestLoadConfig:
    def test_no_file_gives_defaults(self):
        assert load_config(None) == ExperimentConfig()

    def test_single_override_leaves_rest_default(self):
        cfg = load_config(None, ["filter.gamma=60"])
        assert cfg.gamma == 60.0
        assert cfg == ExperimentConfig(gamma=60.0)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": }')
        with pytest.raises(ConfigError, match="line 1 column"):
            load_config(str(path))

    def test_file_plus_override(self, tmp_path):
        path = _write_config(tmp_path, {"p": 2, "filter": {"gamma": 5.0}})
        cfg = load_config(path, ["steps=100"])
        assert (cfg.p, cfg.gamma, cfg.steps) == (2, 5.0, 100)


class TestHelp:
    def test_help_lists_every_subcommand_and_config_key(self):
        text = build_parser().format_help()
        for name in (
            "simulate",
            "optimize",
            "sweep-gamma",
            "yield-loss",
            "grid-study",
            "compare",
            "validate",
        ):
            assert name in text
        for path in _leaf_paths(ExperimentConfig().to_dict()):
            assert path in text, path
        # units are spelled out
        assert "uT" in text and "1/us" in text and "mT" in text

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().out

    def test_usage_errors_exit_1(self, capsys):
        assert main(["optimize", "--bogus"]) == 1
        # --strict only where an optimizer runs
        assert main(["validate", "--strict"]) == 1
        assert main(["simulate", "--strict"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["--help"]) == 0


class TestValidate:
    def test_echoes_defaults_for_empty_config(self, tmp_path, capsys):
        path = _write_config(tmp_path, {})
        assert main(["validate", "--config", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == ExperimentConfig().to_dict()

    def test_resolved_echo_reloads_identically(self, tmp_path, capsys):
        first = _write_config(tmp_path, {"p": 2, "optimizer": {"method": "gpm"}})
        assert main(["validate", "--config", first]) == 0
        echo1 = capsys.readouterr().out
        second = tmp_path / "resolved.json"
        second.write_text(echo1)
        assert main(["validate", "--config", str(second)]) == 0
        assert capsys.readouterr().out == echo1

    def test_override_shorthand_applies(self, capsys):
        assert main(["validate", "--override", "optimizer=gpm"]) == 0
        assert json.loads(capsys.readouterr().out)["optimizer"]["method"] == "gpm"

    def test_bad_prism_exits_1_naming_key(self, tmp_path, capsys):
        path = _write_config(
            tmp_path, {"prism": {"lower": [7.0, 3.0, 3.0], "upper": [6.0, 6.0, 6.0]}}
        )
        assert main(["validate", "--config", path]) == 1
        assert "prism.lower" in capsys.readouterr().err

    def test_unknown_override_exits_1(self, capsys):
        assert main(["validate", "--override", "filtre.gamma=2"]) == 1
        assert "filtre" in capsys.readouterr().err
        # the cycle window is a constant of the optimizer, not a key
        key = "optimizer.ipmp.cycle_window"
        assert main(["validate", "--override", f"{key}=8"]) == 1
        assert key in capsys.readouterr().err
        # u0.values alone selects an explicit start; there is no kind key
        assert main(["validate", "--override", "u0.kind=explicit"]) == 1
        assert "unknown config key: u0.kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "filter.gamma=NaN",
            "t_final=Infinity",
            "prism.upper=[6,6,NaN]",
            "constants.k_singlet=NaN",
            "u0.vector=[NaN,3,3]",
            "optimizer.gpm.step_scale=NaN",
            "optimizer.ipmp.max_iters=2.7",
        ],
    )
    def test_non_finite_or_fractional_value_exits_1(self, override, capsys):
        assert main(["validate", "--override", override]) == 1
        assert override.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "optimizer.gpm.max_iters=0",
            "optimizer.gpm.step_scale=0",
            "optimizer.ipmp.max_iters=-3",
        ],
    )
    def test_non_positive_optimizer_setting_exits_1(self, override, capsys):
        assert main(["validate", "--override", override]) == 1
        key = override.partition("=")[0]
        assert f"config key {key} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["p=9", "sweep.p_max=12", "steps=1e9"])
    def test_oversized_problem_exits_1(self, override, capsys):
        # rejected while the config is read, before any array is built
        assert main(["validate", "--override", override]) == 1
        assert override.partition("=")[0] in capsys.readouterr().err

    def test_largest_proton_count_fits_default_grid(self, capsys):
        assert main(["validate", "--override", "p=7"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 7

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "--config", "/no/such/file.json"]) == 1
        assert "config error" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_end_to_end_run(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"steps": 50})
        code = main(
            ["optimize", "--config", path, "--out", str(tmp_path / "res")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status=Converged" in out
        run_dir = out.rsplit("run=", 1)[1].strip()
        with open(os.path.join(run_dir, "report.json")) as fh:
            assert json.load(fh)["status"] == "Converged"
        table = np.loadtxt(
            os.path.join(run_dir, "control.csv"), delimiter=",", skiprows=1
        )
        # bang-bang control on the default prism
        assert np.isin(table[:, 1:], [3.0, 6.0]).all()

    def test_strict_maxiters_exits_3(self, tmp_path):
        path = _write_config(
            tmp_path, {"steps": 50, "optimizer": {"ipmp": {"max_iters": 1}}}
        )
        args = ["optimize", "--config", path, "--out", str(tmp_path / "res")]
        assert main(args + ["--strict"]) == 3
        assert main(args) == 0  # without --strict the cap is only reported

    def test_start_outside_prism_exits_1_naming_key(self, tmp_path, capsys):
        # the default start [3,3,3] lies outside prism case 2
        args = ["optimize", "--out", str(tmp_path / "res")]
        for patch in SIGNED_PRISM + ("steps=20",):
            args += ["--override", patch]
        assert main(args) == 1
        assert "config key u0.vector" in capsys.readouterr().err

    def test_matched_v0_without_filter_exits_1_before_solving(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_solve(*args):
            raise AssertionError("optimize solved before checking filter.v0")

        monkeypatch.setattr(experiments, "run_optimizer", no_solve)
        args = ["optimize", "--out", str(tmp_path / "res")]
        for patch in ("filter.enabled=false", "filter.v0=matched", "steps=20"):
            args += ["--override", patch]
        assert main(args) == 1
        assert "config key filter.v0" in capsys.readouterr().err

    def test_overflow_exits_2(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "steps": 50,
                "prism": {"lower": [3.0, 3.0, 3.0], "upper": [1e7, 1e7, 1e7]},
                "u0": {"vector": [1e7, 1e7, 1e7]},
                "filter": {"enabled": False},
            },
        )
        code = main(["optimize", "--config", path, "--out", str(tmp_path / "res")])
        assert code == 2
        assert "numerical abort" in capsys.readouterr().err

    def test_unstable_grid_exits_2(self, tmp_path, capsys):
        # 7 steps at p = 2 and 4 at p = 1 are too few for RK4: the state
        # norms grow, which the dynamics never do, though no amplitude
        # nears OVERFLOW_LIMIT
        args = ["optimize", "--out", str(tmp_path / "res")]
        for p, steps in ((2, 7), (1, 4)):
            patches = ["--override", f"p={p}", "--override", f"steps={steps}"]
            assert main(args + patches) == 2
            assert "numerical abort" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / "res")

    def test_out_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINCTRL_OUT", str(tmp_path / "envout"))
        path = _write_config(tmp_path, {"steps": 50})
        assert main(["optimize", "--config", path]) == 0
        run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
        assert run_dir.startswith(str(tmp_path / "envout"))
        # explicit --out beats the environment
        assert main(
            ["optimize", "--config", path, "--out", str(tmp_path / "flag")]
        ) == 0
        run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
        assert run_dir.startswith(str(tmp_path / "flag"))


class TestSimulateCommand:
    def test_constant_field_and_norm_decay(self, tmp_path, capsys):
        # no filter, constant control: field.csv constant, squared norms
        # follow the decay law exp(-(k_S) t) with k_S = k_T = 10
        path = _write_config(
            tmp_path, {"steps": 50, "filter": {"enabled": False}}
        )
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "res")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("simulate: J=")
        run_dir = out.rsplit("run=", 1)[1].strip()
        table = np.loadtxt(
            os.path.join(run_dir, "field.csv"), delimiter=",", skiprows=1
        )
        assert table.shape == (51, 5)
        assert np.all(table[:, 1:4] == 3.0)
        # coarse grid: the law itself is pinned down in the dynamics tests
        assert_allclose(table[:, 4], np.exp(-10.0 * table[:, 0]), rtol=1e-3)

    def test_dump_states_writes_trajectory(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"steps": 10})
        code = main(
            [
                "simulate",
                "--config",
                path,
                "--out",
                str(tmp_path / "res"),
                "--dump-states",
            ]
        )
        assert code == 0
        run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
        table = np.loadtxt(
            os.path.join(run_dir, "states.csv"), delimiter=",", skiprows=1
        )
        # 11 nodes x 6 triplet-born states x 8 components
        assert table.shape == (11 * 6 * 8, 5)
        # rows in (node, state, component) order, values exactly as simulated
        _, problem, _, forward, _ = simulate(load_config(path))
        nodes, states = problem.grid.nodes, forward.states
        expected = [
            (nodes[k], l, c, states[k, c, l].real, states[k, c, l].imag)
            for k in range(states.shape[0])
            for l in range(states.shape[2])
            for c in range(states.shape[1])
        ]
        assert_array_equal(table, np.array(expected))

    def test_dump_states_text_is_the_index_array_text(self, tmp_path, capsys):
        """The streamed rows print exactly as the rows the dump once built
        from whole-ensemble index arrays and a transposed copy."""
        overrides = ["p=2", "steps=20"]
        args = ["simulate", "--dump-states", "--out", str(tmp_path)]
        for patch in overrides:
            args += ["--override", patch]
        assert main(args) == 0
        run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
        _, problem, _, forward, _ = simulate(load_config(None, overrides))
        states = forward.states.transpose(0, 2, 1)  # (node, state, component)
        k, state, component = np.indices(states.shape).reshape(3, -1)
        z = states.reshape(-1)
        rows = zip(problem.grid.nodes[k], state, component, z.real, z.imag)
        reference = tmp_path / "reference.csv"
        write_csv(reference, ("t", "state", "component", "re", "im"), rows)
        with open(os.path.join(run_dir, "states.csv"), "rb") as fh:
            dumped = fh.read()
        assert dumped.count(b"\n") == 1 + 21 * 12 * 16
        assert dumped == reference.read_bytes()

    def test_dump_states_peaks_at_the_forward_ensemble(self, tmp_path, capsys):
        """At p = 3 on 200 steps the dump streams its rows: the command
        stays near the forward ensemble, well under the ensemble_bytes it
        is charged (about 2x when the rows came from whole-ensemble index
        arrays)."""
        args = ["simulate", "--dump-states", "--override", "p=3"]
        tracemalloc.start()
        try:
            code = main([*args, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.25 * ensemble_bytes(3, 200)

    def test_norm_column_copies_no_ensemble(self, tmp_path, capsys):
        """The norm_sq column is summed node by node: at p = 3 simulate
        peaks at 0.90 of ensemble_bytes (the forward ensemble plus the
        objective's blocks), where a conjugate copy of the whole forward
        ensemble read 1.08."""
        tracemalloc.start()
        try:
            code = main(["simulate", "--override", "p=3", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 0.95 * ensemble_bytes(3, 200)

    def test_norm_column_is_the_whole_ensemble_sum(self, tmp_path, capsys):
        """field.csv holds, bit for bit, the norms of one einsum over the
        whole ensemble, filtered and not, at p = 1..3."""
        for p in (1, 2, 3):
            for enabled in ("true", "false"):
                overrides = [f"p={p}", "steps=40", f"filter.enabled={enabled}"]
                args = ["simulate", "--out", str(tmp_path)]
                for patch in overrides:
                    args += ["--override", patch]
                assert main(args) == 0
                run_dir = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
                config = load_config(None, overrides)
                _, problem, fields, forward, _ = simulate(config)
                states = forward.states
                norms = np.einsum("ksl,ksl->k", states.conj(), states).real
                norms /= states.shape[2]
                table = np.column_stack((problem.grid.nodes, fields.node_values, norms))
                reference = tmp_path / "reference.csv"
                write_csv(reference, ("t", "v_x", "v_y", "v_z", "norm_sq"), table)
                with open(os.path.join(run_dir, "field.csv"), "rb") as fh:
                    assert fh.read() == reference.read_bytes(), (p, enabled)

    def test_explicit_values_are_the_start(self, tmp_path, capsys):
        def cost(patch):
            args = ["simulate", "--out", str(tmp_path), "--override", "steps=20"]
            args += ["--override", patch]
            assert main(args) == 0
            return capsys.readouterr().out.split(" run=")[0]

        rows = json.dumps([[6.0, 6.0, 6.0]] * 20)
        assert cost(f"u0.values={rows}") == cost("u0.vector=[6,6,6]")


class TestSweepCommand:
    def test_single_gamma_sweep(self, tmp_path, capsys):
        path = _write_config(
            tmp_path, {"steps": 50, "sweep": {"gammas": [1.0]}}
        )
        code = main(
            ["sweep-gamma", "--config", path, "--out", str(tmp_path / "res")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma=1.0: J=" in out
        assert "gamma=nofilter: J=" in out
        run_dir = out.rsplit("run=", 1)[1].strip()
        lines = open(os.path.join(run_dir, "sweep.csv")).read().splitlines()
        assert lines[0] == "gamma,J,status"
        assert len(lines) == 3

    def test_matched_v0_is_recorded_resolved(self, tmp_path, capsys):
        overrides = ("steps=20", "sweep.gammas=[1.0]", "filter.v0=matched")
        assert _run_recorded_v0(tmp_path, capsys, "sweep-gamma", overrides) == (
            list(resolve_matched_v0(load_config(None, overrides)).v0)
        )


class TestGridStudyCommand:
    def test_unused_start_outside_prism_exits_0(self, tmp_path, capsys):
        # grid-study never uses u0.vector, so the default one may lie outside
        args = ["grid-study", "--out", str(tmp_path / "res")]
        for patch in SIGNED_PRISM + ("steps=20",):
            args += ["--override", patch]
        assert main(args) == 0
        assert "classification=" in capsys.readouterr().out

    def test_run_files(self, tmp_path, capsys):
        """report.json holds the study's summary only, and runs.csv one row
        per start, in start order, from the study's reports."""
        overrides = (*SIGNED_PRISM, "steps=20")
        run_dir = _run_dir(tmp_path, capsys, "grid-study", overrides)
        study = uniqueness_study(load_config(None, overrides, "grid-study"))
        split = study.family_split
        with open(os.path.join(run_dir, "report.json")) as fh:
            assert json.load(fh) == {
                "classification": study.classification,
                "max_pairwise_ctrl": study.max_pairwise_ctrl,
                "max_pairwise_cost": study.max_pairwise_cost,
                "family_split": {
                    "rel_ctrl": split.rel_ctrl, "rel_cost": split.rel_cost
                },
            }
        with open(os.path.join(run_dir, "runs.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", "status", "J"]
        assert [(int(i), status, float(j)) for i, status, j in rows] == [
            (i, r.status, r.final_cost) for i, r in enumerate(study.reports)
        ]
        assert len(rows) == 54

    def test_matched_v0_is_recorded_resolved(self, tmp_path, capsys):
        overrides = SIGNED_PRISM + (
            "steps=20", "u0.vector=[3,3,0]", "filter.v0=matched"
        )
        config = load_config(None, overrides)  # the study's IPMP is the default
        assert _run_recorded_v0(tmp_path, capsys, "grid-study", overrides) == (
            list(resolve_matched_v0(config).v0)
        )


class TestYieldLossCommand:
    def test_small_table(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {"steps": 50, "sweep": {"gammas": [1.0], "p_max": 1}},
        )
        code = main(
            ["yield-loss", "--config", path, "--out", str(tmp_path / "res")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p=1 u0=[3,3,3]: loss% in [" in out
        run_dir = out.rsplit("run=", 1)[1].strip()
        with open(os.path.join(run_dir, "yield_loss.csv"), newline="") as fh:
            table = list(csv.reader(fh))
        assert {len(row) for row in table} == {6}
        assert [row[1] for row in table[1:]] == ["[3,3,3]", "[6,6,6]", "[6,6,3]"]
        with open(os.path.join(run_dir, "summary.json")) as fh:
            summary = json.load(fh)
        assert len(summary) == 3  # three starting controls at p = 1
        # config.json records the built-in hyperfine table, and a rerun
        # from it lands in the same run directory
        rerun = ["--config", os.path.join(run_dir, "config.json")]
        assert main(["yield-loss", *rerun, "--out", str(tmp_path / "res")]) == 0
        assert capsys.readouterr().out.rsplit("run=", 1)[1].strip() == run_dir

    def test_hyperfine_table_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every p runs on its built-in table, so a configured one would be
        recorded in config.json but not used."""

        def no_solve(*args):
            raise AssertionError("yield-loss solved before rejecting hyperfine")

        monkeypatch.setattr(experiments, "run_optimizer", no_solve)
        args = ["yield-loss", "--out", str(tmp_path / "res")]
        assert main(args + ["--override", "hyperfine=[[0,0,0]]"]) == 1
        assert "config key hyperfine" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "override", ["p=2", "filter.gamma=7", "u0.vector=[6,6,6]"]
    )
    def test_replaced_key_rejected_before_solving(
        self, override, tmp_path, capsys, monkeypatch
    ):
        """yield-loss sets p, the start and the filter itself, so a value
        configured for any of them would be recorded but not used."""

        def no_solve(*args):
            raise AssertionError("yield-loss solved before rejecting a key")

        monkeypatch.setattr(experiments, "run_optimizer", no_solve)
        args = ["yield-loss", "--out", str(tmp_path / "res")]
        for patch in ("steps=20", "sweep.p_max=1", "sweep.gammas=[1]", override):
            args += ["--override", patch]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"config key {override.partition('=')[0]} " in err
        assert "yield-loss" in err
        assert not (tmp_path / "res").exists()

    def test_config_json_of_every_key_still_runs(self, tmp_path, capsys):
        """A config.json that records all keys, the default hyperfine table
        expanded, runs and lands where the same read keys land."""
        small = ExperimentConfig(steps=20, gammas=(1.0,), p_max=1)
        document = small.to_dict()
        assert document["hyperfine"] == default_hyperfine(1).tolist()
        path = _write_config(tmp_path, document)
        out = ["--out", str(tmp_path / "res")]
        assert main(["yield-loss", "--config", path, *out]) == 0
        first = capsys.readouterr().out.rsplit("run=", 1)[1].strip()
        overrides = ["steps=20", "sweep.gammas=[1]", "sweep.p_max=1"]
        args = ["yield-loss", *out]
        for patch in overrides:
            args += ["--override", patch]
        assert main(args) == 0
        assert capsys.readouterr().out.rsplit("run=", 1)[1].strip() == first

    def test_zero_nofilter_yield_exits_1(self, tmp_path, capsys):
        """No singlet recombination gives J = 0, the loss's denominator."""
        args = ["yield-loss", "--out", str(tmp_path / "res")]
        for patch in (
            "constants.k_singlet=0", "sweep.p_max=1", "steps=20", "sweep.gammas=[1]"
        ):
            args += ["--override", patch]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "p=1, u0=[3,3,3]" in err and "no-filter optimal yield is 0" in err

    def test_prism_excluding_a_start_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch
    ):
        """The signed prism excludes the fixed starts [3,3,3] and [6,6,3]:
        the error names the prism keys and the start, not u0.vector, which
        yield-loss does not read."""

        def no_solve(*args):
            raise AssertionError("yield-loss solved before rejecting the prism")

        monkeypatch.setattr(experiments, "run_optimizer", no_solve)
        args = ["yield-loss", "--out", str(tmp_path / "res")]
        patches = ("steps=20", "sweep.p_max=1", "sweep.gammas=[1]", *SIGNED_PRISM)
        for patch in patches:
            args += ["--override", patch]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "prism.lower/prism.upper" in err and "u0=[3,3,3]" in err
        assert "u0.vector" not in err
        assert not (tmp_path / "res").exists()


@pytest.mark.parametrize(
    "command, patches",
    [
        ("yield-loss", ("sweep.p_max=1", "sweep.gammas=[1.0]")),
        ("sweep-gamma", ("sweep.gammas=[1.0]",)),
        ("grid-study", ()),  # the study always runs IPMP
    ],
    ids=["yield-loss", "sweep-gamma", "grid-study"],
)
def test_strict_maxiters_exits_3(tmp_path, command, patches):
    args = [command, "--out", str(tmp_path / "res")]
    for patch in ("steps=20", "optimizer.ipmp.max_iters=1", *patches):
        args += ["--override", patch]
    assert main(args + ["--strict"]) == 3
    assert main(args) == 0  # without --strict the cap is only reported


# report.json texts that hold no finite numeric final_cost
MALFORMED_REPORTS = {
    "list": '{"final_cost": [1]}',
    "nan": '{"final_cost": NaN}',
    "not-json": "nope",
    "not-an-object": "[1]",
    "missing": "{}",
    "string": '{"final_cost": "0.1"}',
    "bool": '{"final_cost": true}',
    "overflowing-int": '{"final_cost": 1' + "0" * 400 + "}",
}


class TestCompareCommand:
    def _run(self, tmp_path, name, document):
        path = _write_config(tmp_path, document, name=f"{name}.json")
        out_dir = str(tmp_path / name)
        assert main(["optimize", "--config", path, "--out", out_dir]) == 0
        root = os.path.join(out_dir, "optimize")
        (rid,) = os.listdir(root)
        return os.path.join(root, rid)

    def test_identical_runs_compare_to_zero(self, tmp_path, capsys):
        run_a = self._run(tmp_path, "a", {"steps": 50})
        run_b = self._run(tmp_path, "b", {"steps": 50})
        capsys.readouterr()
        assert main(["compare", run_a, run_b]) == 0
        out = capsys.readouterr().out
        assert "rel_ctrl=0.000000" in out
        assert "rel_cost=0.000000e+00" in out

    def test_mismatched_grids_exit_1(self, tmp_path, capsys):
        run_a = self._run(tmp_path, "a", {"steps": 50})
        run_b = self._run(tmp_path, "b", {"steps": 40})
        capsys.readouterr()
        assert main(["compare", run_a, run_b]) == 1
        assert "control grids differ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [[], ["0.0,3.0,3.0"], ["0.0,3.0,x,3.0"], ["0.0,3.0,3.0,nan"]],
        ids=["no-rows", "two-values", "not-a-number", "not-finite"],
    )
    def test_malformed_control_table_exits_1_naming_it(self, rows, tmp_path, capsys):
        run_a = self._run(tmp_path, "a", {"steps": 50})
        run_b = self._run(tmp_path, "b", {"steps": 50})
        control = os.path.join(run_b, "control.csv")
        with open(control, "w") as fh:
            fh.write("\n".join(["t,u_x,u_y,u_z", *rows, ""]))
        capsys.readouterr()
        assert main(["compare", run_a, run_b]) == 1
        assert control in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        list(MALFORMED_REPORTS.values()),
        ids=list(MALFORMED_REPORTS),
    )
    def test_malformed_report_exits_1_naming_it(self, text, tmp_path, capsys):
        run_a = self._run(tmp_path, "a", {"steps": 50})
        run_b = self._run(tmp_path, "b", {"steps": 50})
        report = os.path.join(run_b, "report.json")
        with open(report, "w") as fh:
            fh.write(text)
        capsys.readouterr()
        assert main(["compare", run_a, run_b]) == 1
        assert report in capsys.readouterr().err


# Per run command: the overrides of a small, fast run; an unread key at its
# default; and the same key off its default.
RUN_COMMANDS = {
    "simulate": (("steps=20",), "sweep.p_max=3", "sweep.gammas=[7]"),
    "optimize": (("steps=20",), "sweep.p_max=3", "sweep.p_max=1"),
    "sweep-gamma": (
        ("steps=20", "sweep.gammas=[1]"), "filter.gamma=1", "filter.enabled=false"
    ),
    "yield-loss": (
        ("steps=20", "sweep.gammas=[1]", "sweep.p_max=1"),
        "u0.vector=[3,3,3]",
        "filter.v0=[5,5,5]",
    ),
    "grid-study": (("steps=20",), "optimizer=ipmp", "optimizer.gpm.step_scale=2"),
}
# The number of config keys each run command reads, from the table of
# unread keys in the README.
READ_COUNTS = {
    "simulate": 18, "optimize": 18, "sweep-gamma": 17, "yield-loss": 13,
    "grid-study": 15,
}


def _run_dir(tmp_path, capsys, command, overrides):
    args = [command, "--out", str(tmp_path / "res")]
    for patch in overrides:
        args += ["--override", patch]
    assert main(args) == 0
    return capsys.readouterr().out.rsplit("run=", 1)[1].strip()


class TestReadKeys:
    """Each run command records, hashes and caps only the keys it reads,
    and refuses any other key set off its default."""

    def test_every_run_command_has_a_row(self):
        commands = {name for name, *_ in COMMANDS} - {"compare", "validate"}
        assert set(UNREAD) == set(RUN_COMMANDS) == commands
        # settable (command, key) pairs of the five run commands
        pairs = sum(reads(name, key) for name in UNREAD for key, *_ in SCHEMA)
        assert (len(UNREAD) * len(SCHEMA), pairs) == (100, 81)

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_config_json_holds_the_read_keys(self, command, tmp_path, capsys):
        run_dir = _run_dir(tmp_path, capsys, command, RUN_COMMANDS[command][0])
        with open(os.path.join(run_dir, "config.json")) as fh:
            recorded = _leaf_paths(json.load(fh))
        assert sorted(recorded) == sorted(
            key for key, *_ in SCHEMA if reads(command, key)
        )
        assert len(recorded) == READ_COUNTS[command]
        if command in ("simulate", "optimize", "grid-study"):
            assert not any(key.startswith("sweep.") for key in recorded)

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_default_unread_key_keeps_the_run_dir(self, command, tmp_path, capsys):
        overrides, at_default, _ = RUN_COMMANDS[command]
        plain = _run_dir(tmp_path, capsys, command, overrides)
        assert _run_dir(tmp_path, capsys, command, (*overrides, at_default)) == plain

    @pytest.mark.parametrize("source", ["file", "override"])
    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_unread_key_off_default_exits_1(
        self, command, source, tmp_path, capsys, monkeypatch
    ):
        def no_build(*args):
            raise AssertionError(f"{command} built a problem before refusing")

        monkeypatch.setattr(experiments, "build_problem", no_build)
        overrides, _, off_default = RUN_COMMANDS[command]
        key = off_default.partition("=")[0]
        args = [command, "--out", str(tmp_path / "res")]
        if source == "file":
            document = apply_override({}, off_default)
            args += ["--config", _write_config(tmp_path, document)]
        else:
            args += ["--override", off_default]
        for patch in overrides:
            args += ["--override", patch]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"config key {key} is not read by {command}" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "command, accepted",
        [
            ("simulate", True),
            ("optimize", True),
            ("sweep-gamma", True),
            ("grid-study", True),
            ("yield-loss", False),
            ("validate", False),
        ],
    )
    def test_cap_charges_the_read_proton_counts(self, command, accepted):
        """100000 steps fit the cap at p = 1, not at sweep.p_max = 3: only
        validate and yield-loss read sweep.p_max."""
        if accepted:
            config = load_config(None, ["steps=100000"], command)
            build_problem(config)  # charges the p it builds, not sweep.p_max
        else:
            with pytest.raises(ConfigError, match=r"steps too large.* sweep\.p_max=3 "):
                load_config(None, ["steps=100000"], command)

    def test_validate_still_refuses_the_largest_p(self, capsys):
        assert main(["validate", "--override", "steps=100000"]) == 1
        assert "sweep.p_max=3" in capsys.readouterr().err
