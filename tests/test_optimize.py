import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinctrl.dynamics import (
    ControlSignal,
    FilterConfig,
    Prism,
    TimeGrid,
    constant_control,
)
from spinctrl.experiments import ensemble_bytes
from spinctrl.model import build_model, triplet_states
from spinctrl.objective import pmp_residual
from spinctrl.optimize import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_OSCILLATING,
    ControlProblem,
    bb_step,
    control_norm,
    gpm_optimize,
    ipmp_optimize,
    project_to_prism,
    synthesize_bang_bang,
)

PRISM = Prism(lower=np.full(3, 3.0), upper=np.full(3, 6.0))
PRISM_MIXED = Prism(
    lower=np.array([3.0, 3.0, -1.0]), upper=np.array([6.0, 6.0, 2.0])
)


def fig1_problem(p=1, steps=200, gamma=1.0, enabled=True):
    model = build_model(p=p)
    basis = triplet_states(p)
    grid = TimeGrid(t_final=0.5, steps=steps)
    cfg = FilterConfig(
        gamma=gamma, v0=np.array([3.0, 3.0, 3.0]), enabled=enabled
    )
    return ControlProblem(
        assembly=model, basis=basis, grid=grid, prism=PRISM, filter_cfg=cfg
    )


def cycling_problem():
    """Mixed-sign prism (case 2) at gamma=10, where IPMP falls into a
    period-2 cycle; returns (problem, u0)."""
    problem = ControlProblem(
        assembly=build_model(p=1),
        basis=triplet_states(1),
        grid=TimeGrid(t_final=0.5, steps=200),
        prism=PRISM_MIXED,
        filter_cfg=FilterConfig(gamma=10.0, v0=np.array([3.0, 3.0, 3.0])),
    )
    return problem, constant_control([3.0, 3.0, 0.0], problem.grid, PRISM_MIXED)


class SignRuleProblem:
    """Stand-in for ControlProblem for IPMP: `phi_of(values)` gives the
    switching signal on the interval left nodes, and the cost of a control
    is the interval where its x component peaks."""

    def __init__(self, prism, phi_of):
        self.prism = prism
        self.phi_of = phi_of

    def evaluate(self, control):
        return control.values, None, float(np.argmax(control.values[:, 0]))

    def gradient(self, fields, forward):
        phi = self.phi_of(fields)
        return None, np.vstack([phi, phi[-1:]])


# Every exit of both optimizers: case -> (optimizer, keywords, status).
EXITS = {
    "ipmp-converged": (ipmp_optimize, {}, STATUS_CONVERGED),
    "ipmp-maxiters": (ipmp_optimize, dict(max_iters=2), STATUS_MAX_ITERS),
    "ipmp-oscillating": (ipmp_optimize, {}, STATUS_OSCILLATING),
    "gpm-converged": (gpm_optimize, dict(step_scale=12.0), STATUS_CONVERGED),
    "gpm-maxiters": (gpm_optimize, dict(max_iters=3), STATUS_MAX_ITERS),
}


def exit_run(case):
    """(problem, u0, optimizer, keywords, status) of a run that leaves
    through the exit named by `case`."""
    optimizer, keywords, status = EXITS[case]
    if case == "ipmp-oscillating":
        problem, u0 = cycling_problem()
    else:
        problem = fig1_problem(steps=100)
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
    return problem, u0, optimizer, keywords, status


def count_solves(monkeypatch):
    """Count the calls of ControlProblem.evaluate and .gradient."""
    calls = {"evaluate": 0, "gradient": 0}
    for name in calls:

        def counted(self, *args, name=name, method=getattr(ControlProblem, name)):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(ControlProblem, name, counted)
    return calls


def test_status_strings():
    assert STATUS_CONVERGED == "Converged"
    assert STATUS_MAX_ITERS == "MaxIters"
    assert STATUS_OSCILLATING == "Oscillating"


class TestProjection:
    def test_feasible_point_unchanged(self):
        vals = np.array([[4.0, 5.0, 3.5]])
        assert_allclose(project_to_prism(vals, PRISM), vals)

    def test_upper_clamp(self):
        vals = np.full((3, 3), 7.0)
        assert_allclose(project_to_prism(vals, PRISM), np.full((3, 3), 6.0))

    def test_mixed_clamp(self):
        assert_allclose(
            project_to_prism(np.array([[2.0, 7.0, 4.0]]), PRISM),
            [[3.0, 6.0, 4.0]],
        )


class TestBbStep:
    def test_quadratic_model_exact_step(self):
        """dg = c du gives step 1/c."""
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal((5, 3))
        du = rng.standard_normal((5, 3))
        c = 2.5
        lam = bb_step(u0, u0 + du, np.zeros((5, 3)), c * du, 0.1, fallback=9.9)
        assert lam == pytest.approx(1.0 / c, rel=1e-12)

    def test_degenerate_gradient_falls_back(self):
        u0 = np.zeros((4, 3))
        g = np.ones((4, 3))
        assert bb_step(u0, u0 + 1.0, g, g, 0.1, fallback=0.125) == 0.125

    def test_hand_recomputation(self):
        """Spreadsheet-style recomputation of the weighted dot products."""
        rng = np.random.default_rng(31)
        h = 0.25
        u_prev = rng.standard_normal((4, 3))
        u_cur = rng.standard_normal((4, 3))
        g_prev = rng.standard_normal((4, 3))
        g_cur = rng.standard_normal((4, 3))
        num = 0.0
        den = 0.0
        for k in range(4):
            for i in range(3):
                du = u_cur[k, i] - u_prev[k, i]
                dg = g_cur[k, i] - g_prev[k, i]
                num += h * du * dg
                den += h * dg * dg
        expected = abs(num) / den
        lam = bb_step(u_prev, u_cur, g_prev, g_cur, h, fallback=1.0)
        assert lam == pytest.approx(expected, rel=1e-12)


class TestSynthesize:
    def test_all_positive_gives_upper_bound(self):
        grid = TimeGrid(t_final=1.0, steps=5)
        phi = np.ones((6, 3))
        prev = constant_control([4.0, 4.0, 4.0], grid, PRISM)
        out = synthesize_bang_bang(phi, PRISM, prev)
        assert_allclose(out.values, np.tile(PRISM.upper, (5, 1)))

    def test_zero_phi_keeps_previous(self):
        grid = TimeGrid(t_final=1.0, steps=5)
        prev = constant_control([4.0, 5.0, 3.5], grid, PRISM)
        for zero in (0.0, -0.0):  # -0.0 is an exact zero as well
            phi = np.full((6, 3), zero)
            out = synthesize_bang_bang(phi, PRISM, prev)
            assert_allclose(out.values, prev.values)

    def test_single_sign_change_single_switch(self):
        """phi_x decreasing through zero mid-grid: one switch, M then m."""
        grid = TimeGrid(t_final=0.5, steps=10)
        nodes = grid.nodes
        phi = np.zeros((11, 3))
        phi[:, 0] = 0.26 - nodes  # positive until t=0.26, negative after
        phi[:, 1] = 1.0
        phi[:, 2] = -1.0
        prev = constant_control([4.0, 4.0, 4.0], grid, PRISM)
        out = synthesize_bang_bang(phi, PRISM, prev)
        x = out.values[:, 0]
        switches = np.count_nonzero(np.diff(x))
        assert switches == 1
        assert_allclose(x[:6], 6.0)  # left nodes 0.0 .. 0.25 are positive
        assert_allclose(x[6:], 3.0)
        assert_allclose(out.values[:, 1], 6.0)
        assert_allclose(out.values[:, 2], 3.0)


class TestSettingsValidation:
    def test_gpm_settings(self):
        with pytest.raises(ValueError):
            gpm_optimize(None, None, max_iters=0)
        with pytest.raises(ValueError):
            gpm_optimize(None, None, step_scale=0.0)

    def test_ipmp_settings(self):
        with pytest.raises(ValueError):
            ipmp_optimize(None, None, max_iters=0)


class TestGpm:
    def test_zero_gradient_fixed_point(self):
        """k_S = 0 makes J identically zero: one re-check, control kept."""
        model = build_model(p=1, k_singlet=0.0, k_triplet=10.0)
        problem = ControlProblem(
            assembly=model,
            basis=triplet_states(1),
            grid=TimeGrid(t_final=0.5, steps=50),
            prism=PRISM,
            filter_cfg=FilterConfig(gamma=1.0, v0=np.array([3.0, 3.0, 3.0])),
        )
        u0 = constant_control([4.0, 4.0, 4.0], problem.grid, PRISM)
        report = gpm_optimize(problem, u0)
        assert report.status == STATUS_CONVERGED
        assert report.iterations == 1
        assert_allclose(report.final_control.values, u0.values)

    def test_bang_bang_pmp_point_is_fixed(self):
        """A converged IPMP control projects back onto itself under the
        gradient ascent, so GPM stops after one re-check."""
        problem = fig1_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        pmp_point = ipmp_optimize(problem, u0).final_control
        report = gpm_optimize(problem, pmp_point)
        assert report.status == STATUS_CONVERGED
        assert report.iterations == 1
        assert_allclose(report.final_control.values, pmp_point.values)

    def test_max_iters_status(self):
        problem = fig1_problem(steps=50)
        u0 = constant_control([4.5, 4.5, 4.5], problem.grid, PRISM)
        report = gpm_optimize(problem, u0, max_iters=1)
        assert report.status == STATUS_MAX_ITERS
        assert report.iterations == 1
        assert len(report.cost_history) == 2

    def test_cost_history_length_and_feasibility(self):
        problem = fig1_problem(steps=100)
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        report = gpm_optimize(problem, u0, step_scale=12.0)
        assert len(report.cost_history) == report.iterations + 1
        assert PRISM.contains(report.final_control.values)
        # ascent overall: final cost at least the starting cost
        assert report.final_cost >= report.cost_history[0]

    def test_beats_constant_vertex_baselines(self):
        """1-D control (only x free): GPM must end above both prism-vertex
        constant controls.  Margin measured at 5e-7, slack 1e-9."""
        prism = Prism(
            lower=np.array([3.0, 3.0, 3.0]), upper=np.array([6.0, 3.0, 3.0])
        )
        problem = ControlProblem(
            assembly=build_model(p=1),
            basis=triplet_states(1),
            grid=TimeGrid(t_final=0.5, steps=200),
            prism=prism,
            filter_cfg=FilterConfig(gamma=1.0, v0=np.array([3.0, 3.0, 3.0])),
        )

        def cost_of_constant(x):
            u = constant_control([x, 3.0, 3.0], problem.grid, prism)
            return problem.evaluate(u)[2]

        u0 = constant_control([4.5, 3.0, 3.0], problem.grid, prism)
        report = gpm_optimize(problem, u0)
        floor = max(cost_of_constant(3.0), cost_of_constant(6.0)) - 1.0e-9
        assert report.final_cost >= floor

    def test_against_exhaustive_bang_bang_enumeration(self):
        """10-interval 1-D problem: all 1024 bang-bang patterns enumerated.

        GPM is a local climber over a multimodal landscape, so it is held
        to the constant-vertex floor exactly and to the enumerated global
        optimum within relative 1e-5 (measured gap 2.9e-6: it converges to
        a neighboring stationary point of the same family).
        """
        steps = 10
        prism = Prism(
            lower=np.array([3.0, 3.0, 3.0]), upper=np.array([6.0, 3.0, 3.0])
        )
        problem = ControlProblem(
            assembly=build_model(p=1),
            basis=triplet_states(1),
            grid=TimeGrid(t_final=0.5, steps=steps),
            prism=prism,
            filter_cfg=FilterConfig(enabled=False),
        )

        def cost_of(xvals):
            values = np.tile([0.0, 3.0, 3.0], (steps, 1))
            values[:, 0] = xvals
            u = ControlSignal(values=values, bounds=prism)
            return problem.evaluate(u)[2]

        best = max(
            cost_of(np.array(bits))
            for bits in itertools.product((3.0, 6.0), repeat=steps)
        )
        u0 = constant_control([4.5, 3.0, 3.0], problem.grid, prism)
        report = gpm_optimize(problem, u0)
        floor = max(cost_of(np.full(steps, 3.0)), cost_of(np.full(steps, 6.0)))
        assert report.final_cost >= floor - 1.0e-9
        assert report.final_cost >= best * (1.0 - 1.0e-5)

    @pytest.mark.parametrize("case", ["gpm-converged", "gpm-maxiters"])
    def test_one_evaluate_per_iteration(self, monkeypatch, case):
        """One evaluate and one gradient per iterate u^0 .. u^n, the last
        one included, at either exit."""
        problem, u0, _, keywords, status = exit_run(case)
        calls = count_solves(monkeypatch)
        report = gpm_optimize(problem, u0, **keywords)
        assert report.status == status
        solves = report.iterations + 1
        assert calls == {"evaluate": solves, "gradient": solves}


class TestIpmp:
    def test_fig1_scenario_converges_bang_bang(self):
        problem = fig1_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        report = ipmp_optimize(problem, u0)
        assert report.status == STATUS_CONVERGED
        assert report.iterations <= 15
        assert len(report.cost_history) == report.iterations + 1
        values = report.final_control.values
        assert np.all((values == 3.0) | (values == 6.0))
        assert pmp_residual(report.final_switching, report.final_control) == 0.0

    def test_fixed_point_converges_in_one_iteration(self):
        problem = fig1_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        first = ipmp_optimize(problem, u0)
        again = ipmp_optimize(problem, first.final_control)
        assert again.status == STATUS_CONVERGED
        assert again.iterations == 1
        assert_allclose(again.final_control.values, first.final_control.values)

    def test_max_iters_status(self):
        problem = fig1_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        report = ipmp_optimize(problem, u0, max_iters=1)
        assert report.status == STATUS_MAX_ITERS
        assert report.iterations == 1
        assert len(report.cost_history) == 2

    def test_oscillation_detected_with_best_member(self):
        """Mixed-sign prism at gamma=10: period-2 cycle, tiny cost gap."""
        problem, u0 = cycling_problem()
        report = ipmp_optimize(problem, u0)
        assert report.status == STATUS_OSCILLATING
        assert report.cycle_members is not None
        assert len(report.cycle_members) == 2
        costs = [problem.evaluate(m)[2] for m in report.cycle_members]
        gap = abs(costs[0] - costs[1]) / max(costs)
        assert gap <= 1.0e-5
        assert report.final_cost == pytest.approx(max(costs), rel=1e-12)
        for member in report.cycle_members:
            assert np.all(
                (member.values == PRISM_MIXED.lower)
                | (member.values == PRISM_MIXED.upper)
            )

    def test_cycle_of_any_length_is_detected(self):
        """A sign rule that moves a pulse one interval on per sweep cycles
        with period 9; the candidate is checked against every earlier
        iterate, however far back."""
        steps = 9

        def phi_of(values):
            phi = -np.ones((steps, 3))
            phi[(np.argmax(values[:, 0]) + 1) % steps] = 1.0
            return phi

        start = np.full((steps, 3), 3.0)
        start[0] = 6.0
        u0 = ControlSignal(values=start, bounds=PRISM)
        report = ipmp_optimize(SignRuleProblem(PRISM, phi_of), u0)
        assert report.status == STATUS_OSCILLATING
        assert report.iterations == steps
        peaks = [int(np.argmax(m.values[:, 0])) for m in report.cycle_members]
        assert peaks == list(range(steps))
        assert report.final_cost == steps - 1.0

    def test_signed_zero_start_is_the_fixed_point(self):
        """-0.0 and 0.0 compare equal, so a start holding -0.0 where the
        fixed point holds 0.0 converges on the first sweep."""
        prism = Prism(lower=np.zeros(3), upper=np.ones(3))
        problem = SignRuleProblem(prism, lambda values: -np.ones(values.shape))
        u0 = ControlSignal(values=np.full((5, 3), -0.0), bounds=prism)
        report = ipmp_optimize(problem, u0)
        assert report.status == STATUS_CONVERGED
        assert report.iterations == 1
        assert report.final_control is u0

    @pytest.mark.parametrize("mixed", [False, True])
    def test_one_evaluate_per_iteration(self, monkeypatch, mixed):
        """Converged (fig. 1) and oscillating (prism case 2, gamma 10) runs
        evaluate and differentiate each iterate exactly once."""
        if mixed:
            problem, u0 = cycling_problem()
        else:
            problem = fig1_problem()
            u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        calls = count_solves(monkeypatch)
        report = ipmp_optimize(problem, u0)
        expected = STATUS_OSCILLATING if mixed else STATUS_CONVERGED
        assert report.status == expected
        assert calls == {"evaluate": report.iterations, "gradient": report.iterations}


@pytest.mark.parametrize("case", list(EXITS))
def test_report_matches_final_control(case):
    """At every exit the reported field, cost and switching signal are
    those of the reported control, bit for bit; an oscillating run reports
    its best cycle member from that member's own solve."""
    problem, u0, optimizer, keywords, status = exit_run(case)
    report = optimizer(problem, u0, **keywords)
    assert report.status == status
    fields, forward, cost = problem.evaluate(report.final_control)
    _, phi = problem.gradient(fields, forward)
    assert np.array_equal(report.final_field.node_values, fields.node_values)
    assert np.array_equal(report.final_field.midpoint_values, fields.midpoint_values)
    assert report.final_cost == cost
    assert np.array_equal(report.final_switching, phi)


@pytest.mark.parametrize("p", [1, 2])
def test_gpm_and_ipmp_agree(p):
    """Positive prism, gamma=1: the two methods land on the same control
    up to relative L2 0.05 and the same cost up to relative 1e-3."""
    problem = fig1_problem(p=p)
    u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
    gpm = gpm_optimize(problem, u0)
    ipmp = ipmp_optimize(problem, u0)
    assert ipmp.status == STATUS_CONVERGED
    h = problem.grid.h
    disc = control_norm(
        gpm.final_control.values - ipmp.final_control.values, h
    ) / control_norm(ipmp.final_control.values, h)
    rel_cost = abs(gpm.final_cost - ipmp.final_cost) / abs(ipmp.final_cost)
    assert disc <= 0.05
    assert rel_cost <= 1.0e-3


@pytest.mark.parametrize(
    "optimizer, keywords",
    [(ipmp_optimize, {}), (gpm_optimize, dict(max_iters=2))],
    ids=["ipmp", "gpm"],
)
def test_run_peaks_at_its_two_ensembles(optimizer, keywords):
    """At p = 4 on 200 steps a run holds its forward and adjoint ensembles
    (ensemble_bytes) and nothing else of their size: an adjoint kept from
    the last iterate through the next solve would read about 1.6x."""
    problem = fig1_problem(p=4)
    u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
    tracemalloc.start()
    try:
        optimizer(problem, u0, **keywords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ensemble_bytes(4, 200)
