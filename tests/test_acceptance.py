"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete.  Each criterion carries its own runtime budget; blowing the
budget fails the criterion even when the numbers are right.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from spinctrl.dynamics import (
    ControlSignal,
    FilterConfig,
    Prism,
    TimeGrid,
    constant_control,
    filter_field,
    integrate_adjoint,
    integrate_forward,
)
from spinctrl.experiments import (
    PRISM_CASE_1,
    PRISM_CASE_2,
    STUDY_VERTICES,
    ExperimentConfig,
    build_problem,
    compare_controls,
    gamma_sweep,
    uniqueness_study,
    yield_loss_table,
)
from spinctrl.model import build_model, triplet_states
from spinctrl.objective import (
    gradient_integrand,
    hp_integral,
    pmp_residual,
    singlet_yield,
    switching_function,
)
from spinctrl.optimize import (
    STATUS_CONVERGED,
    STATUS_OSCILLATING,
    ControlProblem,
    gpm_optimize,
    ipmp_optimize,
    synthesize_bang_bang,
)
from spinctrl.spin import build_spin_system

PRISM1 = Prism(lower=np.array(PRISM_CASE_1[0]), upper=np.array(PRISM_CASE_1[1]))
PRISM2 = Prism(lower=np.array(PRISM_CASE_2[0]), upper=np.array(PRISM_CASE_2[1]))


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(
            f"criterion {number:02d} {name}: FAIL "
            f"(runtime {elapsed:.1f}s > {budget_s:.0f}s budget)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s:.0f}s runtime budget"
        )
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.1f}s)")


def make_problem(p=1, steps=200, gamma=1.0, enabled=True, v0=(3.0, 3.0, 3.0),
                 prism=PRISM1):
    return ControlProblem(
        assembly=build_model(p=p),
        basis=triplet_states(p),
        grid=TimeGrid(t_final=0.5, steps=steps),
        prism=prism,
        filter_cfg=FilterConfig(gamma=gamma, v0=v0, enabled=enabled),
    )


def test_criterion_01_operator_algebra():
    with criterion(1, "operator-algebra", 10.0):
        for p in (1, 2, 3, 4):
            system = build_spin_system(p)
            eye = np.eye(system.dim)
            slots = (system.s1, system.s2) + system.nuclei
            for ops in slots:
                for a in range(3):
                    b, c = (a + 1) % 3, (a + 2) % 3
                    comm = ops[a] @ ops[b] - ops[b] @ ops[a]
                    assert np.max(np.abs(comm - 1j * ops[c])) <= 1.0e-12
            for i in range(len(slots)):
                for j in range(i + 1, len(slots)):
                    for a in range(3):
                        for b in range(3):
                            comm = (slots[i][a] @ slots[j][b]
                                    - slots[j][b] @ slots[i][a])
                            assert np.max(np.abs(comm)) <= 1.0e-12
            p_s = system.projector_singlet
            p_t = system.projector_triplet
            assert np.max(np.abs(p_s @ p_s - p_s)) <= 1.0e-12
            assert np.max(np.abs(p_t @ p_t - p_t)) <= 1.0e-12
            assert np.max(np.abs(p_s @ p_t)) <= 1.0e-12
            assert np.max(np.abs(p_s + p_t - eye)) <= 1.0e-12
            assert abs(np.trace(p_s).real - 2 ** p) <= 1.0e-9
            assert abs(np.trace(p_t).real - 3 * 2 ** p) <= 1.0e-9


def test_criterion_02_norm_decay_law():
    # random bang-bang fields, k_S = k_T = 10: every squared state norm
    # follows exp(-10 t) at the 201 coarse nodes to relative 1e-6
    with criterion(2, "norm-decay-law", 30.0):
        rng = np.random.default_rng(42)
        for p in (1, 2, 3):
            model = build_model(p=p)
            basis = triplet_states(p)
            grid = TimeGrid(t_final=0.5, steps=800)
            coarse = np.where(rng.random((200, 3)) < 0.5, 3.0, 6.0)
            u = ControlSignal(values=np.repeat(coarse, 4, axis=0), bounds=PRISM1)
            fields = filter_field(u, FilterConfig(enabled=False), grid)
            forward = integrate_forward(model, fields, basis, grid)
            norms = np.einsum(
                "tal,tal->tl", forward.states.conj(), forward.states
            ).real
            nodes = grid.nodes[::4]
            assert nodes.shape == (201,)
            expected = np.exp(-10.0 * nodes)[:, None]
            rel = np.abs(norms[::4] - expected) / expected
            assert rel.max() <= 1.0e-6


def test_criterion_03_propagator_oracle():
    with criterion(3, "propagator-oracle", 5.0):
        model = build_model(p=1)
        basis = triplet_states(1)
        grid = TimeGrid(t_final=0.5, steps=2000)
        u = constant_control([3.0, 3.0, 3.0], grid, PRISM1)
        fields = filter_field(u, FilterConfig(enabled=False), grid)
        forward = integrate_forward(model, fields, basis, grid)
        h_const = model.hamiltonian_at(np.array([0.003, 0.003, 0.003]))
        exact = expm(-1j * h_const * 0.5) @ basis
        assert np.max(np.abs(forward.states[-1] - exact)) <= 1.0e-8


def test_criterion_04_adjoint_gradient_vs_fd():
    with criterion(4, "adjoint-gradient-vs-fd", 180.0):
        rng = np.random.default_rng(314)
        grid = TimeGrid(t_final=0.5, steps=400)

        def evaluate(model, basis, uvals, cfg, with_gradient):
            u = ControlSignal(values=uvals, bounds=PRISM1)
            fields = filter_field(u, cfg, grid)
            forward = integrate_forward(model, fields, basis, grid)
            cost = singlet_yield(forward, model, grid)
            if not with_gradient:
                return cost, None
            adjoint = integrate_adjoint(model, fields, forward, grid)
            phi = switching_function(forward, adjoint, model, cfg, grid)
            return cost, 0.5 * (phi[:-1] + phi[1:])

        for p in (1, 2):
            model = build_model(p=p)
            basis = triplet_states(p)
            for cfg in (
                FilterConfig(gamma=1.0, v0=(3.0, 3.0, 3.0)),
                FilterConfig(gamma=10.0, v0=(3.0, 3.0, 3.0)),
                FilterConfig(enabled=False),
            ):
                base = rng.uniform(3.6, 5.4, (grid.steps, 3))
                _, g = evaluate(model, basis, base, cfg, True)
                g_norm = np.sqrt(grid.h * np.sum(g * g))
                for _ in range(10):
                    while True:
                        d = rng.uniform(-1.0, 1.0, (grid.steps, 3))
                        d /= np.sqrt(grid.h * np.sum(d * d))
                        predicted = grid.h * np.sum(g * d)
                        if abs(predicted) >= 0.05 * g_norm:
                            break
                    eps = 3.0e-4 * 3.0  # ~1e-4 of the prism width in the
                    # L2 metric, since ||d||_h = 1
                    plus, _ = evaluate(model, basis, base + eps * d, cfg, False)
                    minus, _ = evaluate(model, basis, base - eps * d, cfg, False)
                    fd = (plus - minus) / (2.0 * eps)
                    assert abs(fd - predicted) / abs(fd) <= 1.0e-3


def test_criterion_05_switching_function_oracle():
    # O(steps) backward recursion vs adaptive quadrature of the filter
    # kernel against linearly interpolated gradient density
    with criterion(5, "switching-oracle", 1.0):
        gamma = 2.0
        problem = make_problem(steps=8, gamma=gamma)
        rng = np.random.default_rng(11)
        u = ControlSignal(values=rng.uniform(3.0, 6.0, (8, 3)), bounds=PRISM1)
        fields, forward, _ = problem.evaluate(u)
        adjoint, phi = problem.gradient(fields, forward)
        m = gradient_integrand(forward, adjoint, problem.assembly)
        nodes = problem.grid.nodes
        for i in range(3):
            for k in range(9):
                tail, _ = quad(
                    lambda tau: np.interp(tau, nodes, m[:, i])
                    * np.exp(gamma * (nodes[k] - tau)),
                    nodes[k],
                    nodes[-1],
                    epsabs=1e-13,
                    epsrel=1e-13,
                    limit=200,
                )
                assert abs(gamma * tail - phi[k, i]) <= 1.0e-10


def test_criterion_06_pmp_certificate():
    with criterion(6, "pmp-certificate", 60.0):
        problem = make_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM1)
        report = ipmp_optimize(problem, u0)
        assert report.status == STATUS_CONVERGED
        assert pmp_residual(report.final_switching, report.final_control) == 0.0
        best = hp_integral(
            report.final_switching, report.final_control, problem.grid
        )
        rng = np.random.default_rng(99)
        for _ in range(100):
            random_u = ControlSignal(
                values=rng.uniform(3.0, 6.0, (problem.grid.steps, 3)),
                bounds=PRISM1,
            )
            assert best > hp_integral(
                report.final_switching, random_u, problem.grid
            )


def test_criterion_07_bang_bang_codomain():
    # every synthesized iterate sits exactly on the prism faces, both for
    # all-positive bounds and for the sign-changing z bound
    with criterion(7, "bang-bang-codomain", 60.0):
        for prism in (PRISM1, PRISM2):
            problem = make_problem(prism=prism)
            u = constant_control(prism.lower, problem.grid, prism)
            for _ in range(6):
                fields, forward, _ = problem.evaluate(u)
                _, phi = problem.gradient(fields, forward)
                u = synthesize_bang_bang(phi, prism, u)
                lo = np.broadcast_to(prism.lower, u.values.shape)
                hi = np.broadcast_to(prism.upper, u.values.shape)
                assert np.all((u.values == lo) | (u.values == hi))
            report = ipmp_optimize(problem, u)
            lo = np.broadcast_to(prism.lower, report.final_control.values.shape)
            hi = np.broadcast_to(prism.upper, report.final_control.values.shape)
            final = report.final_control.values
            assert np.all((final == lo) | (final == hi))


def test_criterion_08_two_method_agreement():
    with criterion(8, "two-method-agreement", 120.0):
        problem = make_problem()
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM1)
        ipmp = ipmp_optimize(problem, u0)
        assert ipmp.status == STATUS_CONVERGED
        assert ipmp.iterations <= 15
        gpm = gpm_optimize(problem, u0, step_scale=12.0)
        assert gpm.status == STATUS_CONVERGED
        assert gpm.iterations <= 60
        cmp = compare_controls(
            ipmp.final_control.values,
            gpm.final_control.values,
            ipmp.final_cost,
            gpm.final_cost,
            problem.grid.h,
        )
        assert cmp.rel_cost <= 1.0e-3
        assert cmp.rel_ctrl <= 0.05


def test_criterion_09_gamma_asymptotics():
    with criterion(9, "gamma-asymptotics", 600.0):
        config = ExperimentConfig(v0="matched")
        _, rows = gamma_sweep(config)
        assert [row.gamma for row in rows[:-1]] == list(config.gammas)
        costs = [row.cost for row in rows[:-1]]
        baseline = rows[-1]
        assert baseline.gamma is None
        for earlier, later in zip(costs, costs[1:]):
            assert later >= earlier - 1.0e-6
        assert abs(baseline.cost - costs[-1]) <= 0.01 * baseline.cost


def test_criterion_10_yield_loss_bound():
    with criterion(10, "yield-loss-bound", 1800.0):
        config = ExperimentConfig(p_max=3)
        rows, summary = yield_loss_table(config)
        assert len(rows) == 3 * 3 * len(config.gammas)
        assert len(summary) == 9
        for row in rows:
            assert row.j_filtered >= 0.0 and row.j_nofilter >= 0.0
            assert row.loss_percent <= 1.5


def test_criterion_11_uniqueness_regularization():
    with criterion(11, "uniqueness-regularization", 1200.0):
        base = ExperimentConfig(
            prism_lower=PRISM_CASE_2[0],
            prism_upper=PRISM_CASE_2[1],
            v0=(0.0, 0.0, 0.0),
        )

        # gamma = 1: for either filter seed, every one of the 54 starts
        # lands on the same bang-bang control, exactly
        for v0 in STUDY_VERTICES:
            unique = uniqueness_study(replace(base, gamma=1.0, v0=v0))
            assert unique.classification == "Unique"
            assert unique.max_pairwise_ctrl == 0.0
            assert unique.max_pairwise_cost == 0.0
            shared = unique.reports[0].final_control.values
            lo = np.broadcast_to(PRISM2.lower, shared.shape)
            hi = np.broadcast_to(PRISM2.upper, shared.shape)
            assert np.all((shared == lo) | (shared == hi))

        # no filter: the two grid families settle on two distinct optima
        # of nearly equal cost
        nofilter = uniqueness_study(replace(base, filter_enabled=False))
        assert nofilter.family_split.rel_ctrl >= 0.2
        assert nofilter.family_split.rel_cost <= 1.0e-3

        # gamma = 10: the fast filter inherits the degeneracy; every start
        # oscillates on a period-2 cycle of near-equal costs
        for v0 in STUDY_VERTICES:
            run_cfg = replace(base, gamma=10.0, v0=v0)
            oscillating = uniqueness_study(run_cfg)
            assert oscillating.classification == "Oscillating"
            problem = build_problem(run_cfg)
            for report in oscillating.reports:
                assert report.status == STATUS_OSCILLATING
                assert len(report.cycle_members) == 2
                costs = [
                    problem.evaluate(member)[2]
                    for member in report.cycle_members
                ]
                gap = abs(costs[0] - costs[1]) / max(costs)
                assert gap <= 1.0e-4


def test_criterion_12_cost_grid_refinement():
    # the same physical bang-bang control on successively halved grids:
    # successive cost differences shrink by >= 3.5x per halving
    with criterion(12, "cost-grid-refinement", 60.0):
        model = build_model(p=1)
        basis = triplet_states(1)
        rng = np.random.default_rng(7)
        coarse = np.where(rng.random((50, 3)) < 0.5, 3.0, 6.0)
        costs = []
        for factor in (1, 2, 4, 8):
            grid = TimeGrid(t_final=0.5, steps=50 * factor)
            u = ControlSignal(
                values=np.repeat(coarse, factor, axis=0), bounds=PRISM1
            )
            fields = filter_field(
                u, FilterConfig(gamma=1.0, v0=(3.0, 3.0, 3.0)), grid
            )
            forward = integrate_forward(model, fields, basis, grid)
            costs.append(singlet_yield(forward, model, grid))
        diffs = [abs(a - b) for a, b in zip(costs, costs[1:])]
        assert diffs[0] / diffs[1] >= 3.5
        assert diffs[1] / diffs[2] >= 3.5
