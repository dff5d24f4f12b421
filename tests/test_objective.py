import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from spinctrl import dynamics, objective
from spinctrl.dynamics import (
    ControlSignal,
    FilterConfig,
    Prism,
    StateEnsemble,
    TimeGrid,
    constant_control,
    filter_field,
    integrate_adjoint,
    integrate_forward,
)
from spinctrl.model import MT_PER_UT, build_model, triplet_states
from spinctrl.objective import (
    gradient_integrand,
    hp_integral,
    pmp_residual,
    singlet_populations,
    singlet_yield,
    switching_function,
    trapezoid_weights,
)
from spinctrl.optimize import ipmp_optimize, ControlProblem

PRISM = Prism(lower=np.full(3, 3.0), upper=np.full(3, 6.0))


def make_problem(p=1, steps=200, gamma=1.0, enabled=True, v0=(3.0, 3.0, 3.0)):
    model = build_model(p=p)
    basis = triplet_states(p)
    grid = TimeGrid(t_final=0.5, steps=steps)
    cfg = FilterConfig(gamma=gamma, v0=np.asarray(v0, float), enabled=enabled)
    return ControlProblem(
        assembly=model, basis=basis, grid=grid, prism=PRISM, filter_cfg=cfg
    )


def test_trapezoid_weights():
    w = trapezoid_weights(5, 0.25)
    assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert w.sum() == pytest.approx(1.0)


class TestSingletYield:
    def test_zero_ensemble(self):
        model = build_model(p=1)
        grid = TimeGrid(t_final=0.5, steps=10)
        forward = StateEnsemble(states=np.zeros((11, 8, 6), complex))
        assert singlet_yield(forward, model, grid) == 0.0

    def test_constant_singlet_state_five_twelfths(self):
        """Frozen unit singlet vector, count 1, p=1: J = 10 * 0.5 / 12.

        The integrand is exactly 1 at every node, the trapezoid rule is
        exact for constants, so the value is pure prefactor arithmetic.
        """
        model = build_model(p=1)
        grid = TimeGrid(t_final=0.5, steps=40)
        singlet = np.zeros(8, dtype=complex)
        singlet[2] = 1.0 / np.sqrt(2.0)
        singlet[4] = -1.0 / np.sqrt(2.0)
        states = np.tile(singlet[None, :, None], (41, 1, 1))
        forward = StateEnsemble(states=states)
        assert singlet_yield(forward, model, grid) == pytest.approx(
            5.0 / 12.0, rel=1e-12
        )

    def test_matrix_exponential_oracle(self):
        """J from RK4 vs the same integral over exact propagator states.

        The oracle builds e^{-iHt} by eigendecomposition of the constant
        non-Hermitian H and applies the identical trapezoid rule; a
        Richardson refinement of the oracle pins the continuum value.
        Both comparisons must hold to relative 1e-6.
        """
        problem = make_problem(steps=200, enabled=False)
        model = problem.assembly
        basis = problem.basis
        u = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        _, _, j_rk4 = problem.evaluate(u)

        h_const = model.hamiltonian_at(np.array([0.003, 0.003, 0.003]))
        evals, vecs = np.linalg.eig(h_const)
        vinv = np.linalg.inv(vecs)

        def j_exact_trap(steps):
            grid = TimeGrid(t_final=0.5, steps=steps)
            phases = np.exp(-1j * np.outer(grid.nodes, evals))
            states = np.einsum(
                "ab,tb,bl->tal", vecs, phases, vinv @ basis
            )
            pops = np.einsum(
                "tal,ab,tbl->t",
                states.conj(),
                model.projector_singlet,
                states,
            ).real
            w = trapezoid_weights(steps + 1, grid.h)
            return 10.0 / 12.0 * np.dot(w, pops)

        same_grid = j_exact_trap(200)
        refined = (4.0 * j_exact_trap(1600) - j_exact_trap(800)) / 3.0
        assert j_rk4 == pytest.approx(same_grid, rel=1e-6)
        assert j_rk4 == pytest.approx(refined, rel=1e-6)

    def test_nonnegative_and_crude_bound(self):
        """0 <= J <= k_S T count / (3 2^{p+1}) for random feasible fields."""
        rng = np.random.default_rng(13)
        for p in (1, 2):
            problem = make_problem(p=p, steps=100)
            cap = 10.0 * 0.5 * problem.basis.shape[1] / (3.0 * 2 ** (p + 1))
            for _ in range(2):
                u = ControlSignal(
                    values=rng.uniform(3.0, 6.0, (100, 3)), bounds=PRISM
                )
                _, _, cost = problem.evaluate(u)
                assert 0.0 <= cost <= cap


class TestSwitchingFunction:
    def test_zero_adjoint_gives_zero_phi(self):
        problem = make_problem(steps=50)
        u = constant_control([4.0, 4.0, 4.0], problem.grid, PRISM)
        fields, forward, _ = problem.evaluate(u)
        silent = StateEnsemble(states=np.zeros_like(forward.states))
        phi = switching_function(
            forward, silent, problem.assembly, problem.filter_cfg, problem.grid
        )
        assert np.max(np.abs(phi)) == 0.0

    def test_terminal_value_is_exact_zero_when_filtered(self):
        problem = make_problem(steps=50, gamma=5.0)
        u = constant_control([5.0, 4.0, 3.0], problem.grid, PRISM)
        fields, forward, _ = problem.evaluate(u)
        _, phi = problem.gradient(fields, forward)
        assert np.max(np.abs(phi[-1])) == 0.0

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 10.0, 1.0e-9])
    def test_recursion_matches_vector_loop(self, monkeypatch, gamma):
        """The Python-float backward recursion equals the numpy 3-vector
        loop bit for bit."""
        rng = np.random.default_rng(9)
        m = rng.standard_normal((31, 3)) * 10.0 ** rng.integers(-6, 3, (31, 3))
        monkeypatch.setattr(objective, "gradient_integrand", lambda *args: m)
        grid = TimeGrid(t_final=0.5, steps=30)
        a, b = objective._kernel_coefficients(gamma * grid.h)
        decay = np.exp(-gamma * grid.h)
        w = np.zeros_like(m)
        for k in range(29, -1, -1):
            w[k] = decay * w[k + 1] + a * m[k] + b * m[k + 1]
        phi = switching_function(None, None, None, FilterConfig(gamma=gamma), grid)
        assert np.array_equal(phi, w)

    def test_no_filter_returns_integrand(self):
        problem = make_problem(steps=50, enabled=False)
        u = constant_control([5.0, 4.0, 3.0], problem.grid, PRISM)
        fields, forward, _ = problem.evaluate(u)
        adjoint, phi = problem.gradient(fields, forward)
        m = gradient_integrand(forward, adjoint, problem.assembly)
        assert_allclose(phi, m, atol=0)

    def test_backward_recursion_vs_brute_force_quadrature(self):
        """8-step grid: the O(steps) recursion must match direct adaptive
        quadrature of gamma int_t^T m(tau) e^{gamma (t-tau)} dtau with m
        interpolated linearly, to 1e-10."""
        gamma = 2.0
        problem = make_problem(steps=8, gamma=gamma)
        rng = np.random.default_rng(3)
        u = ControlSignal(values=rng.uniform(3.0, 6.0, (8, 3)), bounds=PRISM)
        fields, forward, _ = problem.evaluate(u)
        adjoint, phi = problem.gradient(fields, forward)
        m = gradient_integrand(forward, adjoint, problem.assembly)
        nodes = problem.grid.nodes
        t_final = nodes[-1]
        for i in range(3):
            def m_lin(tau, comp=i):
                return np.interp(tau, nodes, m[:, comp])

            for k in range(9):
                tail, _ = quad(
                    lambda tau: m_lin(tau) * np.exp(gamma * (nodes[k] - tau)),
                    nodes[k],
                    t_final,
                    epsabs=1e-13,
                    epsrel=1e-13,
                    limit=200,
                )
                assert abs(gamma * tail - phi[k, i]) <= 1.0e-10


def solved_states(p, steps=40, enabled=True):
    """Forward and adjoint ensembles of a random feasible control."""
    problem = make_problem(p=p, steps=steps, gamma=4.0, enabled=enabled)
    rng = np.random.default_rng(p)
    u = ControlSignal(values=rng.uniform(3.0, 6.0, (steps, 3)), bounds=PRISM)
    fields, forward, _ = problem.evaluate(u)
    adjoint, _ = problem.gradient(fields, forward)
    return problem.assembly, forward, adjoint


class TestBlockedContractions:
    """Populations and m are matmuls over blocks of nodes; they must agree
    with the whole-trajectory einsum and not depend on the block size."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_match_einsum_reference(self, p, enabled):
        model, forward, adjoint = solved_states(p, enabled=enabled)
        psi, chi = forward.states, adjoint.states
        proj = np.einsum("ab,tbl->tal", model.projector_singlet, psi)
        pops = np.einsum("tal,tal->t", psi.conj(), proj).real
        scale = MT_PER_UT / (3.0 * 2 ** (p - 1))
        m = np.empty((psi.shape[0], 3))
        for i, z in enumerate(model.zeeman):
            zpsi = np.einsum("ab,tbl->tal", z, psi)
            m[:, i] = scale * np.einsum("tal,tal->t", chi.conj(), zpsi).imag
        assert_allclose(singlet_populations(forward, model), pops, rtol=1e-14)
        got = gradient_integrand(forward, adjoint, model)
        assert np.max(np.abs(got - m)) <= 1e-14 * np.max(np.abs(m))

    @pytest.mark.parametrize("p", [1, 2])
    def test_independent_of_block_size(self, monkeypatch, p):
        model, forward, adjoint = solved_states(p, steps=49)
        node_bytes = forward.states[0].nbytes
        results = []
        # one node per block; 3 nodes for m (its rows are the three Z psi,
        # 3 x node_bytes) and 9 for the populations; the whole grid
        for block_bytes in (1, 9 * node_bytes, 1 << 40):
            monkeypatch.setattr(dynamics, "BLOCK_BYTES", block_bytes)
            results.append(
                (
                    singlet_populations(forward, model),
                    gradient_integrand(forward, adjoint, model),
                )
            )
        for pops, m in results[1:]:
            assert np.array_equal(pops, results[0][0])
            assert np.array_equal(m, results[0][1])

    def test_gradient_memory_stays_within_blocks(self):
        """At p = 4 on 200 steps the whole-trajectory einsum held two
        temporaries the size of an ensemble (about 19 MB); blocked, the
        transients stay within a few blocks."""
        model = build_model(p=4)
        rng = np.random.default_rng(2)
        shape = (201, model.dim, 48)
        forward = StateEnsemble(states=rng.standard_normal(shape) + 0j)
        adjoint = StateEnsemble(states=1j * rng.standard_normal(shape))
        tracemalloc.start()
        try:
            gradient_integrand(forward, adjoint, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * dynamics.BLOCK_BYTES


class TestHpDensity:
    def test_zero_phi(self):
        grid = TimeGrid(t_final=1.0, steps=4)
        phi = np.zeros((5, 3))
        u = constant_control([4.0, 4.0, 4.0], grid, PRISM)
        assert hp_integral(phi, u, grid) == 0.0

    def test_sign_vertex_maximizes_pointwise(self):
        """int phi . u dt is linear in each interval's u, with the
        interval-averaged phi as its coefficient, so the vertex that average
        selects by sign dominates every other prism point."""
        rng = np.random.default_rng(8)
        grid = TimeGrid(t_final=1.0, steps=6)
        phi = rng.standard_normal((7, 3))
        avg = 0.5 * (phi[:-1] + phi[1:])
        best = ControlSignal(
            values=np.where(avg > 0, PRISM.upper, PRISM.lower), bounds=PRISM
        )
        best_integral = hp_integral(phi, best, grid)
        for _ in range(50):
            u = ControlSignal(
                values=rng.uniform(3.0, 6.0, (6, 3)), bounds=PRISM
            )
            assert hp_integral(phi, u, grid) <= best_integral + 1e-12

    def test_hp_integral_hand_case(self):
        """Two intervals, hand-computed trapezoid-in-phi integral."""
        grid = TimeGrid(t_final=1.0, steps=2)
        phi = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        u = ControlSignal(
            values=np.array([[4.0, 3.0, 3.0], [6.0, 3.0, 3.0]]), bounds=PRISM
        )
        # interval averages of phi_x: 2 and 4; h = 0.5
        expected = 0.5 * (2.0 * 4.0 + 4.0 * 6.0)
        assert hp_integral(phi, u, grid) == pytest.approx(expected, rel=1e-14)


class TestPmpResidual:
    def test_synthesized_control_has_zero_residual(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((11, 3))
        values = np.where(phi[:-1] > 0, PRISM.upper, PRISM.lower)
        u = ControlSignal(values=values, bounds=PRISM)
        assert pmp_residual(phi, u) == 0.0

    def test_anti_optimal_vertex_scores_one(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((11, 3))
        phi[np.abs(phi) < 0.1] = 0.5  # keep everything decided
        values = np.where(phi[:-1] > 0, PRISM.lower, PRISM.upper)
        u = ControlSignal(values=values, bounds=PRISM)
        assert pmp_residual(phi, u) == 1.0

    def test_undecided_everywhere_returns_zero(self):
        grid = TimeGrid(t_final=1.0, steps=4)
        phi = np.zeros((5, 3))
        u = constant_control([4.0, 4.0, 4.0], grid, PRISM)
        assert pmp_residual(phi, u) == 0.0

    def test_converged_ipmp_run_is_pmp_consistent(self):
        """End-to-end: a Converged bang-bang control violates the sign rule
        nowhere outside the dead band."""
        problem = make_problem(steps=200, gamma=1.0)
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        report = ipmp_optimize(problem, u0)
        assert report.status == "Converged"
        assert pmp_residual(report.final_switching, report.final_control) == 0.0
