import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from spinctrl import dynamics
from spinctrl.dynamics import (
    ControlSignal,
    FilterConfig,
    IntegrationOverflow,
    Prism,
    TimeGrid,
    constant_control,
    filter_field,
    integrate_adjoint,
    integrate_forward,
)
from spinctrl.model import MT_PER_UT, build_model, triplet_states
from spinctrl.objective import singlet_yield, switching_function
from spinctrl.optimize import ControlProblem, ipmp_optimize

PRISM = Prism(lower=np.array([3.0, 3.0, 3.0]), upper=np.array([6.0, 6.0, 6.0]))
WIDE = Prism(lower=np.full(3, -1.0e7), upper=np.full(3, 1.0e7))


def make_grid(steps=200):
    return TimeGrid(t_final=0.5, steps=steps)


def stage_fields(fields):
    """(left, mid, right) field samples (mT) of every RK4 step, read back
    from dynamics._stage_generators through unit generators Z_i = e_i^T."""
    unit = np.eye(3).reshape(3, 1, 3)
    stages = dynamics._stage_generators(0.0, unit, fields, 0, fields.steps)
    return [stage[:, 0, :] for stage in stages]


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(t_final=0.5, steps=200)
        assert grid.h == pytest.approx(0.0025)
        nodes = grid.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(0.5)
        assert len(nodes) == 201

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_final=0.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(t_final=1.0, steps=0)


class TestPrism:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Prism(lower=np.array([1.0, 0.0, 0.0]), upper=np.zeros(3))

    def test_contains_and_clip(self):
        prism = Prism(lower=np.array([3.0, 3.0, -1.0]), upper=np.array([6.0, 6.0, 2.0]))
        assert prism.contains([4.0, 5.0, 0.0])
        assert not prism.contains([4.0, 5.0, 3.0])
        assert_allclose(prism.clip([2.0, 7.0, 4.0]), [3.0, 6.0, 2.0])
        assert_allclose(prism.width, [3.0, 3.0, 3.0])


class TestControlSignal:
    def test_values_must_stay_inside(self):
        grid = make_grid(4)
        with pytest.raises(ValueError):
            constant_control([7.0, 4.0, 4.0], grid, PRISM)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ControlSignal(values=np.zeros((4, 2)), bounds=PRISM)


class TestFilterConfig:
    def test_gamma_must_be_positive_when_enabled(self):
        with pytest.raises(ValueError):
            FilterConfig(gamma=0.0)

    def test_gamma_ignored_when_disabled(self):
        cfg = FilterConfig(gamma=-5.0, enabled=False)
        assert not cfg.enabled


class TestFilterField:
    def test_fixed_point(self):
        """u identical to v0 is a fixed point of the filter ODE."""
        grid = make_grid(50)
        u = constant_control([4.0, 5.0, 3.5], grid, PRISM)
        cfg = FilterConfig(gamma=2.0, v0=np.array([4.0, 5.0, 3.5]))
        fields = filter_field(u, cfg, grid)
        assert_allclose(fields.node_values, np.tile(u.values[0], (51, 1)), atol=1e-14)
        assert_allclose(fields.midpoint_values, u.values, atol=1e-14)

    def test_closed_form_constant_control(self):
        """v(t) = u + (v0 - u) e^{-gamma t} for constant u."""
        grid = make_grid(80)
        u = constant_control([6.0, 6.0, 6.0], grid, PRISM)
        cfg = FilterConfig(gamma=3.0, v0=np.array([3.0, 3.0, 3.0]))
        fields = filter_field(u, cfg, grid)
        t = grid.nodes[:, None]
        expected = 6.0 + (3.0 - 6.0) * np.exp(-3.0 * t)
        assert_allclose(fields.node_values, np.tile(expected, (1, 3)), atol=1e-12)
        t_mid = (grid.nodes[:-1] + 0.5 * grid.h)[:, None]
        expected_mid = 6.0 + (3.0 - 6.0) * np.exp(-3.0 * t_mid)
        assert_allclose(fields.midpoint_values, np.tile(expected_mid, (1, 3)), atol=1e-12)

    def test_large_gamma_bound(self):
        """gamma = 60 at t = 0.25: the field has closed on u to e^-15."""
        grid = make_grid(200)
        u = constant_control([6.0, 6.0, 6.0], grid, PRISM)
        cfg = FilterConfig(gamma=60.0, v0=np.array([3.0, 3.0, 3.0]))
        fields = filter_field(u, cfg, grid)
        k = 100  # node at t = 0.25
        gap = np.max(np.abs(fields.node_values[k] - 6.0))
        assert gap <= 3.0 * np.exp(-15.0) * (1.0 + 1e-12)

    def test_no_filter_returns_control(self):
        grid = make_grid(10)
        rng = np.random.default_rng(0)
        u = ControlSignal(values=rng.uniform(3.0, 6.0, (10, 3)), bounds=PRISM)
        fields = filter_field(u, FilterConfig(enabled=False), grid)
        assert fields.piecewise_constant
        left, mid, right = stage_fields(fields)
        assert_allclose(left, u.values * MT_PER_UT, rtol=0, atol=0)
        assert_allclose(mid, u.values * MT_PER_UT, rtol=0, atol=0)
        assert_allclose(right, u.values * MT_PER_UT, rtol=0, atol=0)

    def test_filtered_stage_values_are_node_samples(self):
        grid = make_grid(10)
        u = constant_control([5.0, 5.0, 5.0], grid, PRISM)
        fields = filter_field(u, FilterConfig(gamma=1.0), grid)
        left, mid, right = stage_fields(fields)
        nodes = fields.node_values * MT_PER_UT
        assert_allclose(left, nodes[:-1], rtol=0, atol=0)
        assert_allclose(right, nodes[1:], rtol=0, atol=0)
        assert_allclose(mid, fields.midpoint_values * MT_PER_UT, rtol=0, atol=0)

    def test_consistency_with_filter_ode(self):
        """Forward differences reproduce dv/dt = gamma (u - v) to O(h^2).

        The residual of (v_{k+1} - v_k)/h against the midpoint right-hand
        side is gamma^3 h^2 / 24 times the offset, exactly, for the exact
        per-interval solution; check the bound and the h^2 decay.
        """
        rng = np.random.default_rng(42)
        gamma = 10.0

        def residual(steps):
            grid = make_grid(steps)
            u = ControlSignal(
                values=rng.uniform(3.0, 6.0, (steps, 3)), bounds=PRISM
            )
            cfg = FilterConfig(gamma=gamma, v0=np.array([3.0, 3.0, 3.0]))
            fields = filter_field(u, cfg, grid)
            ode_rate = gamma * (u.values - fields.midpoint_values)
            diff = (fields.node_values[1:] - fields.node_values[:-1]) / grid.h
            return np.max(np.abs(diff - ode_rate)), grid.h

        r1, h1 = residual(200)
        r2, _ = residual(400)
        offset_cap = 3.0  # |v - u| never exceeds the prism width here
        assert r1 <= gamma ** 3 * h1 ** 2 / 24.0 * offset_cap * 1.1
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 10.0, 1.0e-9])
    def test_matches_vector_recursion(self, gamma):
        """The Python-float recursion equals the numpy 3-vector loop bit
        for bit."""
        grid = make_grid(60)
        rng = np.random.default_rng(6)
        u = ControlSignal(values=rng.uniform(3.0, 6.0, (60, 3)), bounds=PRISM)
        cfg = FilterConfig(gamma=gamma, v0=np.array([3.5, 4.25, 5.75]))
        decay_full = np.exp(-gamma * grid.h)
        decay_half = np.exp(-gamma * grid.h / 2.0)
        nodes = np.empty((61, 3))
        mids = np.empty((60, 3))
        v = nodes[0] = cfg.v0
        for k in range(60):
            offset = v - u.values[k]
            mids[k] = u.values[k] + offset * decay_half
            v = nodes[k + 1] = u.values[k] + offset * decay_full
        fields = filter_field(u, cfg, grid)
        assert np.array_equal(fields.node_values, nodes)
        assert np.array_equal(fields.midpoint_values, mids)

    def test_grid_mismatch_rejected(self):
        grid = make_grid(10)
        u = constant_control([4.0, 4.0, 4.0], make_grid(20), PRISM)
        with pytest.raises(ValueError):
            filter_field(u, FilterConfig(), grid)


class TestIntegrateForward:
    def test_zero_hamiltonian_keeps_state(self):
        """H = 0 (zero field, zero hyperfine, zero decay): psi constant."""
        model = build_model(
            p=1, k_singlet=0.0, k_triplet=0.0, hyperfine=np.zeros((1, 3))
        )
        basis = triplet_states(1)
        grid = make_grid(50)
        zero_prism = Prism(lower=np.zeros(3), upper=np.zeros(3))
        u = constant_control([0.0, 0.0, 0.0], grid, zero_prism)
        fields = filter_field(u, FilterConfig(enabled=False), grid)
        forward = integrate_forward(model, fields, basis, grid)
        for k in (0, 25, 50):
            assert_allclose(forward.states[k], basis, atol=1e-14)

    def test_initial_condition_stored(self):
        model = build_model(p=1)
        basis = triplet_states(1)
        grid = make_grid(20)
        u = constant_control([3.0, 3.0, 3.0], grid, PRISM)
        fields = filter_field(u, FilterConfig(), grid)
        forward = integrate_forward(model, fields, basis, grid)
        assert forward.states.shape[0] == 21
        assert_allclose(forward.states[0], basis, atol=0)

    def test_exponential_norm_law(self):
        """With k_S = k_T = k the squared norms decay exactly like e^{-kt}.

        The law is exact for the ODE; RK4 at 200 steps sits just above the
        1e-6 relative target (about 2e-6), so the invariant is checked on
        the twice-refined grid where fourth-order error has dropped 16x.
        """
        model = build_model(p=1)
        basis = triplet_states(1)
        grid = make_grid(400)
        u = constant_control([6.0, 4.0, 5.0], grid, PRISM)
        fields = filter_field(u, FilterConfig(gamma=1.0), grid)
        forward = integrate_forward(model, fields, basis, grid)
        norms_sq = np.einsum("tal,tal->tl", forward.states.conj(), forward.states).real
        expected = np.exp(-10.0 * grid.nodes)[:, None]
        rel = np.abs(norms_sq - expected) / expected
        assert np.max(rel) <= 1.0e-6

    def test_unitarity_at_zero_decay(self):
        """k = 0 keeps norms at 1 up to the RK4 truncation floor.

        Observed drift at the default 200 steps is about 6e-8; assert a 1e-7
        ceiling and at least fourth-order decay under halving.  The norm
        drift itself superconverges at fifth order (|R(i theta)| differs
        from 1 only at theta^6), so the ratio lands near 32, well above
        the h^4 floor of 12 asserted here.
        """
        model = build_model(p=1, k_singlet=0.0, k_triplet=0.0)
        basis = triplet_states(1)

        def drift(steps):
            grid = make_grid(steps)
            u = constant_control([6.0, 6.0, 6.0], grid, PRISM)
            fields = filter_field(u, FilterConfig(gamma=1.0), grid)
            forward = integrate_forward(model, fields, basis, grid)
            norms = np.linalg.norm(forward.states, axis=1)
            return np.max(np.abs(norms - 1.0))

        d200 = drift(200)
        d400 = drift(400)
        assert d200 <= 1.0e-7
        assert d200 / d400 >= 12.0

    def test_matrix_exponential_oracle(self):
        """Constant field: RK4 endpoint vs expm(-i H T) psi0, 1e-8/component."""
        model = build_model(p=1)
        basis = triplet_states(1)
        grid = make_grid(2000)
        u = constant_control([3.0, 3.0, 3.0], grid, PRISM)
        fields = filter_field(u, FilterConfig(enabled=False), grid)
        forward = integrate_forward(model, fields, basis, grid)
        h_const = model.hamiltonian_at(np.array([0.003, 0.003, 0.003]))
        propagator = expm(-1j * h_const * 0.5)
        exact = propagator @ basis
        assert np.max(np.abs(forward.states[-1] - exact)) <= 1.0e-8

    def test_grid_refinement_fourth_order(self):
        """Doubling steps shrinks the endpoint error ~16x (accept 12..20)."""
        model = build_model(p=1)
        basis = triplet_states(1)
        rng = np.random.default_rng(9)
        coarse = ControlSignal(
            values=rng.uniform(3.0, 6.0, (50, 3)), bounds=PRISM
        )

        def endpoint(factor):
            steps = 50 * factor
            grid = make_grid(steps)
            values = np.repeat(coarse.values, factor, axis=0)
            u = ControlSignal(values=values, bounds=PRISM)
            fields = filter_field(u, FilterConfig(gamma=1.0), grid)
            return integrate_forward(model, fields, basis, grid).states[-1]

        s1, s2, s4 = endpoint(1), endpoint(2), endpoint(4)
        d12 = np.max(np.abs(s1 - s2))
        d24 = np.max(np.abs(s2 - s4))
        assert 12.0 <= d12 / d24 <= 20.0

    def test_overflow_aborts(self):
        """A wildly mis-scaled field blows RK4 up; the guard must trip."""
        model = build_model(p=1)
        basis = triplet_states(1)
        grid = make_grid(200)
        u = constant_control([1.0e6, 1.0e6, 1.0e6], grid, WIDE)
        fields = filter_field(u, FilterConfig(enabled=False), grid)
        with pytest.raises(IntegrationOverflow):
            integrate_forward(model, fields, basis, grid)

    def test_coarse_grid_aborts(self):
        """Four steps make RK4 unstable at p = 1 for a field inside the
        prism: the largest amplitude stays near 13, far under
        OVERFLOW_LIMIT, but the norms grow, which the dynamics never do."""
        model = build_model(p=1)
        grid = make_grid(4)
        u = constant_control([3.0, 3.0, 3.0], grid, PRISM)
        fields = filter_field(u, FilterConfig(), grid)
        with pytest.raises(IntegrationOverflow, match="at t=0.125000 us"):
            integrate_forward(model, fields, triplet_states(1), grid)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_guard_passes_stable_grids(self, p):
        """12 steps are stable at p = 1..5 (at p = 5, 11 are not): the
        norm guard must not fire for any rate pair or filter mode."""
        basis = triplet_states(p)
        grid = make_grid(12)
        for k_s, k_t in ((10.0, 10.0), (0.0, 0.0), (10.0, 0.0), (3.0, 7.0)):
            model = build_model(p=p, k_singlet=k_s, k_triplet=k_t)
            for vector in ([3.0, 3.0, 3.0], [6.0, 6.0, 6.0]):
                u = constant_control(vector, grid, PRISM)
                for cfg in (FilterConfig(), FilterConfig(enabled=False)):
                    fields = filter_field(u, cfg, grid)
                    integrate_forward(model, fields, basis, grid)


class TestIntegrateAdjoint:
    def setup_method(self):
        self.model = build_model(p=1)
        self.basis = triplet_states(1)
        self.grid = make_grid(100)
        self.cfg = FilterConfig(gamma=1.0, v0=np.array([3.0, 3.0, 3.0]))
        rng = np.random.default_rng(21)
        self.u = ControlSignal(
            values=rng.uniform(3.0, 6.0, (100, 3)), bounds=PRISM
        )
        self.fields = filter_field(self.u, self.cfg, self.grid)
        self.forward = integrate_forward(
            self.model, self.fields, self.basis, self.grid
        )

    def test_terminal_condition(self):
        adjoint = integrate_adjoint(
            self.model, self.fields, self.forward, self.grid
        )
        assert np.max(np.abs(adjoint.states[-1])) == 0.0

    def test_zero_forward_gives_zero_adjoint(self):
        silent = type(self.forward)(states=np.zeros_like(self.forward.states))
        adjoint = integrate_adjoint(self.model, self.fields, silent, self.grid)
        assert np.max(np.abs(adjoint.states)) == 0.0

    def test_zero_singlet_rate_gives_zero_adjoint(self):
        model = build_model(p=1, k_singlet=0.0, k_triplet=10.0)
        forward = integrate_forward(model, self.fields, self.basis, self.grid)
        adjoint = integrate_adjoint(model, self.fields, forward, self.grid)
        assert np.max(np.abs(adjoint.states)) == 0.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrate_adjoint(
                self.model, self.fields, self.forward, make_grid(50)
            )

    def test_duality_against_finite_differences(self):
        """Gradient from the adjoint pairing vs central differences of J.

        No-filter mode so the control is the field and the pairing needs no
        convolution.  The direction is drawn once with a conditioning check
        (angle to the gradient bounded away from orthogonal) so the FD
        quotient is not dominated by cancellation noise.
        """
        model = self.model
        basis = self.basis
        grid = self.grid
        cfg = FilterConfig(enabled=False)
        rng = np.random.default_rng(17)
        u_vals = rng.uniform(3.5, 5.5, (grid.steps, 3))

        def cost(values):
            u = ControlSignal(values=values, bounds=PRISM)
            fields = filter_field(u, cfg, grid)
            fwd = integrate_forward(model, fields, basis, grid)
            return singlet_yield(fwd, model, grid)

        u = ControlSignal(values=u_vals, bounds=PRISM)
        fields = filter_field(u, cfg, grid)
        fwd = integrate_forward(model, fields, basis, grid)
        adj = integrate_adjoint(model, fields, fwd, grid)
        phi = switching_function(fwd, adj, model, cfg, grid)
        grad = 0.5 * (phi[:-1] + phi[1:])

        delta = rng.uniform(-1.0, 1.0, u_vals.shape)
        cos = np.sum(grad * delta) / (
            np.linalg.norm(grad) * np.linalg.norm(delta)
        )
        assert abs(cos) > 0.05  # direction is well conditioned for FD
        eps = 1.0e-4
        fd = (cost(u_vals + eps * delta) - cost(u_vals - eps * delta)) / (
            2.0 * eps
        )
        predicted = grid.h * np.sum(grad * delta)
        assert fd == pytest.approx(predicted, rel=1.0e-3)

    def test_overflow_aborts_at_first_node_reached(self, monkeypatch):
        """The guard names the first node the backward sweep pushes past the
        limit.  With one step per block it checks every node as soon as it
        is computed; one block over the whole grid must report the same."""
        wild = filter_field(
            constant_control([1.0e6, 1.0e6, 1.0e6], self.grid, WIDE),
            FilterConfig(enabled=False),
            self.grid,
        )
        assert np.all(np.isfinite(self.forward.states))
        messages = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(dynamics, "BLOCK_BYTES", block_bytes)
            with pytest.raises(IntegrationOverflow) as err:
                integrate_adjoint(self.model, wild, self.forward, self.grid)
            messages.append(str(err.value))
        t = float(re.search(r"at t=([0-9.]+) us", messages[0]).group(1))
        assert 0.0 < t < self.grid.t_final
        assert messages[1] == messages[0]


class TestBlocking:
    """Stage generators and sources are built per block of steps; the
    block size must not change a single bit of the states, in either form
    of the integrators."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_states_independent_of_block_size(self, monkeypatch, p, enabled):
        model = build_model(p=p)
        basis = triplet_states(p)
        grid = make_grid(50)
        rng = np.random.default_rng(8)
        u = ControlSignal(values=rng.uniform(3.0, 6.0, (50, 3)), bounds=PRISM)
        fields = filter_field(u, FilterConfig(gamma=4.0, enabled=enabled), grid)
        for folded in (False, True):
            monkeypatch.setattr(
                dynamics, "STEP_MATRIX_DIM", model.dim if folded else 0
            )
            # the step matrices' stack is capped at BLOCK_BYTES / 8
            stack_bytes = 16 * model.dim**2 * (8 if folded else 1)
            results = []
            # one step per block (the step-by-step reference), 3 steps (50 is
            # not a multiple of 3), the whole grid
            for block_bytes, size in ((1, 1), (3 * stack_bytes, 3), (1 << 40, 50)):
                monkeypatch.setattr(dynamics, "BLOCK_BYTES", block_bytes)
                fold, blocks = dynamics._step_blocks(model.dim, 50)
                assert fold == folded and blocks[0] == (0, size)
                forward = integrate_forward(model, fields, basis, grid)
                adjoint = integrate_adjoint(model, fields, forward, grid)
                results.append((forward.states, adjoint.states))
            for forward, adjoint in results[1:]:
                assert np.array_equal(forward, results[0][0])
                assert np.array_equal(adjoint, results[0][1])

    def test_blocks_cover_grid_within_byte_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK_BYTES", 3 * 16 * 8 * 8)
        blocks = dynamics._blocks(50, 16 * 8 * 8)
        assert blocks[0] == (0, 3) and blocks[-1] == (48, 50)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        monkeypatch.setattr(dynamics, "BLOCK_BYTES", 1)
        assert dynamics._blocks(4, 16 * 8 * 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_steps_fold_into_matrices_up_to_p2(self):
        folded = [dynamics._step_blocks(build_model(p=p).dim, 10)[0] for p in range(1, 5)]
        assert folded == [True, True, False, False]

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_transient_memory_within_two_blocks(self, p, enabled):
        """Beyond the ensemble it returns, an integrator holds at most a
        few step-matrix stacks and one block of sources at a time."""
        model = build_model(p=p)
        grid = make_grid(200)
        u = ControlSignal(
            values=np.random.default_rng(3).uniform(3.0, 6.0, (200, 3)),
            bounds=PRISM,
        )
        fields = filter_field(u, FilterConfig(enabled=enabled), grid)
        basis = triplet_states(p)
        forward = integrate_forward(model, fields, basis, grid)
        for integrate, source in ((integrate_forward, basis),
                                  (integrate_adjoint, forward)):
            tracemalloc.start()
            try:
                integrate(model, fields, source, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - forward.states.nbytes < 2 * dynamics.BLOCK_BYTES


class TestStepMatrices:
    """At p <= 2 each RK4 step is one matrix (plus, for the costate, one
    affine shift): the same scheme as the stage loop in another
    floating-point order."""

    @staticmethod
    def solve(monkeypatch, folded, p, enabled):
        monkeypatch.setattr(dynamics, "STEP_MATRIX_DIM", 1 << 20 if folded else 0)
        model = build_model(p=p)
        grid = make_grid(120)
        u = ControlSignal(
            values=np.random.default_rng(p).uniform(3.0, 6.0, (120, 3)),
            bounds=PRISM,
        )
        cfg = FilterConfig(gamma=4.0, enabled=enabled)
        fields = filter_field(u, cfg, grid)
        forward = integrate_forward(model, fields, triplet_states(p), grid)
        adjoint = integrate_adjoint(model, fields, forward, grid)
        cost = singlet_yield(forward, model, grid)
        phi = switching_function(forward, adjoint, model, cfg, grid)
        return forward.states, adjoint.states, np.array(cost), phi

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_forms_agree(self, monkeypatch, p, enabled):
        stages = self.solve(monkeypatch, False, p, enabled)
        matrices = self.solve(monkeypatch, True, p, enabled)
        for a, b in zip(stages, matrices):
            assert np.max(np.abs(b - a)) <= 1.0e-13 * np.max(np.abs(a))

    @pytest.mark.parametrize("p", [1, 2])
    def test_ipmp_controls_equal(self, monkeypatch, p):
        problem = ControlProblem(
            assembly=build_model(p=p), basis=triplet_states(p), grid=make_grid(200),
            prism=PRISM, filter_cfg=FilterConfig(gamma=1.0),
        )
        u0 = constant_control([3.0, 3.0, 3.0], problem.grid, PRISM)
        reports = []
        for folded in (False, True):
            monkeypatch.setattr(
                dynamics, "STEP_MATRIX_DIM", 1 << 20 if folded else 0
            )
            reports.append(ipmp_optimize(problem, u0, max_iters=4))
        stages, matrices = reports
        assert (matrices.status, matrices.iterations) == (
            stages.status, stages.iterations
        )
        assert np.array_equal(
            matrices.final_control.values, stages.final_control.values
        )
