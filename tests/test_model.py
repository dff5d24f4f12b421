import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinctrl.model import (
    GYRO_DEFAULT,
    build_hfi,
    build_model,
    build_recombination,
    default_hyperfine,
    triplet_states,
)
from spinctrl.spin import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, build_spin_system

TOL = 1.0e-12

A1 = np.array([[-0.234, -0.234, 0.117]])


class TestConstants:
    def test_defaults(self):
        assert GYRO_DEFAULT == pytest.approx(176.0859)
        model = build_model(p=1)
        explicit = build_model(p=1, gyro=GYRO_DEFAULT, k_singlet=10.0, k_triplet=10.0)
        assert model.k_singlet == 10.0
        assert np.array_equal(model.zeeman, explicit.zeeman)
        assert np.array_equal(model.k_op, explicit.k_op)

    def test_rejects_nonpositive_gyro(self):
        with pytest.raises(ValueError):
            build_model(p=1, gyro=0.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            build_model(p=1, k_singlet=-1.0)
        with pytest.raises(ValueError):
            build_model(p=1, k_triplet=-0.5)


class TestHyperfineTable:
    def test_first_row(self):
        assert_allclose(default_hyperfine(1), A1)

    def test_tail_reuse(self):
        table = default_hyperfine(5)
        assert table.shape == (5, 3)
        assert_allclose(table[3], table[4])
        assert_allclose(table[3], [-0.218, -0.202, -0.054])


class TestBuildHfi:
    def test_zero_table_gives_zero_matrix(self):
        sys = build_spin_system(1)
        h = build_hfi(sys, np.zeros((1, 3)), GYRO_DEFAULT)
        assert np.max(np.abs(h)) == 0.0

    def test_hermitian(self):
        sys = build_spin_system(1)
        h = build_hfi(sys, A1, GYRO_DEFAULT)
        assert np.max(np.abs(h - h.conj().T)) <= TOL

    def test_corner_element_oracle(self):
        """M[0,0] = gyro * A_z / 4.

        Hand expansion: index 0 is all spins up, so I_1z S_1z contributes
        (1/2)(1/2) on the diagonal there, and the x, y products are purely
        off-diagonal.  Worked out before build_hfi existed.
        """
        sys = build_spin_system(1)
        h = build_hfi(sys, A1, GYRO_DEFAULT)
        assert h[0, 0] == pytest.approx(GYRO_DEFAULT * 0.117 * 0.25, rel=TOL)

    def test_row_count_mismatch(self):
        sys = build_spin_system(2)
        with pytest.raises(ValueError):
            build_hfi(sys, A1, GYRO_DEFAULT)


class TestRecombination:
    def test_equal_rates_scalar_matrix(self):
        sys = build_spin_system(1)
        k = build_recombination(sys, 10.0, 10.0)
        assert_allclose(k, 5.0 * np.eye(8), atol=TOL)
        assert_allclose(np.linalg.eigvalsh(k), np.full(8, 5.0), atol=1e-10)

    def test_singlet_only(self):
        sys = build_spin_system(1)
        k = build_recombination(sys, 10.0, 0.0)
        assert_allclose(k, 5.0 * sys.projector_singlet, atol=TOL)

    def test_psd(self):
        sys = build_spin_system(2)
        k = build_recombination(sys, 3.0, 7.0)
        evals = np.linalg.eigvalsh(k)
        assert np.min(evals) >= -1.0e-12


class TestHamiltonianAt:
    def test_zero_field_zero_decay_is_hfi(self):
        model = build_model(p=1, k_singlet=0.0, k_triplet=0.0)
        assert_allclose(
            model.hamiltonian_at(np.zeros(3)), model.h_hfi, atol=TOL
        )

    def test_forward_minus_adjoint(self):
        """H(v) - H*(v) = -2iK for any field."""
        model = build_model(p=1)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.uniform(-0.01, 0.01, size=3)
            gap = model.hamiltonian_at(v) - model.hamiltonian_at(
                v, adjoint=True
            )
            assert_allclose(gap, -2j * model.k_op, atol=TOL)

    def test_dense_reconstruction_oracle(self):
        """Cross-check H([3,3,3] uT) against raw Kronecker sums.

        Second implementation path: every operator is rebuilt here from
        np.kron directly, no SpinSystem involved.
        """
        model = build_model(p=1)
        v_mt = np.array([0.003, 0.003, 0.003])
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        e2 = IDENTITY_2

        def chain(a, b, c):
            return np.kron(np.kron(a, b), c)

        gyro = GYRO_DEFAULT
        s1 = [0.5 * chain(s, e2, e2) for s in paulis]
        s2 = [0.5 * chain(e2, s, e2) for s in paulis]
        nuc = [0.5 * chain(e2, e2, s) for s in paulis]
        h = np.zeros((8, 8), dtype=complex)
        for i in range(3):
            h += gyro * v_mt[i] * (s1[i] + s2[i])
            h += gyro * A1[0, i] * (nuc[i] @ s1[i])
        dot = sum(s1[i] @ s2[i] for i in range(3))
        p_s = 0.25 * np.eye(8) - dot
        p_t = np.eye(8) - p_s
        k_op = 0.5 * (10.0 * p_s + 10.0 * p_t)
        assert_allclose(
            model.hamiltonian_at(v_mt), h - 1j * k_op, atol=1e-10
        )

    def test_linearity_in_field(self):
        model = build_model(p=1)
        rng = np.random.default_rng(5)
        v1 = rng.uniform(-0.01, 0.01, size=3)
        v2 = rng.uniform(-0.01, 0.01, size=3)
        a, b = 0.7, -1.3
        lhs = model.hamiltonian_at(a * v1 + b * v2)
        rhs = (
            a * model.hamiltonian_at(v1)
            + b * model.hamiltonian_at(v2)
            - (a + b - 1.0) * model.hamiltonian_at(np.zeros(3))
        )
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_anti_hermitian_part_is_recombination(self):
        model = build_model(p=2)
        rng = np.random.default_rng(3)
        for _ in range(2):
            v = rng.uniform(-0.01, 0.01, size=3)
            h = model.hamiltonian_at(v)
            anti = 0.5 * (h - h.conj().T)
            assert_allclose(anti, -1j * model.k_op, atol=TOL)

    def test_rejects_bad_field_shape(self):
        model = build_model(p=1)
        with pytest.raises(ValueError):
            model.hamiltonian_at([1.0, 2.0])


class TestTripletStates:
    def test_count_and_first_state(self):
        """p=1 gives 6 states; the first T0 member lives on e_3 and e_5.

        The symmetric sign is the one that makes it a triplet: the
        antisymmetric combination is the electron singlet and P_S would
        keep it.
        """
        basis = triplet_states(1)
        assert basis.shape == (8, 6)
        first = basis[:, 0]
        expected = np.zeros(8, dtype=complex)
        expected[2] = expected[4] = 1.0 / np.sqrt(2.0)
        assert_allclose(first, expected, atol=TOL)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_orthonormal(self, p):
        basis = triplet_states(p)
        gram = basis.conj().T @ basis
        assert_allclose(gram, np.eye(basis.shape[1]), atol=TOL)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_unit_norms(self, p):
        basis = triplet_states(p)
        norms = np.linalg.norm(basis, axis=0)
        assert_allclose(norms, np.ones(basis.shape[1]), atol=TOL)

    @pytest.mark.parametrize("p", [1, 2])
    def test_triplet_born(self, p):
        """P_T psi = psi and P_S psi = 0 for every member."""
        sys = build_spin_system(p)
        basis = triplet_states(p)
        kept = sys.projector_triplet @ basis
        killed = sys.projector_singlet @ basis
        assert np.max(np.abs(kept - basis)) <= 1.0e-10
        assert np.max(np.abs(killed)) <= 1.0e-10

    def test_stretched_states_are_basis_vectors(self):
        basis = triplet_states(1)
        # T+ block: both electrons up
        assert_allclose(basis[0, 2], 1.0, atol=TOL)
        assert_allclose(basis[1, 3], 1.0, atol=TOL)
        # T- block: both electrons down
        assert_allclose(basis[6, 4], 1.0, atol=TOL)
        assert_allclose(basis[7, 5], 1.0, atol=TOL)


def test_build_model_shares_system_dimensions():
    model = build_model(p=3)
    assert model.p == 3
    assert model.dim == 32
    assert model.zeeman.shape == (3, 32, 32)
    assert model.hyperfine.shape == (3, 3)
