import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinctrl.spin import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_spin_system,
    kron_chain,
)

TOL = 1.0e-12


# Hand-expanded oracle for sigma_x (x) sigma_z, worked out entry by entry
# from (A (x) B)[i*2+k, j*2+l] = A[i,j] B[k,l] before any code ran.
KRON_XZ_ORACLE = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)


def comm(a, b):
    return a @ b - b @ a


class TestKron:
    def test_identity_times_identity(self):
        assert_allclose(kron_chain([IDENTITY_2, IDENTITY_2]), np.eye(4), atol=TOL)

    def test_sigma_x_times_identity(self):
        """sigma_x (x) E2 has identity blocks on the anti-diagonal."""
        out = kron_chain([SIGMA_X, IDENTITY_2])
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.eye(2)
        assert_allclose(out, expected, atol=TOL)

    def test_sigma_x_times_sigma_z_oracle(self):
        assert_allclose(kron_chain([SIGMA_X, SIGMA_Z]), KRON_XZ_ORACLE, atol=TOL)

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = kron_chain([kron_chain([a, b]), c])
        right = kron_chain([a, kron_chain([b, c])])
        assert_allclose(left, right, atol=TOL)

    def test_chain_of_identities(self):
        assert_allclose(kron_chain([IDENTITY_2] * 3), np.eye(8), atol=TOL)

    def test_chain_rejects_empty(self):
        with pytest.raises(ValueError):
            kron_chain([])


class TestBuildSpinSystem:
    def test_dimension(self):
        for p in (1, 2, 3):
            sys = build_spin_system(p)
            assert sys.dim == 2 ** (p + 2)

    def test_s1x_explicit_chain(self):
        """S1x for p=1 is (1/2) sigma_x in slot 0 of a 3-factor chain."""
        sys = build_spin_system(1)
        expected = 0.5 * kron_chain([SIGMA_X, IDENTITY_2, IDENTITY_2])
        assert_allclose(sys.s1[0], expected, atol=TOL)

    def test_s2_and_nucleus_slots(self):
        sys = build_spin_system(1)
        assert_allclose(
            sys.s2[2],
            0.5 * kron_chain([IDENTITY_2, SIGMA_Z, IDENTITY_2]),
            atol=TOL,
        )
        assert_allclose(
            sys.nuclei[0][1],
            0.5 * kron_chain([IDENTITY_2, IDENTITY_2, SIGMA_Y]),
            atol=TOL,
        )

    def test_operators_hermitian(self):
        sys = build_spin_system(2)
        for triple in (sys.s1, sys.s2) + sys.nuclei:
            for op in triple:
                assert np.max(np.abs(op - op.conj().T)) <= TOL

    def test_rejects_bad_p(self):
        for bad in (0, -1, 8):
            with pytest.raises(ValueError):
                build_spin_system(bad)

    def test_rejects_non_integer_p(self):
        with pytest.raises(ValueError):
            build_spin_system(1.5)
        with pytest.raises(ValueError):
            build_spin_system(True)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_su2_relations_per_slot(p):
    """[S_x, S_y] = i S_z cyclically, for both electrons and every nucleus."""
    sys = build_spin_system(p)
    for triple in (sys.s1, sys.s2) + sys.nuclei:
        sx, sy, sz = triple
        assert np.max(np.abs(comm(sx, sy) - 1j * sz)) <= TOL
        assert np.max(np.abs(comm(sy, sz) - 1j * sx)) <= TOL
        assert np.max(np.abs(comm(sz, sx) - 1j * sy)) <= TOL


def test_cross_slot_operators_commute():
    sys = build_spin_system(2)
    triples = [sys.s1, sys.s2, sys.nuclei[0], sys.nuclei[1]]
    for a in range(len(triples)):
        for b in range(a + 1, len(triples)):
            for i in range(3):
                for j in range(3):
                    assert (
                        np.max(np.abs(comm(triples[a][i], triples[b][j])))
                        <= TOL
                    )


class TestProjectors:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_idempotent_orthogonal_complete(self, p):
        sys = build_spin_system(p)
        p_s = sys.projector_singlet
        p_t = sys.projector_triplet
        eye = np.eye(sys.dim)
        assert np.max(np.abs(p_s @ p_s - p_s)) <= TOL
        assert np.max(np.abs(p_t @ p_t - p_t)) <= TOL
        assert np.max(np.abs(p_s @ p_t)) <= TOL
        assert np.max(np.abs(p_s + p_t - eye)) <= TOL

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_traces(self, p):
        sys = build_spin_system(p)
        assert abs(np.trace(sys.projector_singlet).real - 2 ** p) <= 1.0e-9
        assert (
            abs(np.trace(sys.projector_triplet).real - 3 * 2 ** p) <= 1.0e-9
        )

    def test_p1_trace_is_two(self):
        sys = build_spin_system(1)
        assert abs(np.trace(sys.projector_singlet).real - 2.0) <= 1.0e-9

    def test_singlet_multiplicity_from_eigenvalues(self):
        """Independent oracle for trace(P_S) at p=2: diagonalize S1.S2.

        The electron-pair coupling has eigenvalue -3/4 exactly on singlet
        states, +1/4 on triplets; the singlet count must equal the nuclear
        space dimension 2**p.
        """
        sys = build_spin_system(2)
        dot = sum(sys.s1[i] @ sys.s2[i] for i in range(3))
        evals = np.linalg.eigvalsh(dot)
        singlet_count = int(np.sum(np.abs(evals + 0.75) < 1.0e-9))
        assert singlet_count == 4
        assert abs(np.trace(sys.projector_singlet).real - 4.0) <= 1.0e-9

    def test_projector_hermitian(self):
        sys = build_spin_system(1)
        p_s = sys.projector_singlet
        assert np.max(np.abs(p_s - p_s.conj().T)) <= TOL

    def test_projects_bell_states(self):
        """P_S keeps the antisymmetric Bell state, kills the symmetric one."""
        sys = build_spin_system(1)
        up_down = np.zeros(8, dtype=complex)
        down_up = np.zeros(8, dtype=complex)
        # electron basis (slot0 slot1): |01> with nucleus |0> is index 2,
        # |10> with nucleus |0> is index 4
        up_down[2] = 1.0
        down_up[4] = 1.0
        singlet = (up_down - down_up) / np.sqrt(2.0)
        triplet0 = (up_down + down_up) / np.sqrt(2.0)
        assert_allclose(sys.projector_singlet @ singlet, singlet, atol=1e-10)
        assert_allclose(
            sys.projector_singlet @ triplet0,
            np.zeros(8),
            atol=1e-10,
        )
