"""Radical-pair model assembly: Hamiltonian pieces and triplet-born states.

Solver units: hbar = 1 (fixed, not a parameter: H is in rad us^-1 and the
dynamics read i dpsi/dt = H psi), time in microseconds, magnetic fields in
millitesla at the Hamiltonian level.  The electron gyromagnetic factor

    GYRO = mu_B * g / hbar = 176.0859 rad us^-1 mT^-1

converts field components to angular frequency; build_model takes it, the
rates k_S, k_T and the hyperfine table as keyword arguments.  Control-facing
layers store fields in microtesla; MT_PER_UT is the single conversion
constant between the two, applied where field samples meet the Zeeman
generators and (with the same constant) in the control-gradient prefactor,
never twice.

The evolution generator for a field v (mT) is

    H(v) = sum_i v_i * Z_i + H_hfi - i K,        Z_i = GYRO * (S1_i + S2_i)
    H_hfi = GYRO * sum_j sum_i A[j,i] * I_ji S1_i      (A in mT)
    K = (k_S P_S + k_T P_T) / 2                        (k in us^-1)

and the costate generator is its recombination-flipped partner
H*(v) = sum_i v_i Z_i + H_hfi + i K.  With k_S = k_T, K is the scalar
(k/2) I and every state norm obeys |psi(t)|^2 = e^{-k t} |psi(0)|^2.

Initial conditions are the 3 * 2**p triplet-born product states: T+ and T-
are the stretched electron configurations against each nuclear basis state,
and T0 is the symmetric electron combination (e_j + e_{j + 2**p}) / sqrt(2)
for j = 2**p + 1 .. 2**(p+1) (1-based); the symmetric sign is what makes
every member an eigenvector of P_T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import SpinSystem, build_spin_system

GYRO_DEFAULT = 176.0859  # rad us^-1 mT^-1, mu_B g / hbar for g = 2.0023
MT_PER_UT = 1.0e-3  # the one microtesla -> millitesla conversion site

# Default isotropic-per-axis hyperfine table (mT): rows 1..3 are distinct,
# every further nucleus reuses the fourth row.
HYPERFINE_ROWS = (
    (-0.234, -0.234, 0.117),
    (-0.030, -0.022, 0.688),
    (0.238, 0.357, 0.117),
)
HYPERFINE_TAIL = (-0.218, -0.202, -0.054)


def default_hyperfine(p):
    """Default p-row hyperfine table in mT."""
    rows = [HYPERFINE_ROWS[j] if j < 3 else HYPERFINE_TAIL for j in range(p)]
    return np.array(rows, dtype=float)


def build_hfi(system: SpinSystem, table, gyro):
    """Hyperfine Hamiltonian GYRO * sum_{j,i} A[j,i] I_ji S1_i (rad/us)."""
    table = np.asarray(table, dtype=float)
    if table.shape != (system.p, 3):
        raise ValueError(
            f"hyperfine table shape {table.shape} does not match p={system.p}"
        )
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for j in range(system.p):
        for i in range(3):
            h += table[j, i] * (system.nuclei[j][i] @ system.s1[i])
    return gyro * h


def build_recombination(system: SpinSystem, k_singlet, k_triplet):
    """Recombination operator K = (k_S P_S + k_T P_T) / 2 (us^-1)."""
    return 0.5 * (
        k_singlet * system.projector_singlet
        + k_triplet * system.projector_triplet
    )


@dataclass(frozen=True)
class ModelAssembly:
    """Precomputed Hamiltonian pieces for one radical-pair model.

    zeeman: stacked (3, n, n) generators Z_i = gyro * (S1_i + S2_i) so that
    H_Z(v) = v . zeeman for v in mT.  h_hfi, k_op and projector_singlet
    (P_S) as in the module docstring.  The spin operators they are built
    from are not kept.  Arrays are shared, not copied; treat as immutable.
    """

    k_singlet: float  # us^-1: weighs the yield and the costate source
    hyperfine: np.ndarray  # (p, 3), mT
    zeeman: np.ndarray
    h_hfi: np.ndarray
    k_op: np.ndarray
    projector_singlet: np.ndarray

    @property
    def p(self):
        return self.hyperfine.shape[0]

    @property
    def dim(self):
        return self.zeeman.shape[-1]

    def hamiltonian_at(self, v_mt, adjoint=False):
        """Evolution generator at field v (3-vector, mT).

        adjoint=False gives H(v) = H_Z + H_hfi - iK driving the state;
        adjoint=True flips the recombination sign for the costate.
        """
        v_mt = np.asarray(v_mt, dtype=float)
        if v_mt.shape != (3,):
            raise ValueError(f"field must be a 3-vector, got shape {v_mt.shape}")
        return np.tensordot(v_mt, self.zeeman, axes=1) + self.drift(adjoint)

    def drift(self, adjoint=False):
        """Field-free part of the generator: H_hfi - iK, or with
        adjoint=True the costate's H_hfi + iK."""
        recombination = 1j * self.k_op
        return self.h_hfi + recombination if adjoint else self.h_hfi - recombination


def build_model(p=1, gyro=GYRO_DEFAULT, k_singlet=10.0, k_triplet=10.0, hyperfine=None):
    """Hamiltonian pieces for p protons, in the module docstring's units;
    hyperfine=None takes the default table for p."""
    if gyro <= 0:
        raise ValueError("gyro must be positive")
    if k_singlet < 0 or k_triplet < 0:
        raise ValueError("recombination rates must be non-negative")
    system = build_spin_system(p)
    table = (
        default_hyperfine(p)
        if hyperfine is None
        else np.asarray(hyperfine, dtype=float)
    )
    zeeman = np.stack([gyro * (system.s1[i] + system.s2[i]) for i in range(3)])
    return ModelAssembly(
        k_singlet=k_singlet,
        hyperfine=table,
        zeeman=zeeman,
        h_hfi=build_hfi(system, table, gyro),
        k_op=build_recombination(system, k_singlet, k_triplet),
        projector_singlet=system.projector_singlet,
    )


def triplet_states(p):
    """Triplet-born basis, (dim, 3 * 2**p) complex with orthonormal columns
    in block order T0, T+, T- (see module docstring)."""
    dim = 2 ** (p + 2)
    q = 2 ** p
    states = np.zeros((dim, 3 * q), dtype=complex)
    half = 1.0 / np.sqrt(2.0)
    for offset in range(q):
        # T0: symmetric combination of the two mixed electron configurations
        j = q + offset  # 0-based index of e_{2**p + 1 + offset}
        states[j, offset] = half
        states[j + q, offset] = half
        # T+: both electrons in the first configuration
        states[offset, q + offset] = 1.0
        # T-: both electrons in the second configuration
        states[3 * q + offset, 2 * q + offset] = 1.0
    return states
