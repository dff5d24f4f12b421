"""Spin operator algebra for a radical pair with p spin-1/2 nuclei.

The Hilbert space is a Kronecker chain of p + 2 two-level factors ordered as
(electron 1, electron 2, nucleus 1, ..., nucleus p), giving dimension
n = 2**(p+2).  Every one-body operator is (1/2)*sigma_i placed in its slot
with identities elsewhere, so the usual su(2) relations hold slot by slot:

    [S_x, S_y] = i S_z   (cyclically)

and operators on different slots commute.  Electron-pair projectors follow
from S1.S2, whose eigenvalues are -3/4 on the singlet and +1/4 on each
triplet, so

    P_S = (1/4) I - S1.S2,     P_T = I - P_S

are idempotent, orthogonal, and resolve the identity.  The 1/4 coefficient
is forced by idempotency (a 1/3 sometimes seen in print fails it).

All matrices are dense complex numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Spin-1/2 operators in units of hbar.
SPIN_HALF = tuple(0.5 * s for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))

MAX_PROTONS = 7  # n = 2**(p+2) reaches 512; experiments caps the stored states


def kron_chain(ops):
    """Left-to-right Kronecker product of a sequence of operators."""
    ops = list(ops)
    if not ops:
        raise ValueError("kron_chain needs at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _embed(op, slot, n_slots):
    """Place a single two-level operator at `slot` in an n_slots chain."""
    factors = [IDENTITY_2] * n_slots
    factors[slot] = op
    return kron_chain(factors)


@dataclass(frozen=True)
class SpinSystem:
    """Operator inventory for 2 electrons + p nuclei.

    s1, s2: triples of (x, y, z) spin operators for the two electrons.
    nuclei: list of p such triples, nucleus j coupled to electron 1 only.
    projector_singlet / projector_triplet: electron-pair projectors.
    Treat all arrays as immutable after construction.
    """

    p: int
    dim: int
    s1: tuple
    s2: tuple
    nuclei: tuple
    projector_singlet: np.ndarray
    projector_triplet: np.ndarray


def build_spin_system(p):
    """Assemble all spin operators for p protons.

    Electron 1 sits in slot 0, electron 2 in slot 1, nucleus j in slot
    j + 1 (0-based).  Raises ValueError outside 1 <= p <= MAX_PROTONS.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError(f"proton count must be an integer, got {p!r}")
    if p < 1 or p > MAX_PROTONS:
        raise ValueError(
            f"proton count p={p} outside supported range 1..{MAX_PROTONS}"
        )
    n_slots = p + 2
    dim = 2 ** n_slots
    s1 = tuple(_embed(op, 0, n_slots) for op in SPIN_HALF)
    s2 = tuple(_embed(op, 1, n_slots) for op in SPIN_HALF)
    nuclei = tuple(
        tuple(_embed(op, 2 + j, n_slots) for op in SPIN_HALF)
        for j in range(p)
    )
    dot = s1[0] @ s2[0] + s1[1] @ s2[1] + s1[2] @ s2[2]
    p_s = 0.25 * np.eye(dim, dtype=complex) - dot  # P_S = I/4 - S1.S2
    p_t = np.eye(dim, dtype=complex) - p_s
    return SpinSystem(
        p=p,
        dim=dim,
        s1=s1,
        s2=s2,
        nuclei=nuclei,
        projector_singlet=p_s,
        projector_triplet=p_t,
    )
