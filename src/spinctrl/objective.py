"""Singlet-yield functional, its control gradient, and PMP diagnostics.

The figure of merit over the triplet-born ensemble is

    J(u) = k_S / (3 * 2**(p+1)) * sum_l int_0^T <psi^l | P_S | psi^l> dt,

evaluated with trapezoid weights on the integration grid.  Pairing the
forward states with the costates gives the exact first variation

    dJ = sum_i int_0^T m_i(t) dv_i(t) dt,
    m_i(t) = 1 / (3 * 2**(p-1)) * sum_l Im <chi^l | Z_i | psi^l> * MT_PER_UT,

where Z_i are the Zeeman generators (so the gyromagnetic factor enters the
gradient exactly once) and the trailing constant expresses m per uT of
field, matching the units controls are stored in.  Chaining through the
filter turns m into the gradient with respect to the control itself:

    phi_i(t) = gamma * int_t^T m_i(tau) exp(gamma (t - tau)) dtau,

computed by a backward recursion whose per-interval increment integrates
the exponential kernel against a piecewise-linear interpolant of m in
closed form: O(steps) total and exact for linear m.  In no-filter mode
phi = m.  phi doubles as the switching function of the maximum principle:
at an optimum, u_i sits on the upper bound where phi_i > 0 and on the
lower bound where phi_i < 0.

Both contractions run as BLAS matmuls over blocks of nodes: P_S @ psi for
the populations, and one (3n, n) @ psi with the three Zeeman generators
stacked for m, each followed by a per-node einsum against conj(psi) or
conj(chi).  A block holds as many nodes as keep its largest temporary (the
P_S psi, or the three Z_i psi, of its nodes) within dynamics.BLOCK_BYTES,
at least one node, the cap the integrators use for their generator stacks.
The transients of one call therefore stay within about two blocks (or the
products of one node, where those alone pass the cap) instead of one or two
whole ensembles; every row of a block is computed alone, so the results do
not depend on the block size.  The scalar recursion of phi runs over Python
floats, which on 3-vectors is cheaper than numpy, in the same order of
operations.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    ControlSignal,
    FilterConfig,
    StateEnsemble,
    TimeGrid,
    _blocks,
)
from .model import MT_PER_UT, ModelAssembly


def trapezoid_weights(n_nodes, h):
    """Composite trapezoid weights on a uniform grid."""
    w = np.full(n_nodes, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def singlet_populations(forward: StateEnsemble, assembly: ModelAssembly):
    """sum_l <psi^l(t_k) | P_S | psi^l(t_k)> at every node."""
    p_s = assembly.projector_singlet
    states = forward.states
    out = np.empty(states.shape[0])
    for start, stop in _blocks(states.shape[0], states[0].nbytes):
        psi = states[start:stop]
        out[start:stop] = np.einsum("tal,tal->t", psi.conj(), p_s @ psi).real
    return out


def singlet_yield(
    forward: StateEnsemble, assembly: ModelAssembly, grid: TimeGrid
):
    """Ensemble singlet yield J (dimensionless, non-negative)."""
    pops = singlet_populations(forward, assembly)
    weights = trapezoid_weights(grid.steps + 1, grid.h)
    prefactor = assembly.k_singlet / (3.0 * 2 ** (assembly.p + 1))
    return float(prefactor * np.dot(weights, pops))


def _kernel_coefficients(x):
    """Closed-form weights for int_0^h m_lin(s) gamma e^{-gamma s} ds.

    Returns (a, b) with increment = a * m_left + b * m_right, x = gamma*h.
    """
    if x < 1.0e-6:
        # series: a = x/2 - x^2/6 + x^3/24, b = x/2 - x^2/3 + x^3/8
        a = x * (0.5 + x * (-1.0 / 6.0 + x / 24.0))
        b = x * (0.5 + x * (-1.0 / 3.0 + x / 8.0))
        return a, b
    one_minus_q = -np.expm1(-x)
    b = (one_minus_q - x * np.exp(-x)) / x
    return one_minus_q - b, b


def gradient_integrand(
    forward: StateEnsemble, adjoint: StateEnsemble, assembly: ModelAssembly
):
    """m_i(t_k): the unconvolved gradient density, shape (steps+1, 3)."""
    scale = MT_PER_UT / (3.0 * 2 ** (assembly.p - 1))
    states, costates = forward.states, adjoint.states
    nodes, dim, count = states.shape
    zeeman = assembly.zeeman.reshape(3 * dim, dim)  # rows of Z_x, Z_y, Z_z
    out = np.empty((nodes, 3))
    for start, stop in _blocks(nodes, 3 * states[0].nbytes):
        zpsi = (zeeman @ states[start:stop]).reshape(-1, 3, dim, count)
        chi = costates[start:stop].conj()
        out[start:stop] = np.einsum("tal,tial->ti", chi, zpsi).imag
    out *= scale
    return out


def switching_function(
    forward: StateEnsemble,
    adjoint: StateEnsemble,
    assembly: ModelAssembly,
    cfg: FilterConfig,
    grid: TimeGrid,
):
    """Control gradient / switching signal phi on the grid nodes, (steps+1, 3)."""
    m = gradient_integrand(forward, adjoint, assembly)
    if not cfg.enabled:
        return m
    a, b = _kernel_coefficients(cfg.gamma * grid.h)
    a, b = float(a), float(b)
    decay = float(np.exp(-cfg.gamma * grid.h))
    # w[k] = decay * w[k + 1] + a * m[k] + b * m[k + 1], over Python floats
    # (cheaper than numpy ops on 3-vectors) in the same order, bit for bit.
    rows = m.tolist()
    wx = wy = wz = 0.0
    w = [(wx, wy, wz)]
    rx, ry, rz = rows[-1]
    for lx, ly, lz in reversed(rows[:-1]):
        wx = decay * wx + a * lx + b * rx
        wy = decay * wy + a * ly + b * ry
        wz = decay * wz + a * lz + b * rz
        w.append((wx, wy, wz))
        rx, ry, rz = lx, ly, lz
    return np.array(w[::-1])


def hp_integral(phi, control: ControlSignal, grid: TimeGrid):
    """int phi . u dt, exact in the piecewise-constant u, trapezoid in phi."""
    avg = 0.5 * (phi[:-1] + phi[1:])  # trapezoid average on each interval
    return float(grid.h * np.sum(avg * control.values))


def pmp_residual(phi, control: ControlSignal):
    """Fraction of decided (interval, component) pairs violating the
    bang-bang rule.

    A pair is decided when |phi_i| at the interval's left node exceeds the
    dead band 1e-8 * max|phi|; it is violated when u_i does not sit on the
    bound phi's sign selects.  Returns 0.0 if nothing is decided.
    """
    phi_left = phi[:-1]
    dead_band = 1.0e-8 * np.max(np.abs(phi))
    decided = np.abs(phi_left) > dead_band
    if not np.any(decided):
        return 0.0
    violated = decided & (control.values != control.bounds.bang_bang(phi_left))
    return float(np.count_nonzero(violated) / np.count_nonzero(decided))
