"""Time grid, control/field containers, the field filter, and RK4 integrators.

Controls are piecewise constant on a uniform grid of `steps` intervals over
[0, t_final] and take values in a box ("prism") [m, M] per component, in uT.
The physical field v seen by the spins is either the control itself
(no-filter mode) or the response of a first-order low-pass filter

    dv/dt + gamma v = gamma u,    v(0) = v0,

integrated exactly: with u = u_k constant on [t_k, t_{k+1}], the nodes
follow one by one at s = h, then every midpoint at s = h/2 from its node,

    v(t_k + s) = u_k + (v(t_k) - u_k) * exp(-gamma s).

States evolve under i dpsi/dt = H(v) psi and costates under
i dchi/dt = H*(v) chi - i (k_S/2) P_S psi, chi(T) = 0 (hbar = 1).  Both are
integrated with classical RK4; within a step the field enters through its
value at the left node, the interval midpoint (used twice), and the right
node.  In no-filter mode all three stage values equal the interval's
control value, so the generator is constant per step.  The costate source
needs psi between stored nodes; the midpoint is approximated by the average
of the bracketing nodes, which keeps the overall scheme second-order
consistent with the quadratures used downstream.

Field samples are stored in uT everywhere in this module; they are scaled
by MT_PER_UT exactly once, where stage values are handed to the Zeeman
generators.  A runaway integration raises IntegrationOverflow instead of
returning garbage.  K is positive semidefinite, so a state's norm never
grows, yet RK4 on too coarse a grid grows it: the forward sweep stops where
a norm passes its start by NORM_SLACK.  The costate's source term lets it
grow, so the adjoint sweep stops where an amplitude passes OVERFLOW_LIMIT.

Only the state recursion runs step by step.  Everything that does not
depend on the running state is built for a block of steps at once: the
stage generators G = -i (drift + v . Z), with the drift H_hfi -/+ iK of
ModelAssembly.drift and -i folded into it and into Z once per call, come
from one tensordot over the stacked field samples (node and midpoint
values when filtered, one value per interval in no-filter mode), and the
adjoint's singlet sources P_S psi at the nodes and P_S (psi_l + psi_r)/2 at
the midpoints from one stacked matmul.  One RK4 step, _rk4, serves both
forms and both directions; the costate steps by -h.  Up to STEP_MATRIX_DIM
(p <= 2), where numpy's per-call overhead rather than flops binds the
stage loop, it runs once per block from y = I, folding each step into one
matrix S = I + (h/6)(K1 + 2 K2 + 2 K3 + K4), with K1 = G_l,
K2 = G_m (I + h/2 K1), K3 = G_m (I + h/2 K2), K4 = G_r (I + h K3); a state
step is then one matmul.  The costate's sources do not depend on it, so
their affine part is the same step from y = 0, and a costate step is one
matmul and one add.  A matrix costs about 3 n^3 flops against 3 n^2 per
state for the stages, so larger n keeps the stage loop, which takes the
step once per node from the running state.

A block holds as many steps as keep one (steps, n, n) complex stack within
BLOCK_BYTES (BLOCK_BYTES / 8 for step matrices; at least one step), so
memory does not grow with the grid or with p.  The guard runs once per
block and names the first node, in integration order, that passed its
bound.

Neither form may depend on the block size, bit for bit: the stacked
tensordot and matmuls give the same rows as one-row calls.  The step
matrices are the same scheme, with the same stage samples and sources, in
another floating-point order, so they agree with the stage loop to rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import MT_PER_UT, ModelAssembly

OVERFLOW_LIMIT = 1.0e6
# Relative norm growth forgiven as rounding.  No norm grew on stable grids
# at p = 1..5; on unstable ones the least growth seen was 27%.
NORM_SLACK = 1.0e-9
# Byte cap of one blocked temporary: a stacked (steps, n, n) complex
# generator array here, the per-node products of objective's contractions
# there.  256 KiB holds the whole default grid at p = 1; on the CLI
# benchmark, 64 KiB and 512 KiB to 1 MiB blocks raised peak RSS by 5-8%
# over step-by-step generators, 256 KiB did not.
BLOCK_BYTES = 1 << 18
# Largest state dimension (p <= 2) whose RK4 steps are folded into
# matrices: at p = 3 the two forms tied, at p = 4 and 5 the step matrices
# were 12-100% slower than the stage loop.
STEP_MATRIX_DIM = 16


class IntegrationOverflow(RuntimeError):
    """A state norm grew, or a costate amplitude passed OVERFLOW_LIMIT."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: `steps` intervals on [0, t_final] (us)."""

    t_final: float
    steps: int

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    @property
    def h(self):
        return self.t_final / self.steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.t_final, self.steps + 1)


@dataclass(frozen=True)
class Prism:
    """Per-component control box [lower, upper], uT."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper"):
            value = np.asarray(getattr(self, name), dtype=float).reshape(3)
            object.__setattr__(self, name, value)
        if np.any(self.lower > self.upper):
            raise ValueError("prism lower bound exceeds upper bound")

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, values, tol=0.0):
        values = np.asarray(values, dtype=float)
        return bool(
            np.all(values >= self.lower - tol)
            and np.all(values <= self.upper + tol)
        )

    def clip(self, values):
        return np.clip(np.asarray(values, dtype=float), self.lower, self.upper)

    def bang_bang(self, phi):
        """The maximum-principle sign rule: upper bound where phi > 0,
        lower bound elsewhere."""
        return np.where(phi > 0.0, self.upper, self.lower)


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: values[k] on interval k, uT."""

    values: np.ndarray  # (steps, 3)
    bounds: Prism

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 3:
            raise ValueError(
                f"control values must have shape (steps, 3), got {values.shape}"
            )
        object.__setattr__(self, "values", values)
        if not self.bounds.contains(values, tol=1.0e-12):
            raise ValueError("control values leave the prism")


def constant_control(vector, grid, bounds):
    """Control equal to `vector` (uT) on every interval."""
    vector = np.asarray(vector, dtype=float).reshape(3)
    return ControlSignal(
        values=np.tile(vector, (grid.steps, 1)), bounds=bounds
    )


@dataclass(frozen=True)
class FilterConfig:
    """First-order filter: rate gamma (us^-1), initial field v0 (uT).

    enabled=False selects the no-filter model v = u; gamma and v0 are
    then ignored by the dynamics.
    """

    gamma: float = 1.0
    v0: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0, 3.0]))
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and self.gamma <= 0:
            raise ValueError("filter rate gamma must be positive")
        object.__setattr__(
            self, "v0", np.asarray(self.v0, dtype=float).reshape(3)
        )


@dataclass(frozen=True)
class FieldTrajectory:
    """Field samples (uT) on nodes and interval midpoints.

    piecewise_constant marks the no-filter case, where the field on an
    interval is a single value (stored in midpoint_values) and node samples
    follow the left-interval convention.
    """

    node_values: np.ndarray  # (steps + 1, 3)
    midpoint_values: np.ndarray  # (steps, 3)
    piecewise_constant: bool = False

    @property
    def steps(self):
        return self.midpoint_values.shape[0]


def filter_field(control: ControlSignal, cfg: FilterConfig, grid: TimeGrid):
    """Exact filter response of a piecewise-constant control.

    Uses the per-interval closed form, so node and midpoint samples carry
    no quadrature error.  With cfg.enabled False, returns the control
    itself as a piecewise-constant trajectory.
    """
    u = control.values
    if u.shape[0] != grid.steps:
        raise ValueError(
            f"control has {u.shape[0]} intervals, grid expects {grid.steps}"
        )
    if not cfg.enabled:
        nodes = np.vstack([u, u[-1:]])
        return FieldTrajectory(
            node_values=nodes,
            midpoint_values=u.copy(),
            piecewise_constant=True,
        )
    h = grid.h
    full = float(np.exp(-cfg.gamma * h))
    half = float(np.exp(-cfg.gamma * h / 2.0))
    # The node recursion runs over Python floats (numpy ops on 3-vectors
    # cost more than the arithmetic); the midpoints follow from the nodes in
    # one numpy step.  Both compute u + (v - u) * decay in this order.
    x, y, z = cfg.v0.tolist()
    nodes = [(x, y, z)]
    for ux, uy, uz in u.tolist():
        x, y, z = ux + (x - ux) * full, uy + (y - uy) * full, uz + (z - uz) * full
        nodes.append((x, y, z))
    nodes = np.array(nodes)
    return FieldTrajectory(nodes, u + (nodes[:-1] - u) * half)


def _check_amplitude(sizes, bound, first, h, backward=False):
    """Raise IntegrationOverflow at the first node in integration order
    where a column's size passes its bound (or is not finite).

    sizes[i, l] is the norm or peak amplitude of column l at grid node
    first + i, and bound is one number or one per column; a backward sweep
    reaches the last node first.
    """
    bad = np.flatnonzero(~np.all(sizes <= bound, axis=1))
    if bad.size:
        i = bad[-1] if backward else bad[0]
        raise IntegrationOverflow(
            f"state size {sizes[i].max():.3e} passed its bound at "
            f"t={(first + i) * h:.6f} us (RK4 unstable: refine steps)"
        )


def _blocks(rows, row_bytes):
    """(start, stop) ranges over `rows` rows of `row_bytes` bytes each, as
    many rows per range as stay within BLOCK_BYTES (at least one)."""
    size = max(1, BLOCK_BYTES // row_bytes)
    return [(k, min(k + size, rows)) for k in range(0, rows, size)]


def _step_blocks(dim, steps):
    """(whether steps are folded into matrices, block ranges over the grid).
    Forming the step matrices holds about eight (steps, n, n) stacks at
    once, so each is capped at BLOCK_BYTES / 8."""
    folded = dim <= STEP_MATRIX_DIM
    return folded, _blocks(steps, (128 if folded else 16) * dim**2)


def _stage_generators(drift, zeeman, fields, start, stop):
    """(left, mid, right) RK4 stage generators drift + v . Z of steps
    start..stop-1, each (stop - start, n, n), from one tensordot per set of
    field samples (v in mT)."""
    mid = drift + np.tensordot(
        fields.midpoint_values[start:stop] * MT_PER_UT, zeeman, axes=1
    )
    if fields.piecewise_constant:
        return mid, mid, mid
    nodes = drift + np.tensordot(
        fields.node_values[start : stop + 1] * MT_PER_UT, zeeman, axes=1
    )
    return nodes[:-1], mid, nodes[1:]


def _rk4(mid, last, step, y, k1, src_mid=0.0, src_last=0.0):
    """One RK4 step by signed `step` on dy/dt = G y + b from y, given its
    first stage k1; G, b are mid, src_mid at the midpoint and last, src_last
    at the far end.  Batched: y = I and k1 = G give step matrices, y = 0 and
    k1 = b their sources' shifts, a state and its k1 one stage-loop step."""
    k2 = mid @ (y + 0.5 * step * k1) + src_mid
    k3 = mid @ (y + 0.5 * step * k2) + src_mid
    k4 = last @ (y + step * k3) + src_last
    return y + step / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


@dataclass(frozen=True)
class StateEnsemble:
    """Node snapshots of an ensemble: states[k, :, l] = psi^l(t_k)."""

    states: np.ndarray  # (steps + 1, dim, count) complex


def integrate_forward(
    assembly: ModelAssembly,
    fields: FieldTrajectory,
    basis: np.ndarray,
    grid: TimeGrid,
):
    """Propagate each triplet-born state (column of basis) with RK4."""
    h = grid.h
    drift, zeeman = -1.0j * assembly.drift(), -1.0j * assembly.zeeman
    out = np.empty((grid.steps + 1,) + basis.shape, dtype=complex)
    out[0] = basis
    bound = np.linalg.norm(out[0], axis=0) * (1.0 + NORM_SLACK)
    folded, blocks = _step_blocks(assembly.dim, grid.steps)
    eye = np.eye(assembly.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in blocks:
            left, mid, right = _stage_generators(drift, zeeman, fields, start, stop)
            if folded:
                maps = _rk4(mid, right, h, eye, left)
                for j in range(start, stop):
                    np.matmul(maps[j - start], out[j], out=out[j + 1])
            else:
                for j in range(start, stop):
                    k = j - start
                    out[j + 1] = _rk4(mid[k], right[k], h, out[j], left[k] @ out[j])
            norms = np.linalg.norm(out[start + 1 : stop + 1], axis=1)
            _check_amplitude(norms, bound, start + 1, h)
    return StateEnsemble(states=out)


def integrate_adjoint(
    assembly: ModelAssembly,
    fields: FieldTrajectory,
    forward: StateEnsemble,
    grid: TimeGrid,
):
    """Integrate the costate backward from chi(T) = 0 with RK4.

    The singlet source -(k_S / 2) P_S psi(t) is evaluated at stored
    nodes and, at stage midpoints, from the average of the bracketing
    forward snapshots.
    """
    if forward.states.shape[0] != grid.steps + 1:
        raise ValueError("forward trajectory does not match the grid")
    h = grid.h
    src_coef = -assembly.k_singlet / 2.0
    drift, zeeman = -1.0j * assembly.drift(adjoint=True), -1.0j * assembly.zeeman
    p_s = assembly.projector_singlet
    out = np.empty_like(forward.states)
    out[-1] = 0.0
    folded, blocks = _step_blocks(assembly.dim, grid.steps)
    eye = np.eye(assembly.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in reversed(blocks):
            left, mid, right = _stage_generators(drift, zeeman, fields, start, stop)
            psi = forward.states[start : stop + 1]
            src_node = src_coef * (p_s @ psi)
            src_mid = src_coef * (p_s @ (0.5 * (psi[:-1] + psi[1:])))
            if folded:
                # chi(t_j) = R_j chi(t_j+1) + c_j: the sources do not depend
                # on chi, so every c_j is the sweep of one step from chi = 0.
                maps = _rk4(mid, left, -h, eye, right)
                shifts = _rk4(mid, left, -h, 0.0, src_node[1:], src_mid, src_node[:-1])
                for j in range(stop - 1, start - 1, -1):
                    np.matmul(maps[j - start], out[j + 1], out=out[j])
                    out[j] += shifts[j - start]
            else:
                for j in range(stop - 1, start - 1, -1):
                    k = j - start
                    k1 = right[k] @ out[j + 1] + src_node[k + 1]
                    out[j] = _rk4(
                        mid[k], left[k], -h, out[j + 1], k1, src_mid[k], src_node[k]
                    )
            peaks = np.abs(out[start:stop]).max(axis=1)
            _check_amplitude(peaks, OVERFLOW_LIMIT, start, h, backward=True)
    return StateEnsemble(states=out)
