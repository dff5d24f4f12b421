"""Bang-bang control search: projected gradient ascent and the iterative
maximum-principle fixed-point method.

Both methods maximize the singlet yield over piecewise-constant controls
confined to the prism.  The projected-gradient method (GPM) climbs along
the exact adjoint gradient with a Barzilai-Borwein step

    lambda_N = |<du, dg>| / ||dg||^2,   du = u^N - u^{N-1}, dg likewise,

projects back onto the prism after every update, and stops when the
relative cost change and the relative control change both fall under their
fixed tolerances GPM_EPS_COST and GPM_EPS_CTRL.  Both methods take their
iteration cap as the keyword max_iters, and GPM takes step_scale, a
multiplier on every Barzilai-Borwein step.

The iterative maximum-principle method (IPMP) replaces the line search by
the pointwise optimality condition: each sweep computes the switching
signal phi and synthesizes the next control

    u_i = M_i where phi_i > 0,   u_i = m_i where phi_i < 0,

keeping the previous value on exact zeros; phi is sampled at each
interval's left node.  A fixed point (synthesis returns its input) is an
exact PMP point.  The sweep map is deterministic and takes its values from
the bounds and u0, a finite set, so it reaches a fixed point or a cycle
(typically of period two at weak filtering).  IPMP stops on the first
candidate equal to an earlier iterate and reports the best-cost member; a
run that reaches max_iters first reports its best-cost iterate.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ControlSignal,
    FieldTrajectory,
    FilterConfig,
    Prism,
    StateEnsemble,
    TimeGrid,
    filter_field,
    integrate_adjoint,
    integrate_forward,
)
from .model import ModelAssembly
from .objective import singlet_yield, switching_function

logger = logging.getLogger(__name__)

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERS = "MaxIters"
STATUS_OSCILLATING = "Oscillating"

GPM_EPS_COST = 1.0e-5  # GPM stops when the relative cost change and
GPM_EPS_CTRL = 1.0e-5  # the relative control change both fall under these
GPM_MAX_ITERS = 200  # default iteration caps
IPMP_MAX_ITERS = 50


def control_inner(a, b, h):
    """L2 inner product of interval-wise control arrays, weight h."""
    return float(h * np.sum(np.asarray(a) * np.asarray(b)))


def control_norm(a, h):
    return float(np.sqrt(control_inner(a, a, h)))


def project_to_prism(values, prism: Prism):
    """Componentwise clamp onto the prism."""
    return prism.clip(values)


def bb_step(u_prev, u_cur, g_prev, g_cur, h, fallback):
    """Barzilai-Borwein step from successive controls and gradients.

    Falls back to `fallback` when the gradient change underflows.
    """
    du = np.asarray(u_cur) - np.asarray(u_prev)
    dg = np.asarray(g_cur) - np.asarray(g_prev)
    dg_norm_sq = control_inner(dg, dg, h)
    if dg_norm_sq < 1.0e-30:
        return fallback
    return abs(control_inner(du, dg, h)) / dg_norm_sq


def synthesize_bang_bang(phi, bounds: Prism, previous: ControlSignal):
    """Sign rule applied at each interval's left node of phi (steps+1, 3).

    Prism.bang_bang's bounds, except the previous value on an exact zero.
    """
    phi_left = phi[:-1]
    values = np.where(phi_left == 0.0, previous.values, bounds.bang_bang(phi_left))
    return ControlSignal(values=values, bounds=bounds)


@dataclass(frozen=True)
class ControlProblem:
    """Everything fixed during one optimization run."""

    assembly: ModelAssembly
    basis: np.ndarray  # triplet-born states, columns
    grid: TimeGrid
    prism: Prism
    filter_cfg: FilterConfig

    def evaluate(self, control: ControlSignal):
        """(field, forward ensemble, cost) for one control."""
        fields = filter_field(control, self.filter_cfg, self.grid)
        forward = integrate_forward(self.assembly, fields, self.basis, self.grid)
        cost = singlet_yield(forward, self.assembly, self.grid)
        return fields, forward, cost

    def gradient(self, fields: FieldTrajectory, forward: StateEnsemble):
        """(adjoint ensemble, switching signal phi) for an evaluated control."""
        adjoint = integrate_adjoint(self.assembly, fields, forward, self.grid)
        phi = switching_function(
            forward, adjoint, self.assembly, self.filter_cfg, self.grid
        )
        return adjoint, phi


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of one optimization run.

    cost_history[n] = J(u^n); its length is iterations + 1.  cycle_members
    holds the distinct controls of a detected cycle (oscillating runs only).
    """

    status: str
    iterations: int
    cost_history: np.ndarray
    final_control: ControlSignal
    final_field: FieldTrajectory
    final_cost: float
    final_switching: np.ndarray  # phi on the grid nodes, (steps+1, 3)
    cycle_members: tuple | None = None


def _first_step_size(prism: Prism, gradient):
    widths = prism.width[prism.width > 0]
    peak = np.max(np.abs(gradient))
    if widths.size == 0 or peak == 0.0:
        return 1.0
    return 0.1 * float(np.min(widths)) / float(peak)


def gpm_optimize(problem, u0, *, max_iters=GPM_MAX_ITERS, step_scale=1.0):
    """Projected gradient ascent from control u0 with Barzilai-Borwein steps
    times step_scale; the first step moves the control by 10% of the
    narrowest prism width."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if step_scale <= 0:
        raise ValueError("step_scale must be positive")
    h = problem.grid.h
    tiny = 1.0e-300
    u = u0
    u_prev = g_prev = None
    cost_history = []
    status = STATUS_MAX_ITERS
    for n in range(max_iters + 1):
        fields, forward, cost = problem.evaluate(u)
        # [1], not `_, phi =`: a bound adjoint would outlive the next solve
        phi = problem.gradient(fields, forward)[1]
        cost_history.append(cost)
        if n >= 1:
            rel_cost = abs(cost - cost_history[-2]) / max(abs(cost), tiny)
            rel_ctrl = control_norm(u.values - u_prev.values, h) / max(
                control_norm(u.values, h), tiny
            )
            logger.info(
                "gpm iter %d cost=%.10f rel_dcost=%.3e rel_dctrl=%.3e",
                n, cost, rel_cost, rel_ctrl,
            )
            if rel_cost < GPM_EPS_COST and rel_ctrl < GPM_EPS_CTRL:
                status = STATUS_CONVERGED
                break
        else:
            logger.info("gpm iter 0 cost=%.10f", cost)
        if n == max_iters:
            break
        # left-node sampling: the ascent then shares its fixed points with
        # the bang-bang synthesis rule, which reads phi at the same nodes
        grad = phi[:-1]
        if n == 0:
            step = lambda_first = _first_step_size(problem.prism, grad)
        else:
            step = step_scale * bb_step(
                u_prev.values,
                u.values,
                g_prev,
                grad,
                h,
                fallback=lambda_first,
            )
        updated = project_to_prism(u.values + step * grad, problem.prism)
        u_prev, g_prev = u, grad
        u = ControlSignal(values=updated, bounds=problem.prism)
    return OptimizerReport(
        status=status,
        iterations=n,
        cost_history=np.array(cost_history),
        final_control=u,
        final_field=fields,
        final_cost=cost,
        final_switching=phi,
    )


def ipmp_optimize(problem, u0, *, max_iters=IPMP_MAX_ITERS):
    """Fixed-point iteration on the maximum-principle sign rule from u0."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    iterates = [u0]
    costs = []
    solved = []  # (fields, phi) of each evaluated iterate

    def report(status, best, members=None):
        """Report on iterate `best` from its stored solve; costs already
        ends with J of the iterate the run stopped at."""
        fields, phi = solved[best]
        return OptimizerReport(
            status=status,
            iterations=len(costs) - 1,
            cost_history=np.array(costs),
            final_control=iterates[best],
            final_field=fields,
            final_cost=costs[best],
            final_switching=phi,
            cycle_members=members,
        )

    # the control of each iterate -> its index; + 0.0 turns -0.0 into 0.0,
    # so that controls which compare equal share a key
    visited = {(u0.values + 0.0).tobytes(): 0}
    for n in range(max_iters + 1):
        fields, forward, cost = problem.evaluate(iterates[n])
        costs.append(cost)
        phi = problem.gradient(fields, forward)[1]  # adjoint freed now, as in GPM
        solved.append((fields, phi))
        if n == max_iters:
            return report(STATUS_MAX_ITERS, int(np.argmax(costs)))
        candidate = synthesize_bang_bang(phi, problem.prism, iterates[n])
        flips = int(np.count_nonzero(candidate.values != iterates[n].values))
        logger.info("ipmp iter %d cost=%.10f flips=%d", n + 1, cost, flips)
        j = visited.setdefault((candidate.values + 0.0).tobytes(), n + 1)
        if j <= n:  # the candidate is iterate j, so the map repeats from j on
            costs.append(costs[j])
            if j == n:
                return report(STATUS_CONVERGED, n)
            members = tuple(iterates[j : n + 1])
            best = j + int(np.argmax(costs[j : n + 1]))
            logger.info(
                "ipmp cycle of period %d detected; keeping member with cost %.10f",
                len(members), costs[best],
            )
            return report(STATUS_OSCILLATING, best, members)
        iterates.append(candidate)
