"""Optimal magnetic-field control of radical-pair singlet yield.

Builds the spin Hamiltonian of a two-electron / p-proton radical pair,
propagates the triplet-born ensemble and its costate under a low-pass
filtered control field, evaluates the singlet-yield functional and its
exact adjoint gradient, and searches for bang-bang optimal controls with
projected-gradient and maximum-principle fixed-point iterations.

The package re-exports what the demos and the README use; every other
name is imported from its module (spinctrl.dynamics, spinctrl.objective,
spinctrl.optimize, ...).
"""

from .dynamics import (
    ControlSignal,
    FilterConfig,
    Prism,
    TimeGrid,
    filter_field,
    integrate_forward,
)
from .experiments import (
    ExperimentConfig,
    compare_controls,
    gamma_sweep,
    run_single,
    uniqueness_study,
    yield_loss_table,
)
from .model import build_model, triplet_states

__version__ = "0.1.0"
