"""Optimal magnetic-field control of radical-pair singlet yield.

Builds the spin Hamiltonian of a two-electron / p-proton radical pair,
propagates the triplet-born ensemble and its costate under a low-pass
filtered control field, evaluates the singlet-yield functional and its
exact adjoint gradient, and searches for bang-bang optimal controls with
projected-gradient and maximum-principle fixed-point iterations.
"""

from .dynamics import (
    ControlSignal,
    FieldTrajectory,
    FilterConfig,
    IntegrationOverflow,
    Prism,
    StateEnsemble,
    TimeGrid,
    constant_control,
    filter_field,
    integrate_adjoint,
    integrate_forward,
)
from .experiments import (
    ConfigError,
    ControlComparison,
    ExperimentConfig,
    SweepRow,
    UniquenessReport,
    YieldLossRow,
    compare_controls,
    config_from_dict,
    gamma_sweep,
    grid_initializers,
    grid_points,
    resolve_matched_v0,
    run_single,
    simulate,
    uniqueness_study,
    yield_loss_table,
)
from .model import (
    GYRO_DEFAULT,
    MT_PER_UT,
    ModelAssembly,
    PhysicalConstants,
    TripletBasis,
    build_model,
    default_hyperfine,
    triplet_states,
)
from .objective import (
    SwitchingSignal,
    hp_density,
    hp_integral,
    pmp_residual,
    singlet_yield,
    switching_function,
)
from .optimize import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_OSCILLATING,
    ControlProblem,
    GpmSettings,
    IpmpSettings,
    OptimizerReport,
    bb_step,
    control_inner,
    control_norm,
    gpm_optimize,
    ipmp_optimize,
    project_to_prism,
    synthesize_bang_bang,
)
from .spin import SpinSystem, build_projectors, build_spin_system, kron

__version__ = "0.1.0"
