"""
Two routes to the same bang-bang control
========================================

The projected-gradient method climbs the singlet yield with Barzilai-Borwein
steps and projects back into the prism; the maximum-principle iteration
resynthesizes the whole control from the sign of the switching function
in one sweep.  They discretize the same optimality condition, so on the
reference single-proton problem they must land on the same maximizer.
"""

from dataclasses import replace

from spinctrl import ExperimentConfig, compare_controls
from spinctrl.experiments import build_problem, run_single

cfg = ExperimentConfig()  # p=1, prism [3,6]^3 uT, gamma=1, v0=[3,3,3]

_, ipmp = run_single(replace(cfg, method="ipmp"))
print(f"ipmp: {ipmp.status} after {ipmp.iterations} iterations, "
      f"J = {ipmp.final_cost:.9f}")

# step_scale stretches the BB step; the dual tolerance is control-bound
# and needs the larger steps to settle inside a comparable budget
gpm_cfg = replace(cfg, method="gpm", gpm_step_scale=12.0)
_, gpm = run_single(gpm_cfg)
print(f"gpm:  {gpm.status} after {gpm.iterations} iterations, "
      f"J = {gpm.final_cost:.9f}")

h = build_problem(cfg).grid.h
u_ipmp, u_gpm = ipmp.final_control.values, gpm.final_control.values
gap = compare_controls(u_ipmp, u_gpm, ipmp.final_cost, gpm.final_cost, h=h)
print()
print(f"relative L2 control discrepancy: {gap.rel_ctrl:.4f}")
print(f"relative cost discrepancy:       {gap.rel_cost:.3e}")
print()
print("the costs agree to solver precision; the small control gap lives")
print("on the handful of intervals where the switching function crosses")
print("zero and the discrete sign is genuinely ambiguous")
