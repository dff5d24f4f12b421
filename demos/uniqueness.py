"""
The filter as a regularizer
===========================

On the sign-changing prism ([3,6] x [3,6] x [-1,2] uT) the unfiltered
problem is degenerate: different starting controls find different optimal
controls of nearly identical cost, and the maximum-principle iteration
oscillates between near-optimal twins instead of settling.  Switching the
gamma = 1 filter on collapses all of that: every one of the 54 grid
starts (two 27-point families around the vertices [6,6,-1] and [6,6,2])
converges to the one same bang-bang control, exactly.

All 54 runs share a single problem: one prism, one filter seed v0, only
the starting control varies.
"""

from dataclasses import replace

from spinctrl import ExperimentConfig, uniqueness_study
from spinctrl.experiments import PRISM_CASE_2, STUDY_VERTICES

base = ExperimentConfig(
    prism_lower=PRISM_CASE_2[0],
    prism_upper=PRISM_CASE_2[1],
    v0=(0.0, 0.0, 0.0),
)

for v0 in STUDY_VERTICES:
    study = uniqueness_study(replace(base, gamma=1.0, v0=v0))
    print(f"gamma=1, v0={list(v0)}: {study.classification}, "
          f"max pairwise control discrepancy {study.max_pairwise_ctrl:g}, "
          f"cost discrepancy {study.max_pairwise_cost:g}")

print()
nofilter = uniqueness_study(replace(base, filter_enabled=False))
split = nofilter.family_split
print(f"no filter: {nofilter.classification}; the two grid families land on")
print(f"distinct controls, relative L2 gap {split.rel_ctrl:.3f}, while the")
print(f"costs differ by only {split.rel_cost:.2e}")
print(f"statuses: {sorted(set(nofilter.statuses))} "
      "(the iteration bounces between twins; the best member is kept)")

print()
fast = uniqueness_study(replace(base, gamma=10.0, v0=STUDY_VERTICES[0]))
print(f"gamma=10: {fast.classification}; a fast filter inherits the")
print("degeneracy: every start ends on a period-2 cycle of near-equal costs")
