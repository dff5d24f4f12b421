"""
How fast a filter can you afford?
=================================

The low-pass filter v' = gamma (u - v) smooths the bang-bang control
before it reaches the spins.  A slow filter (small gamma) rounds the
switches off heavily and costs yield; as gamma grows the filtered optimum
climbs back toward the unfiltered one.  This sweep optimizes at each
gamma with the matched filter seed (v0 = the no-filter optimum's first
value, so the field starts where the ideal control would) and appends
the no-filter baseline.
"""

from spinctrl import ExperimentConfig, gamma_sweep

cfg = ExperimentConfig(v0="matched")
_, rows = gamma_sweep(cfg)  # (resolved config, rows)

print("gamma      J(gamma)       status")
for row in rows:
    print(f"{row.label:>8}   {row.cost:.9f}   {row.status}")

baseline = rows[-1].cost
print()
print(f"J(60) sits {100 * abs(baseline - rows[-2].cost) / baseline:.3f}% "
      "from the no-filter optimum: a fast enough filter is free")
