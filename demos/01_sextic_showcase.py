"""Showcase: all roots of a sextic with multiplicities 2, 1, 3 at once.

Builds (x+2)^2 (x-1) (x-3)^3 from its root system, starts from rough
guesses, and watches the simultaneous fourth-order iteration collapse the
error to machine precision in three sweeps.
"""

import math

from multiroots import RootSystem, SolveConfig, poly_from_roots, solve

roots = RootSystem(roots=(-2.0, 1.0, 3.0), multiplicities=(2, 1, 3))
poly = poly_from_roots(roots)
print("monic coefficients:", [c.real for c in poly.low_coefficients])

initial = (-3.0, 0.1, 4.0)
config = SolveConfig(max_iterations=20, step_tolerance=1e-15,
                     residual_tolerance=1e-26)
report = solve(poly, roots.multiplicities, initial, config)

print(f"\nstatus: {report.status.value} after {report.iterations_used} sweeps\n")
header = f"{'k':>3}" + "".join(f"{f'x{i + 1}':>26}" for i in range(3))
print(header)
for rec in report.trace:
    row = f"{rec.k:>3}" + "".join(f"{v.real:>26.18f}" for v in rec.values)
    print(row)

print("\nmax error against the true roots per sweep:")
for rec in report.trace:
    err = max(abs(rec.values[i] - roots.roots[i]) for i in range(3))
    print(f"  k={rec.k}:  {err:.3e}")

errs = [max(abs(rec.values[i] - roots.roots[i]) for i in range(3))
        for rec in report.trace]
slope = (math.log(errs[2]) - math.log(errs[1])) / (math.log(errs[1]) - math.log(errs[0]))
print(f"\nlog-log contraction slope over the first two sweeps: {slope:.2f}"
      "  (4 = quartic)")
