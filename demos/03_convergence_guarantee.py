"""The sufficient-condition checker and the a-priori error bound.

For a root system and a pair (c, q), the checker decides whether every
start within c*q of the roots is guaranteed to contract like
c * q**(4**k).  The demo sweeps c to find the guarantee region, prints
the bound table, and spot-checks the bound against live runs.
"""

import math
import random

from multiroots import (
    RootSystem,
    SolveConfig,
    error_bound,
    poly_from_roots,
    solve,
    theorem_check,
)

system = RootSystem(roots=(-2.0, 1.0, 3.0), multiplicities=(2, 1, 3))
q = 0.5

print("guarantee sweep over the initial-radius constant c (q = 0.5):")
for c in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0):
    result = theorem_check(system, c, q)
    verdict = "guaranteed" if result.guaranteed else f"no guarantee ({result.reason})"
    lhs = "inf" if math.isinf(result.lhs) else f"{result.lhs:.3e}"
    print(f"  c={c:<6} lhs={lhs:<11} {verdict}")

c = 0.01
result = theorem_check(system, c, q)
print(f"\nwith c={c}: d={result.d}, n={result.n}, "
      f"M={result.M:.6f}, N={result.N:.6e}")

print("\na-priori bound c * q**(4**k):")
for k in range(4):
    print(f"  k={k}:  {error_bound(c, q, k):.3e}")

print("\nempirical check: 5 random starts within c*q of the roots")
rng = random.Random(1)
poly = poly_from_roots(system)
config = SolveConfig(max_iterations=30, step_tolerance=1e-15,
                     residual_tolerance=1e-24)
half = c * q / math.sqrt(2)
for trial in range(5):
    initial = tuple(r + complex(rng.uniform(-half, half), rng.uniform(-half, half))
                    for r in system.roots)
    report = solve(poly, system.multiplicities, initial, config)
    worst = []
    for k in (1, 2):
        rec = report.trace[k] if k < len(report.trace) else report.trace[-1]
        worst.append(max(abs(rec.values[i] - system.roots[i]) for i in range(3)))
    print(f"  run {trial}: {report.status.value:<10} "
          f"e1={worst[0]:.2e} (bound {error_bound(c, q, 1):.2e})  "
          f"e2={worst[1]:.2e} (bound {error_bound(c, q, 2):.2e})")
