"""Estimating the convergence order from an iteration trace.

The estimator fits log e_[k+1] against log e_k per root and refuses to
fit saturated data.  Synthetic traces with known order come out exact;
real fourth-order runs in double precision usually saturate after two
usable pairs and honestly report n/a.
"""

from multiroots import (
    RootSystem,
    SolveConfig,
    TraceRecord,
    estimate_order,
    poly_from_roots,
    solve,
)


def trace_from_errors(errors):
    return tuple(
        TraceRecord(
            k=k, values=(complex(e),), residuals=(abs(e),),
            steps=None if k == 0 else (abs(errors[k] - errors[k - 1]),),
            frozen=(False,),
        )
        for k, e in enumerate(errors)
    )


origin = RootSystem((0.0,), (1,))

quadratic = trace_from_errors([0.5 ** (2 ** k) for k in range(7)])
print("synthetic quadratic sequence :", estimate_order(quadratic, origin))

quartic = trace_from_errors([0.9 ** (4 ** k) for k in range(6)])
print("synthetic quartic sequence   :", estimate_order(quartic, origin))

saturated = trace_from_errors([0.1 ** (4 ** k) for k in range(4)])
print("saturated quartic sequence   :", estimate_order(saturated, origin),
      " (dives under the noise floor after one pair)")

system = RootSystem(roots=(-2.0, 1.0, 3.0), multiplicities=(2, 1, 3))
poly = poly_from_roots(system)
config = SolveConfig(max_iterations=20, step_tolerance=1e-15,
                     residual_tolerance=1e-26)
report = solve(poly, system.multiplicities, (-3.0, 0.1, 4.0), config)
print("\nlive fourth-order run        :",
      estimate_order(report.trace, system))
print("double precision leaves only two usable pairs before machine "
      "precision, so per-root fits decline the data; the package reports "
      "n/a rather than an unreliable two-point slope.")
