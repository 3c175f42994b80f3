"""The time-differentiated problem solves for the time derivative.

Differentiating the whole initial-boundary value problem r times in t gives
a problem of the same shape whose data follow a recurrence; by uniqueness
its solution must equal the r-th time derivative of the original solution.
That identity is checkable: solve both problems and compare the centered
r-th time difference of the base run against the shifted run.

A deliberately inconsistent shifted problem (initial velocity off by one)
serves as the negative control.
"""

from dataclasses import replace

from twopointwave import (
    ProblemParams,
    ladder_check,
    manufacture,
    smooth_data_from_manufactured,
    uniform_mesh,
)

params = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0,
                       ht0=0.01, ht1=0.01, lt0=0.1, lt1=0.1, K=1.0, lam=1.0)
ms = manufacture("decaying_cosine", params, alpha=1.0)

for r in (1, 2):
    data = smooth_data_from_manufactured(ms, r)
    for n_nodes, dt in ((65, 4e-3), (257, 1e-3)):
        report = ladder_check(data, params, uniform_mesh(n_nodes), ms.forcing(),
                              r=r, T=1.0, dt=dt)
        print(f"order r={r}, n_nodes={n_nodes:4d}, dt={dt:g}: "
              f"relative discrepancy {report.rel_discrepancy:.3e}")

print("\nnegative control: shift the level-1 initial velocity by +1")
data = smooth_data_from_manufactured(ms, 1)
level0 = data.forcing_derivs[0]
perturbed = replace(data, forcing_derivs=(
    replace(level0, f=lambda x, t: level0.f(x, t) + 1.0),) + data.forcing_derivs[1:])
report = ladder_check(perturbed, params, uniform_mesh(65), ms.forcing(),
                      r=1, T=1.0, dt=4e-3)
print(f"relative discrepancy {report.rel_discrepancy:.3e} (should be large)")
