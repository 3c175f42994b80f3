"""Energy decay of the reference problem, monitored against the theory.

We integrate the damped wave equation with cross-coupled endpoint conditions
from u(x,0) = cos(pi x), u_t(x,0) = 0 and watch three things:

  1. the Lyapunov functional Gamma = E + delta*psi stays sandwiched between
     beta1*E and beta2*E at every sample,
  2. Gamma satisfies the dissipation inequality
     Gamma' <= -delta*Gamma + (forcing term),
  3. the energy decays at least as fast as the guaranteed rate delta.

All constants come from closed-form expressions in the problem parameters.
"""

import numpy as np

from twopointwave import (
    Forcing,
    ProblemParams,
    assemble,
    check_differential_inequality,
    check_sandwich,
    derive_constants,
    fit_decay_rate,
    integrate,
    project_initial_data,
    record_trajectory,
    uniform_mesh,
)

params = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0,
                       ht0=0.01, ht1=0.01, lt0=0.1, lt1=0.1, K=1.0, lam=1.0)
dc = derive_constants(params)
print("derived constants:")
print(f"  C0={dc.C0:g}  C1={dc.C1:g}  mu_min={dc.mu_min:g}  mu0={dc.mu0:g}")
print(f"  eps1={dc.eps1:g}  eps2={dc.eps2:g}  delta={dc.delta:g}")
print(f"  beta1={dc.beta1:g}  beta2={dc.beta2:g}  htilde_budget={dc.htilde_budget:g}")

sys = assemble(uniform_mesh(65), params)
c0, v0 = project_initial_data(sys.mesh, lambda x: np.cos(np.pi * x),
                              lambda x: np.zeros_like(x))
traj = integrate(sys, Forcing(), c0, v0, T=10.0, dt=1e-3)
records = record_trajectory(traj, sys, params, dc)

print(f"\nintegrated {traj.n_samples - 1} steps; "
      f"E(0)={records.E[0]:.4f}, E(T)={records.E[-1]:.3e}")

sandwich = check_sandwich(records, dc)
print(f"sandwich beta1*E <= Gamma <= beta2*E: {sandwich.violations} violations "
      f"(worst ratio {sandwich.worst_ratio:.2e})")

refined = integrate(sys, Forcing(), c0, v0, T=10.0, dt=5e-4)
refined_records = record_trajectory(refined, sys, params, dc)
diff = check_differential_inequality(records, dc, refined_records)
print(f"dissipation inequality: {diff.violations} violations "
      f"(worst margin {diff.worst_margin:.2e}, tolerance {diff.tolerance:.2e})")

fit = fit_decay_rate(records, theoretical_delta=dc.delta)
print(f"fitted decay rate over t in [{fit.fit_window[0]:g}, {fit.fit_window[1]:g}]: "
      f"{fit.fitted_rate:.4f} (guaranteed: {dc.delta:g}); "
      f"log-space misfit {fit.residual:.2e}")
print("note: log E is not a straight line here although the exponential "
      "*bound* holds with a large margin: late in the run the energy sits in "
      "the P1 mesh's near-cutoff modes, a spurious branch that decays at "
      "about lam/2 and that the continuous problem does not have "
      "(Infante & Zuazua 1999).")
