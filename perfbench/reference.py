"""Reference solutions the benchmark checks the program against.

The semi-discrete system is rebuilt here from its closed form (hat-function
mass and stiffness matrices plus the rank-one boundary couplings), without
calling the package, so a defect in the package's assembly shows up as a
distance from this reference rather than cancelling out.  It is propagated
exactly with ``scipy.linalg.expm`` when the forcing is zero and with
``solve_ivp`` (DOP853, rtol 1e-12) when the boundary forcing
g0(t) = amplitude * exp(-rate * t) is on.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def semi_discrete_generator(params: dict, n_nodes: int):
    """First-order generator G of z = (c, v) and M^-1 e0, for z' = G z + b(t)."""
    n, h = n_nodes, 1.0 / (n_nodes - 1)
    off = np.ones(n - 1)
    M = np.diag(np.full(n, 2.0 * h / 3.0)) + np.diag(off * h / 6.0, 1) + np.diag(off * h / 6.0, -1)
    M[0, 0] = M[-1, -1] = h / 3.0
    S = np.diag(np.full(n, 2.0 / h)) - np.diag(off / h, 1) - np.diag(off / h, -1)
    S[0, 0] = S[-1, -1] = 1.0 / h
    p = params
    A = S.copy()
    A[0, 0] += p["h0"]
    A[-1, -1] += p["h1"]
    D = np.zeros((n, n))
    D[0, 0], D[0, -1], D[-1, -1], D[-1, 0] = p["lam0"], p["lt1"], p["lam1"], p["lt0"]
    B = np.zeros((n, n))
    B[0, -1], B[-1, 0] = p["ht1"], p["ht0"]
    damping = p["lam"] * M + D
    stiffness = A + p["K"] * M + B
    G = np.zeros((2 * n, 2 * n))
    G[:n, n:] = np.eye(n)
    G[n:, :n] = -np.linalg.solve(M, stiffness)
    G[n:, n:] = -np.linalg.solve(M, damping)
    e0 = np.zeros(n)
    e0[0] = 1.0
    return G, np.linalg.solve(M, e0)


def boundary_traces(params: dict, n_nodes: int, amplitude: float, T: float, dt: float,
                    forcing_amplitude: float = 0.0, forcing_rate: float = 1.0) -> np.ndarray:
    """u(0, t) and u(1, t) on the grid t = k*dt, k = 0..T/dt, as an (N, 2) array.

    Initial data are the nodal interpolant of amplitude*cos(pi x) and zero
    velocity; boundary forcing enters the x=0 row as F = -g0(t) * e0.
    """
    n = n_nodes
    steps = int(round(T / dt))
    x = np.linspace(0.0, 1.0, n)
    z0 = np.concatenate([amplitude * np.cos(np.pi * x), np.zeros(n)])
    G, minv_e0 = semi_discrete_generator(params, n)
    if forcing_amplitude == 0.0:
        P = scipy.linalg.expm(G * dt)
        Z = np.empty((steps + 1, 2 * n))
        Z[0] = z0
        for k in range(steps):
            Z[k + 1] = P @ Z[k]
    else:
        def rhs(t, z):
            dz = G @ z
            dz[n:] -= forcing_amplitude * math.exp(-forcing_rate * t) * minv_e0
            return dz

        times = dt * np.arange(steps + 1)
        sol = scipy.integrate.solve_ivp(rhs, (0.0, times[-1]), z0, method="DOP853",
                                        t_eval=times, rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        Z = sol.y.T
    return Z[:, [0, n - 1]]


def relative_deviation(traces: np.ndarray, reference: np.ndarray) -> float:
    """max |traces - reference| / max |reference| over both trace columns."""
    return float(np.max(np.abs(traces - reference)) / np.max(np.abs(reference)))
