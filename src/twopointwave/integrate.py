"""Time integration of the semi-discrete system.

The production scheme is the implicit midpoint rule: A-stable, second order,
and it conserves the quadratic energy exactly in the undamped limit, which
gives a free correctness probe.  scipy's DOP853 at tight tolerances, at tiny
dimension, serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array, hstack
from scipy.sparse.linalg import splu

from .errors import DimensionError, SingularMatrixError
from .galerkin import Forcing, GalerkinSystem, Mesh, load_vector, time_blocks

__all__ = [
    "Trajectory",
    "project_initial_data",
    "integrate",
    "oracle_integrate",
    "MidpointStepper",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states: row n of ``coeffs`` and ``velocities`` is the
    state at ``times[n]``."""

    times: np.ndarray
    coeffs: np.ndarray
    velocities: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def traces(self) -> np.ndarray:
        """Columns u(0,t), u(1,t), u'(0,t), u'(1,t): the end coefficients."""
        return np.column_stack([self.coeffs[:, 0], self.coeffs[:, -1],
                                self.velocities[:, 0], self.velocities[:, -1]])


def project_initial_data(mesh: Mesh, u0, u1) -> tuple[np.ndarray, np.ndarray]:
    """Nodal interpolants of the initial displacement and velocity."""
    c0 = np.broadcast_to(np.asarray(u0(mesh.nodes), dtype=float), mesh.nodes.shape).copy()
    v0 = np.broadcast_to(np.asarray(u1(mesh.nodes), dtype=float), mesh.nodes.shape).copy()
    return c0, v0


class MidpointStepper:
    """Implicit midpoint update with the iteration matrix factored once.

    With c' = v and M v' = F(t) - C_mat v - K_mat c, the midpoint velocity vm
    solves

        (M + dt/2*C_mat + dt^2/4*K_mat) vm = M v_n + dt/2*(F(t+dt/2) - K_mat c_n)

    and then v_{n+1} = 2*vm - v_n, c_{n+1} = c_n + dt*vm.  The step is fused on
    the stacked state z = (v, c): the right-hand side is one product
    R z + dt/2*F(t+dt/2) with R = [M | -dt/2*K_mat], built once next to the
    SuperLU factor of the iteration matrix, and the new state overwrites z.
    """

    def __init__(self, sys: GalerkinSystem, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.sys = sys
        self.dt = dt
        iteration_matrix = csc_array(sys.M + 0.5 * dt * sys.C_mat + 0.25 * dt * dt * sys.K_mat)
        try:
            self._lu = splu(iteration_matrix)
        except RuntimeError as exc:  # an exactly singular matrix
            raise SingularMatrixError(dt, str(exc)) from exc
        diag = np.abs(self._lu.U.diagonal())
        if not np.all(np.isfinite(diag)) or np.min(diag) <= 1e-14 * max(np.max(diag), 1.0):
            raise SingularMatrixError(dt)
        # csr_array first: hstack cannot take the dense blocks of a hand-built system
        self._R = hstack([csr_array(sys.M), csr_array(-0.5 * dt * sys.K_mat)], format="csr")

    def step(self, forcing: Forcing, c: np.ndarray, v: np.ndarray, t: float):
        z = np.concatenate([v, c])
        self.advance(z, 0.5 * self.dt * load_vector(self.sys, forcing, t + 0.5 * self.dt))
        return z[self.sys.m:], z[:self.sys.m]

    def advance(self, z: np.ndarray, half_dt_load: np.ndarray) -> None:
        """Overwrite the stacked state z = (v, c) with the state one step on,
        given dt/2 times the midpoint load F(t + dt/2)."""
        vm = self._lu.solve(self._R @ z + half_dt_load)
        v, c = z[:len(vm)], z[len(vm):]
        np.subtract(2.0 * vm, v, out=v)
        c += self.dt * vm


def _resolve_steps(T: float, dt: float) -> int:
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    if not math.isfinite(T / dt):
        raise ValueError(f"T={T} and dt={dt} give no finite step count")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T={T} is not an integral multiple of dt={dt}")
    return n_steps


def _start(sys: GalerkinSystem, c0, v0, T: float, dt: float, t0: float):
    """Checked initial vectors and the sample times t0 + k*dt, k = 0..T/dt."""
    times = t0 + dt * np.arange(_resolve_steps(T, dt) + 1)
    c0, v0 = np.asarray(c0, dtype=float), np.asarray(v0, dtype=float)
    if c0.shape != (sys.m,) or v0.shape != (sys.m,):
        raise DimensionError(f"initial vectors must have length {sys.m}")
    return c0, v0, times


def integrate(
    sys: GalerkinSystem,
    forcing: Forcing,
    c0: np.ndarray,
    v0: np.ndarray,
    T: float,
    dt: float,
    t0: float = 0.0,
) -> Trajectory:
    """Advance the system from (c0, v0) over [t0, t0+T] with fixed step dt.

    Each step is ``MidpointStepper.advance`` on one stacked state z = (v, c),
    the same update as ``MidpointStepper.step``; the states are copied from z
    into preallocated sample arrays.  The midpoint loads come from one
    ``load_vector`` call per block of steps (``time_blocks``).
    """
    c0, v0, times = _start(sys, c0, v0, T, dt, t0)
    stepper = MidpointStepper(sys, dt)
    C = np.empty((len(times), sys.m))
    V = np.empty((len(times), sys.m))
    C[0], V[0] = c0, v0
    z = np.concatenate([v0, c0])
    v, c = z[:sys.m], z[sys.m:]
    for block in time_blocks(sys, len(times) - 1):
        loads = load_vector(sys, forcing, times[block] + 0.5 * dt)
        loads *= 0.5 * dt
        for n, load in zip(range(block.start + 1, block.stop + 1), loads):
            stepper.advance(z, load)
            V[n] = v
            C[n] = c
    return Trajectory(times, C, V)


# The oracle is meant for tiny cross-check systems only; it works on dense
# copies of the operators.
ORACLE_MAX_DIM = 8


def oracle_integrate(
    sys: GalerkinSystem,
    forcing: Forcing,
    c0: np.ndarray,
    v0: np.ndarray,
    T: float,
    dt: float,
    t0: float = 0.0,
) -> Trajectory:
    """DOP853 (rtol 1e-12, atol 1e-14) on the first-order form, sampled every
    dt, for validation only.  A failed solve raises ArithmeticError."""
    import scipy.integrate  # here, not at the top: it adds 0.2 s to the package import

    m = sys.m
    if m > ORACLE_MAX_DIM:
        raise DimensionError(f"oracle supports m <= {ORACLE_MAX_DIM}, got {m}")
    c0, v0, times = _start(sys, c0, v0, T, dt, t0)
    M = sys.M.toarray()
    G = np.block([[np.zeros((m, m)), np.eye(m)],
                  [-np.linalg.solve(M, np.hstack([sys.K_mat.toarray(), sys.C_mat.toarray()]))]])
    homogeneous = forcing.f is None and forcing.g0 is None and forcing.g1 is None

    def rhs(t, z):
        dz = G @ z
        if not homogeneous:
            dz[m:] += np.linalg.solve(M, load_vector(sys, forcing, t))
        return dz

    sol = scipy.integrate.solve_ivp(rhs, (times[0], times[-1]), np.concatenate([c0, v0]),
                                    method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise ArithmeticError(f"oracle integration failed: {sol.message}")
    return Trajectory(times, sol.y[:m].T.copy(), sol.y[m:].T.copy())
