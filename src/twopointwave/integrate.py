"""Time integration of the semi-discrete system.

The production scheme is the implicit midpoint rule: A-stable, second order,
and it conserves the quadratic energy exactly in the undamped limit, which
gives a free correctness probe.  Runs that share the system and the step
advance together as the columns of one stacked state (``integrate_columns``;
``integrate`` is its one-column case), so that k runs take one sparse product
and one SuperLU solve per step instead of k.  scipy's DOP853 at tight
tolerances, at tiny dimension, serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csc_array, csr_array, hstack
from scipy.sparse.linalg import splu

from .errors import DimensionError, SingularMatrixError
from .galerkin import Forcing, GalerkinSystem, Mesh, load_vector, time_blocks

__all__ = [
    "Trajectory",
    "project_initial_data",
    "integrate",
    "integrate_columns",
    "oracle_integrate",
    "MidpointStepper",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states: row n of ``coeffs`` and ``velocities`` is the
    state at ``times[n]``.  From ``integrate_columns`` both are views into
    arrays that hold every run of the call."""

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
    z may also be a (2m, k) block of k states as columns, advanced by the
    same product and solve; each column is updated on its own.
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
        given dt/2 times the midpoint load F(t + dt/2); for a (2m, k) block
        z the load is (m, k), one column per state."""
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
    """Advance the system from (c0, v0) over [t0, t0+T] with fixed step dt:
    ``integrate_columns`` with one column."""
    return integrate_columns(sys, [forcing], [c0], [v0], T, dt, t0)[0]


def integrate_columns(
    sys: GalerkinSystem,
    forcings: Sequence[Forcing],
    c0s: Sequence[np.ndarray],
    v0s: Sequence[np.ndarray],
    T: float,
    dt: float,
    t0: float = 0.0,
) -> list[Trajectory]:
    """Advance k runs of one system with one step dt over [t0, t0+T]: run j
    starts from (c0s[j], v0s[j]) and is forced by forcings[j].

    The runs are the k columns of one stacked state Z = (V; C) of shape
    (2m, k), and each step is one ``MidpointStepper.advance`` on Z, the same
    update as ``MidpointStepper.step``.  Each column is updated on its own, so
    run j equals run j integrated alone, bit for bit, and an inf or NaN in one
    column leaves the others alone.  One column steps as the 1-d state
    Z[:, 0], which costs less per step than a (2m, 1) block.  The midpoint
    loads come from one ``load_vector`` call per run and block of steps
    (``time_blocks``).  The states are stored in one (k, N+1, m) array of
    coefficients and one of velocities, and the trajectory of run j views
    their slices j.
    """
    k = len(forcings)
    if k == 0 or len(c0s) != k or len(v0s) != k:
        raise DimensionError(f"need one forcing, c0 and v0 per run, got {k} forcings, "
                             f"{len(c0s)} c0 and {len(v0s)} v0")
    m = sys.m
    starts = [_start(sys, c0, v0, T, dt, t0) for c0, v0 in zip(c0s, v0s)]
    times = starts[0][2]
    # Two arrays, not one of width 2m: freeing one allocation twice as large
    # raises glibc's dynamic mmap and trim thresholds, and the heap then keeps
    # more memory resident.  With one array, perfbench's converge_ladder peak
    # RSS rose by 2.7%, and by nothing with MALLOC_MMAP_THRESHOLD_ pinned.
    CS, VS = np.empty((k, len(times), m)), np.empty((k, len(times), m))
    for j, (c0, v0, _) in enumerate(starts):
        CS[j, 0], VS[j, 0] = c0, v0
    stepper = MidpointStepper(sys, dt)
    Z = np.concatenate([VS[:, 0].T, CS[:, 0].T])
    state = Z[:, 0] if k == 1 else Z
    v, c = state[:m], state[m:]
    # row n is sample n of every run, shaped like v and c
    V_rows, C_rows = (VS[0], CS[0]) if k == 1 else (VS.transpose(1, 2, 0), CS.transpose(1, 2, 0))
    for block in time_blocks(sys, len(times) - 1):
        t = times[block] + 0.5 * dt
        loads = np.stack([load_vector(sys, f, t) for f in forcings], axis=-1)
        loads *= 0.5 * dt
        for n, load in zip(range(block.start + 1, block.stop + 1),
                           loads.reshape((len(t),) + v.shape)):
            stepper.advance(state, load)
            V_rows[n] = v
            C_rows[n] = c
    return [Trajectory(times, CS[j], VS[j]) for j in range(k)]


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
