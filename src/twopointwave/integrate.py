"""Time integration of the semi-discrete system.

The production scheme is the implicit midpoint rule: A-stable, second order,
and it conserves the quadratic energy exactly in the undamped limit, which
gives a free correctness probe.  A system with at most ``DENSE_MAX_DIM``
unknowns steps with its dense one-step propagator P, built with numpy alone:
a forced run takes one matrix-vector product per step, and an unforced run
advances BLOCK_STEPS steps at a time by the increments P^j - I, one
matrix-vector product per block and one matrix product per BLOCK_ANCHORS
blocks.  A larger system steps with one sparse product and one SuperLU solve,
and only that path imports ``scipy.sparse``.  Runs that share the system and
the step advance together (``integrate_columns``; ``integrate`` is its
one-column case): on the sparse side as the columns of one stacked state, so
that k runs take one product and one solve per step instead of k.  scipy's
DOP853 at tight tolerances, at tiny dimension, serves as an independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

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


# Systems with at most this many unknowns step with the dense propagator: the
# largest measured m at which no number of runs up to scenario.MAX_COLUMNS
# stepped more than 5% slower on it than on the sparse step.  Per step of
# integrate_columns for k runs with boundary_exp forcing, in us, sparse /
# dense (m = n nodes; 2 cores, one BLAS thread, median of 3 runs of best of
# 7; BENCH_19.json also holds the unforced runs and the construction costs):
#
#       n     k = 1         k = 3          k = 4
#       2   15.7 /  3.9   20.7 /  10.6   21.6 /  19.6
#       9   13.6 /  3.8   20.4 /  12.0   21.8 /  14.9
#      33   15.6 /  4.9   22.1 /  14.5   25.3 /  19.9
#      65   17.2 /  7.9   24.7 /  20.8   29.9 /  30.5
#      73                                29.2 /  30.4
#      81                                29.1 /  36.4
#     129   18.2 / 16.0   31.4 /  44.7   36.6 /  66.1
#     257   21.6 / 70.0   56.0 / 270.1   57.1 / 341.4
DENSE_MAX_DIM = 73

# An unforced run on the dense path advances BLOCK_STEPS steps at a time from
# anchor states and fills in the states between BLOCK_ANCHORS anchors with one
# matrix product (MidpointStepper.propagate).  integrate of the reference
# problem (10^4 unforced steps), in ms, and distance from a long-double loop
# of the same map over its first 2000 steps, relative to the largest value,
# by BLOCK_STEPS / BLOCK_ANCHORS (2 cores, one BLAS thread, best of 7; one
# advance per step took 20.6 / 29.5 / 45.5 / 51.5 ms):
#
#       n      4/32           8/32           16/32          32/32
#       2    5.3 5.5e-16   3.3 3.9e-16   1.9 2.2e-16   1.3 2.3e-16
#      33    9.3 3.9e-14   6.5 2.4e-14   6.2 3.1e-14   5.8 2.5e-14
#      65   19.7 2.2e-13  17.7 1.3e-13  16.6 7.8e-14  17.8 1.3e-13
#      73   23.7 2.2e-13  20.9 1.4e-13  19.3 1.0e-13  20.8 1.1e-13
#
# At 16 steps, 16 / 32 / 64 anchors took 20.2 / 16.6 / 15.6 ms at n=65.  The
# block increments hold (2m)^2 * (BLOCK_STEPS - 1) doubles, 2.0 MB at n=65;
# the chunk products write into the trajectory itself.
BLOCK_STEPS = 16
BLOCK_ANCHORS = 32


def _unforced(forcing: Forcing) -> bool:
    return forcing.f is None and forcing.g0 is None and forcing.g1 is None


def _lu_pivots(a: np.ndarray) -> np.ndarray:
    """|U_ii| of the LU factorisation with partial pivoting of the square
    array ``a``; NaN if an entry of ``a`` is not finite."""
    if not np.all(np.isfinite(a)):
        return np.array([np.nan])
    u = a.copy()
    for k in range(len(u) - 1):
        p = k + np.argmax(np.abs(u[k:, k]))
        u[[k, p]] = u[[p, k]]
        if u[k, k] != 0.0:
            u[k + 1:, k + 1:] -= np.outer(u[k + 1:, k] / u[k, k], u[k, k + 1:])
    return np.abs(np.diagonal(u))


def _require_regular(dt: float, pivots: np.ndarray) -> None:
    """Raise SingularMatrixError unless every pivot is finite and above
    1e-14 of the largest (or of 1)."""
    if not np.all(np.isfinite(pivots)) or np.min(pivots) <= 1e-14 * max(np.max(pivots), 1.0):
        raise SingularMatrixError(dt)


class MidpointStepper:
    """Implicit midpoint update with the iteration matrix factored once.

    With c' = v and M v' = F(t) - C_mat v - K_mat c, the midpoint velocity vm
    solves

        J vm = M v_n + dt/2*(F(t+dt/2) - K_mat c_n),  J = M + dt/2*C_mat + dt^2/4*K_mat,

    and then v_{n+1} = 2*vm - v_n, c_{n+1} = c_n + dt*vm.  The step is fused on
    the stacked state z = (v, c), and the new state overwrites z: with
    R = [M | -dt/2*K_mat], vm = J^-1 (R z + dt/2*F(t+dt/2)).  J is refused
    (SingularMatrixError) when a pivot of its LU factorisation is not finite
    or is at most 1e-14 times the largest pivot (or 1).  The step takes one of
    two paths, by the number m of unknowns:

    - m <= DENSE_MAX_DIM (``dense``): with Q = [Q_v | Q_c] = J^-1 R, the
      step is z <- P z + (2w; dt*w), where P = [[2 Q_v - I, 2 Q_c],
      [dt Q_v, I + dt Q_c]] is the dense one-step propagator and
      w = J^-1 (dt/2*F(t+dt/2)).  It is applied as z <- z + (D z + (2w; dt*w))
      with D = P - I: one matrix-vector product per step.  z is one state;
      the load term is skipped when the load is zero.  numpy builds it all:
      a partial-pivot LU gives the pivots, and one ``np.linalg.solve`` gives
      D's blocks and J^-1, which maps each load to its w.  ``propagate``
      fills in a whole unforced run by blocks of BLOCK_STEPS steps, from the
      increments D_j = P^j - I, which the stepper builds on first use.
    - otherwise each step is one sparse product R z and one SuperLU solve,
      whose U gives the pivots; this path imports ``scipy.sparse``.  z may
      also be a (2m, k) block of k states as columns, advanced by the same
      product and solve; each column is updated on its own.
    """

    def __init__(self, sys: GalerkinSystem, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.sys = sys
        self.dt = dt
        iteration_matrix = sys.M + 0.5 * dt * sys.C_mat + 0.25 * dt * dt * sys.K_mat
        self.dense = sys.m <= DENSE_MAX_DIM
        if self.dense:
            J = iteration_matrix.toarray()
            _require_regular(dt, _lu_pivots(J))
            # [E | Q_c | J^-1] = J^-1 [M - J | -dt/2*K_mat | I], E solved for
            # directly rather than taken as Q_v - I, so that its small entries
            # keep their relative precision, and refined by one step on the
            # residual: over 1000 steps at n=65 that halves the distance to a
            # long-double run of the same map (1.0e-12 to 4.1e-13 of max |v|)
            blocks = (0.5 * dt * sys.C_mat + 0.25 * dt * dt * sys.K_mat, 0.5 * dt * sys.K_mat)
            rhs = np.hstack([-b.toarray() for b in blocks] + [np.eye(sys.m)])
            X = np.linalg.solve(J, rhs)
            X += np.linalg.solve(J, rhs - J @ X)
            E, Q_c, self._inverse = np.hsplit(X, 3)
            self._D = np.block([[2.0 * E, 2.0 * Q_c], [dt * (np.eye(sys.m) + E), dt * Q_c]])
            self._change = np.empty(2 * sys.m)
        else:
            from scipy.sparse import hstack
            from scipy.sparse.linalg import splu

            try:
                self._lu = splu(iteration_matrix.tocsr().tocsc())
            except RuntimeError as exc:  # an exactly singular matrix
                raise SingularMatrixError(dt, str(exc)) from exc
            _require_regular(dt, np.abs(self._lu.U.diagonal()))
            self._R = hstack([sys.M.tocsr(), (-0.5 * dt * sys.K_mat).tocsr()], format="csr")

    def step(self, forcing: Forcing, c: np.ndarray, v: np.ndarray, t: float):
        z = np.concatenate([v, c])
        load = 0.5 * self.dt * load_vector(self.sys, forcing, t + 0.5 * self.dt)
        self.advance(z, self.forcing_terms(load[None])[0])
        return z[self.sys.m:], z[:self.sys.m]

    def forcing_terms(self, half_dt_loads: np.ndarray):
        """What ``advance`` adds at each step of a block, given dt/2 times the
        midpoint loads F(t + dt/2), one row per step (shape (steps, m), or
        (steps, m, k) for a block of k states): on the sparse side the loads;
        on the dense side the rows (2w; dt*w), w = J^-1 times each row, one
        matrix-vector product per row (so a row's w does not depend on the
        block it is in), or None per step when every load of the block is
        zero."""
        if not self.dense:
            return half_dt_loads
        if not half_dt_loads.any():
            return [None] * len(half_dt_loads)
        w = np.matmul(self._inverse, half_dt_loads[..., None])[..., 0]
        return np.concatenate([2.0 * w, self.dt * w], axis=1)

    def advance(self, z: np.ndarray, term) -> None:
        """Overwrite the stacked state z = (v, c) with the state one step on;
        ``term`` is the step's row of ``forcing_terms``."""
        if self.dense:
            np.matmul(self._D, z, out=self._change)
            if term is not None:
                self._change += term
            z += self._change
            return
        vm = self._lu.solve(self._R @ z + term)
        v, c = z[:len(vm)], z[len(vm):]
        np.subtract(2.0 * vm, v, out=v)
        c += self.dt * vm

    @cached_property
    def _block_increments(self):
        """D_B and, for the v and the c half of the state, the (2m, (B-1)*m)
        arrays whose column block j-1 is that half of D_j transposed, where
        D_j = P^j - I and B = BLOCK_STEPS.  Built once, from
        D_{j+1} = D_j + D (I + D_j), never from the powers P^j themselves."""
        m, D = self.sys.m, self._D
        G = np.empty((2, 2 * m, BLOCK_STEPS - 1, m))
        D_j, identity = D, np.eye(2 * m)
        for j in range(BLOCK_STEPS - 1):
            G[0, :, j], G[1, :, j] = D_j[:m].T, D_j[m:].T
            D_j = D_j + D @ (identity + D_j)
        G = G.reshape(2, 2 * m, -1)
        return D_j, G[0], G[1]

    def propagate(self, V: np.ndarray, C: np.ndarray) -> None:
        """Fill rows 1.. of V and C, the velocities and coefficients of one
        unforced run on the dense side (row 0 holds its start), with the
        states one step apart: z_n = P^n z_0.

        The anchors a_k = z_{kB} (B = BLOCK_STEPS) follow from
        a_{k+1} = a_k + D_B a_k, one matrix-vector product per block, and
        the states in between, z_{kB+j} = a_k + D_j a_k, from one matrix
        product per BLOCK_ANCHORS anchors, written straight into V and C.
        The steps after the last anchor, fewer than B, are ``advance``
        steps; a restart from an anchor therefore repeats the run bit for
        bit, one from another state to roundoff."""
        m, B = self.sys.m, BLOCK_STEPS
        blocks = (len(V) - 1) // B
        anchors = np.empty((BLOCK_ANCHORS + 1, 2 * m))
        anchors[0, :m], anchors[0, m:] = V[0], C[0]
        for start in range(0, blocks, BLOCK_ANCHORS):
            D_B, G_v, G_c = self._block_increments
            count = min(BLOCK_ANCHORS, blocks - start)
            for a, a_next in zip(anchors[:count], anchors[1:count + 1]):
                np.matmul(D_B, a, out=a_next)
                a_next += a
            # rows kB .. kB+B-1 of anchor k as one row of B*m values: the
            # anchor, then the B-1 states after it
            for rows, G, half in ((V, G_v, slice(None, m)), (C, G_c, slice(m, None))):
                chunk = rows[start * B:(start + count) * B].reshape(count, B * m)
                np.matmul(anchors[:count], G, out=chunk[:, m:])
                chunk = chunk.reshape(count, B, m)
                chunk[:, 1:] += anchors[:count, None, half]
                chunk[:, 0] = anchors[:count, half]
            anchors[0] = anchors[count]
        z = anchors[0].copy()
        V[blocks * B], C[blocks * B] = z[:m], z[m:]
        for n in range(blocks * B + 1, len(V)):
            self.advance(z, None)
            V[n], C[n] = z[:m], z[m:]


def _resolve_steps(T: float, dt: float) -> int:
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    if not math.isfinite(T / dt):
        raise ValueError(f"T={T} and dt={dt} give no finite step count")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T={T} is not an integral multiple of dt={dt}")
    return n_steps


def _start(sys: GalerkinSystem, c0, v0, T: float, dt: float):
    """Checked initial vectors and the sample times k*dt, k = 0..T/dt."""
    times = dt * np.arange(_resolve_steps(T, dt) + 1)
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
) -> Trajectory:
    """Advance the system from (c0, v0) over [0, T] with fixed step dt:
    ``integrate_columns`` with one column."""
    return integrate_columns(sys, [forcing], [c0], [v0], T, dt)[0]


def integrate_columns(
    sys: GalerkinSystem,
    forcings: Sequence[Forcing],
    c0s: Sequence[np.ndarray],
    v0s: Sequence[np.ndarray],
    T: float,
    dt: float,
) -> list[Trajectory]:
    """Advance k runs of one system with one step dt over [0, T]: run j
    starts from (c0s[j], v0s[j]) and is forced by forcings[j].

    On the dense side (m <= DENSE_MAX_DIM) a run whose forcing has no f, g0
    or g1 is filled in by ``MidpointStepper.propagate``, by blocks of
    BLOCK_STEPS steps; it agrees with a loop of ``MidpointStepper.step`` to
    roundoff.  Every other step is a ``MidpointStepper.advance``, the same
    update as ``MidpointStepper.step``.  On the dense side each forced run
    steps as its own 1-d state: one (2m, k) product would differ from k
    matrix-vector products in the last bits.  On the sparse side the runs are
    the k columns of one stacked state Z = (V; C) of shape (2m, k), one
    product and one solve per step; one run steps as a 1-d state, which costs
    less per step than a (2m, 1) block.  Either way each column is updated on
    its own, so run j equals run j integrated alone, bit for bit, and an inf
    or NaN in one column leaves the others alone.  The midpoint loads of the
    stepped runs come from one ``load_vector`` call per run and block of
    steps (``time_blocks``), none when no run steps, and
    ``MidpointStepper.forcing_terms`` turns each run's block into its step
    terms.  The states are stored in one (k, N+1, m) array of coefficients
    and one of velocities, and the trajectory of run j views their slices j.
    """
    k = len(forcings)
    if k == 0 or len(c0s) != k or len(v0s) != k:
        raise DimensionError(f"need one forcing, c0 and v0 per run, got {k} forcings, "
                             f"{len(c0s)} c0 and {len(v0s)} v0")
    m = sys.m
    starts = [_start(sys, c0, v0, T, dt) for c0, v0 in zip(c0s, v0s)]
    times = starts[0][2]
    # Two arrays, not one of width 2m: freeing one allocation twice as large
    # raises glibc's dynamic mmap and trim thresholds, and the heap then keeps
    # more memory resident.  With one array, perfbench's converge_ladder peak
    # RSS rose by 2.7%, and by nothing with MALLOC_MMAP_THRESHOLD_ pinned.
    CS, VS = np.empty((k, len(times), m)), np.empty((k, len(times), m))
    for j, (c0, v0, _) in enumerate(starts):
        CS[j, 0], VS[j, 0] = c0, v0
    stepper = MidpointStepper(sys, dt)
    free = [j for j, f in enumerate(forcings) if stepper.dense and _unforced(f)]
    forced = [j for j in range(k) if j not in free]
    for j in free:
        stepper.propagate(VS[j], CS[j])
    Z = np.concatenate([VS[forced, 0].T, CS[forced, 0].T])
    # (state, its rows of VS and CS, its columns of the loads); row n of the
    # rows is sample n of the state's runs, shaped like its v and c
    if stepper.dense or len(forced) == 1:
        lanes = [(Z[:, i].copy(), VS[j], CS[j], i) for i, j in enumerate(forced)]
    else:
        lanes = [(Z, VS.transpose(1, 2, 0), CS.transpose(1, 2, 0), slice(None))]
    for block in time_blocks(sys, len(times) - 1) if lanes else ():
        t = times[block] + 0.5 * dt
        loads = np.stack([load_vector(sys, forcings[j], t) for j in forced], axis=-1)
        loads *= 0.5 * dt
        for state, V_rows, C_rows, cols in lanes:
            v, c = state[:m], state[m:]
            for n, term in zip(range(block.start + 1, block.stop + 1),
                               stepper.forcing_terms(loads[..., cols])):
                stepper.advance(state, term)
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
) -> Trajectory:
    """DOP853 (rtol 1e-12, atol 1e-14) on the first-order form, sampled every
    dt, for validation only.  A failed solve raises ArithmeticError."""
    import scipy.integrate  # here, not at the top: it adds 0.2 s to the package import

    m = sys.m
    if m > ORACLE_MAX_DIM:
        raise DimensionError(f"oracle supports m <= {ORACLE_MAX_DIM}, got {m}")
    c0, v0, times = _start(sys, c0, v0, T, dt)
    M = sys.M.toarray()
    G = np.block([[np.zeros((m, m)), np.eye(m)],
                  [-np.linalg.solve(M, np.hstack([sys.K_mat.toarray(), sys.C_mat.toarray()]))]])
    homogeneous = _unforced(forcing)

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
