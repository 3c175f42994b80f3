"""Time integration of the semi-discrete system.

The production scheme is the implicit midpoint rule: A-stable, second order,
and it conserves the quadratic energy exactly in the undamped limit, which
gives a free correctness probe.  A system with at most ``DENSE_MAX_DIM``
unknowns steps with its dense one-step propagator P, built with numpy alone,
and every run, forced or not, advances BLOCK_STEPS steps at a time: all
blocks of the run take their j-th step in one matrix product, and the state
at each block's start follows from the previous one by one matrix-vector
product with P^BLOCK_STEPS - I.  A larger system steps with one sparse
product and one SuperLU solve, and only that path imports ``scipy.sparse``.
Runs that share the system and the step advance together
(``integrate_columns``; ``integrate`` is its one-column case): on the sparse
side as the columns of one stacked state, so that k runs take one product
and one solve per step instead of k.  At tiny dimension the exact flow of
the first-order form, from the exponential of its generator by scaling and
squaring in numpy, serves as an independent oracle.
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
# stepped more than 5% slower on it than on the sparse step, when forced runs
# on it took one matrix-vector product per step (BENCH_19.json).  Per step of
# integrate_columns for k runs with boundary_exp forcing, by blocks, in us,
# sparse / dense (m = n nodes; T = 5, dt = 1e-3; 2 cores, one BLAS thread,
# median of 3 runs of best of 5), the same rule now puts it between 81 and
# 129.  It stays 73: no benchmark workload runs an m in 74..128.
#
#       n     k = 1         k = 3          k = 4
#       2   10.9 /  0.5   14.1 /   1.6   14.2 /   2.1
#       9   10.4 /  0.8   14.2 /   2.3   15.4 /   3.3
#      33   13.1 /  2.4   18.1 /   5.5   18.8 /   7.0
#      65   14.2 /  3.8   20.6 /  11.0   21.1 /  14.6
#      73   13.1 /  4.6   20.1 /  12.9   21.5 /  16.3
#      81   13.5 /  5.2   20.0 /  15.2   21.9 /  19.4
#     129   15.1 / 12.5   24.1 /  32.4   26.6 /  40.5
#     257   18.0 / 51.8   32.6 / 110.7   34.9 / 131.0
DENSE_MAX_DIM = 73

# A run on the dense path advances by blocks of BLOCK_STEPS steps.  integrate
# of the reference problem (10^4 steps), in ms, unforced and boundary_exp, and
# the distance of the unforced blocks from a long-double loop of the same map
# over 2000 steps, relative to the largest value, by BLOCK_STEPS (2 cores, one
# BLAS thread, best of 7; an unforced advance per step took 20.6 / 29.5 /
# 45.5 / 51.5 ms):
#
#       n        4                8                16               32
#       2    3.9  8.1 3.1e-16   2.1  5.8 7.6e-16   1.3  4.7 5.8e-16   0.9  4.5 5.0e-16
#      33   12.0 25.4 3.6e-14   8.4 20.1 3.0e-14   5.7 17.3 4.3e-14   6.0 16.7 2.5e-14
#      65   23.5 49.3 2.4e-13  20.2 43.3 1.4e-13  16.4 40.9 1.0e-13  17.2 42.3 1.3e-13
#      73   28.9 62.5 2.1e-13  22.4 52.9 1.5e-13  17.7 46.2 1.2e-13  20.4 45.9 1.2e-13
BLOCK_STEPS = 16


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
      w = J^-1 (dt/2*F(t+dt/2)), applied as z <- z + (D z + (2w; dt*w)) with
      D = P - I.  numpy builds it all: a partial-pivot LU gives the pivots,
      and one ``np.linalg.solve`` gives D's blocks and J^-1, which maps each
      load to its w.  ``propagate`` fills in a whole run by blocks, with D
      and D_B = P^BLOCK_STEPS - I, built on first use.
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

    def forcing_terms(self, half_dt_loads: np.ndarray) -> np.ndarray:
        """What ``advance`` takes at each step of a block, given dt/2 times
        the midpoint loads F(t + dt/2), one row per step (shape (steps, m), or
        (steps, m, k) for a block of k states): on the sparse side the loads;
        on the dense side w = J^-1 times each row, one matrix-vector product
        per row, so that a row's w does not depend on the block it is in."""
        if not self.dense:
            return half_dt_loads
        return np.matmul(self._inverse, half_dt_loads[..., None])[..., 0]

    def advance(self, z: np.ndarray, term) -> None:
        """Overwrite the stacked state z = (v, c) with the state one step on;
        ``term`` is the step's row of ``forcing_terms``, or None (dense side
        only) for a step without load."""
        if self.dense:
            np.matmul(self._D, z, out=self._change)
            self._add_load(self._change, term)
            z += self._change
            return
        vm = self._lu.solve(self._R @ z + term)
        v, c = z[:len(vm)], z[len(vm):]
        np.subtract(2.0 * vm, v, out=v)
        c += self.dt * vm

    def _add_load(self, change: np.ndarray, w) -> None:
        """Add (2w; dt*w) to the last axis of the dense step's changes, unless w is None."""
        if w is not None:
            m = self.sys.m
            change[..., :m] += 2.0 * w
            change[..., m:] += self.dt * w

    @cached_property
    def _D_B(self) -> np.ndarray:
        """D_B = P^B - I with B = BLOCK_STEPS, built once from
        D_{j+1} = D_j + D (I + D_j), never from the power P^B itself."""
        D = D_j = self._D
        for _ in range(BLOCK_STEPS - 1):
            D_j = D_j + D @ (np.eye(len(D)) + D_j)
        return D_j

    def propagate(self, V: np.ndarray, C: np.ndarray, terms: np.ndarray | None = None) -> None:
        """Fill rows 1.. of V and C, the velocities and coefficients of one
        run on the dense side (row 0 holds its start), with the states one
        step apart; row n of ``terms`` is step n's w (``forcing_terms``), and
        None means no load.  With B = BLOCK_STEPS, block k runs from the anchor
        a_k = z_{kB} to a_{k+1}.  All blocks take their j-th step in one
        matrix product (in lockstep) to find y_k, the state block k reaches
        from zero under its loads (B products, none without load); then
        a_{k+1} = a_k + D_B a_k + y_k, one matrix-vector product per block;
        then every block steps from its anchor in lockstep (B - 1 products,
        written straight into V and C).  The steps after the last anchor,
        fewer than B, are ``advance`` steps: a run of fewer than B steps
        equals a loop of ``step`` bit for bit, and a restart of an unforced
        run from an anchor repeats it bit for bit."""
        m, B = self.sys.m, BLOCK_STEPS
        blocks = (len(V) - 1) // B
        anchors = np.empty((blocks + 1, 2 * m))
        anchors[0, :m], anchors[0, m:] = V[0], C[0]
        # row k is block k's state: first y_k, then the states from a_k
        Z, change = np.zeros((blocks, 2 * m)), np.empty((blocks, 2 * m))

        def lockstep(j):  # step j of every block
            np.matmul(Z, self._D.T, out=change)
            self._add_load(change, None if terms is None else terms[j:blocks * B:B])
            np.add(Z, change, out=Z)

        for j in range(0 if terms is None else B):
            lockstep(j)
        for a, a_next, y in zip(anchors, anchors[1:], Z):
            np.matmul(self._D_B, a, out=a_next)
            a_next += y
            a_next += a
        Z[:] = anchors[:blocks]
        for j in range(1, B):
            lockstep(j - 1)
            V[j:blocks * B:B], C[j:blocks * B:B] = Z[:, :m], Z[:, m:]
        V[:blocks * B + 1:B], C[:blocks * B + 1:B] = anchors[:, :m], anchors[:, m:]
        z = anchors[blocks].copy()
        for n in range(blocks * B + 1, len(V)):
            self.advance(z, None if terms is None else terms[n - 1])
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

    On the dense side (m <= DENSE_MAX_DIM) each run is one
    ``MidpointStepper.propagate``, by blocks of BLOCK_STEPS steps, which
    agrees with a loop of ``MidpointStepper.step`` to roundoff; a forced run
    first gets its rows of w (``MidpointStepper.forcing_terms``), and a run
    whose forcing has no f, g0 or g1 evaluates no load.  On the sparse side
    the runs are the k columns of one stacked state Z = (V; C) of shape
    (2m, k), and each step one ``MidpointStepper.advance``, the update of
    ``MidpointStepper.step``: one product and one solve; one run steps as a
    1-d state, which costs less per step than a (2m, 1) block.  The loads
    come from one ``load_vector`` call per run and block of steps
    (``time_blocks``).  Each column is updated on its own, so run j equals
    run j integrated alone, bit for bit, and an inf or NaN in one column
    leaves the others alone.  The states are stored in one (k, N+1, m) array
    of coefficients and one of velocities, and the trajectory of run j views
    their slices j.
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
    blocks = time_blocks(sys, len(times) - 1)
    if stepper.dense:
        W = None  # the rows of w of a forced run, one array for every run
        for j, forcing in enumerate(forcings):
            terms = None
            if not _unforced(forcing):
                terms = W = np.empty((len(times) - 1, m)) if W is None else W
                for block in blocks:
                    loads = 0.5 * dt * load_vector(sys, forcing, times[block] + 0.5 * dt)
                    terms[block] = stepper.forcing_terms(loads)
            stepper.propagate(VS[j], CS[j], terms)
        return [Trajectory(times, CS[j], VS[j]) for j in range(k)]
    # row n of V_rows and C_rows is sample n of the state's runs, shaped like
    # its v and c
    cols = 0 if k == 1 else slice(None)
    state = np.concatenate([VS[:, 0].T, CS[:, 0].T])[:, cols].copy()
    V_rows, C_rows = VS.transpose(1, 2, 0)[..., cols], CS.transpose(1, 2, 0)[..., cols]
    v, c = state[:m], state[m:]
    for block in blocks:
        t = times[block] + 0.5 * dt
        loads = np.stack([load_vector(sys, forcing, t) for forcing in forcings], axis=-1)
        loads *= 0.5 * dt
        for n, term in zip(range(block.start + 1, block.stop + 1),
                           stepper.forcing_terms(loads[..., cols])):
            stepper.advance(state, term)
            V_rows[n] = v
            C_rows[n] = c
    return [Trajectory(times, CS[j], VS[j]) for j in range(k)]


# The oracle works on the dense 2m x 2m generator and is meant for tiny
# cross-check systems.  It would be cheap up to m = 73 (46.7 ms for T = 10,
# dt = 1e-3 at n=65), but there the midpoint run of cosine data is 3.7e-6
# (n=9) to 1.2e-4 (n=65) from the exact flow, above the check's 1e-6.
ORACLE_MAX_DIM = 8

# _expm scales its argument to a 1-norm of at most EXPM_NORM and sums the
# Taylor series to degree EXPM_DEGREE, whose truncation error there is below
# 0.25^20 / 20! = 4e-31, so the squarings' roundoff sets the accuracy.
# Against scipy.linalg.expm of dt*G at n = 2, 5, 8 (reference, undamped and
# nonsymmetric params; dt = 1e-3, 0.1, 1; ||dt*G||_1 up to 7.3e2): at most
# 8.5e-16 * max(1, ||dt*G||_1) relative, 2.3e-13 at n=8, dt=1.
EXPM_NORM = 0.25
EXPM_DEGREE = 19

# Gauss-Legendre nodes per step of a forced oracle run's Duhamel integral.
# Distance from DOP853 at rtol 1e-13, relative to the largest value, of the
# manufactured decaying_cosine run at n=8, T=1, by node count 1 / 2 / 3 / 4 /
# 6: 1.3e-5 / 1.3e-11 / 5.1e-13 / 5.1e-13 / 5.1e-13 at dt = 1e-3 and
# 1.3e-3 / 1.3e-7 / 1.2e-11 / 5.7e-13 / 5.7e-13 at dt = 1e-2; six nodes keep
# a margin above the count at which DOP853's own error is reached.
ORACLE_NODES = 6


def _generator(sys: GalerkinSystem) -> np.ndarray:
    """G = [[0, I], [-M^-1 K_mat, -M^-1 C_mat]], the dense generator of the
    first-order form z' = G z + (0; M^-1 F(t)) with z = (c, v)."""
    m = sys.m
    K_C = np.hstack([sys.K_mat.toarray(), sys.C_mat.toarray()])
    return np.block([[np.zeros((m, m)), np.eye(m)], [-np.linalg.solve(sys.M.toarray(), K_C)]])


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 2003;
    Higham, SIAM J. Matrix Anal. Appl. 26, 2005): the Taylor polynomial of
    degree EXPM_DEGREE of A / 2^s, with s the least power that brings the
    1-norm to at most EXPM_NORM, by Horner's rule, then squared s times."""
    norm = float(np.max(np.sum(np.abs(A), axis=0)))
    s = max(0, math.ceil(math.log2(norm / EXPM_NORM))) if norm > EXPM_NORM else 0
    X, identity = A / 2.0 ** s, np.eye(len(A))
    E = identity + X / EXPM_DEGREE
    for k in range(EXPM_DEGREE - 1, 0, -1):
        E = identity + (X @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def oracle_integrate(
    sys: GalerkinSystem,
    forcing: Forcing,
    c0: np.ndarray,
    v0: np.ndarray,
    T: float,
    dt: float,
) -> Trajectory:
    """The exact flow of the first-order form z' = G z + (0; M^-1 F(t)),
    z = (c, v), sampled every dt, for validation only.

    With E = e^{dt G}, an unforced run is z_{n+1} = E z_n, one matrix-vector
    product per sample.  A forced run adds the step's Duhamel integral by
    ORACLE_NODES-point Gauss-Legendre quadrature on [0, dt]:
    sum_i w_i e^{(dt - s_i) G} (0; M^-1 F(t_n + s_i)).  Every exponential is
    computed once per call, and the loads come from one ``load_vector`` call
    per block of steps (``time_blocks``).  The oracle shares only the
    assembled operators and ``load_vector`` with the midpoint stepper.  A
    non-finite state raises ArithmeticError."""
    m = sys.m
    if m > ORACLE_MAX_DIM:
        raise DimensionError(f"oracle supports m <= {ORACLE_MAX_DIM}, got {m}")
    c0, v0, times = _start(sys, c0, v0, T, dt)
    G = _generator(sys)
    E = _expm(dt * G)
    Z = np.empty((len(times), 2 * m))
    Z[0, :m], Z[0, m:] = c0, v0
    # E.dot with out= takes half the time of np.matmul here: 1.1 against
    # 2.2 ms for 1000 samples at m = 2
    if _unforced(forcing):
        for z, z_next in zip(Z, Z[1:]):
            E.dot(z, out=z_next)
    else:
        x, w = np.polynomial.legendre.leggauss(ORACLE_NODES)
        nodes = 0.5 * dt * (1.0 + x)
        # column block i maps the velocity part of the load at node i to its
        # weighted contribution at the end of the step
        N = np.hstack([0.5 * dt * w_i * _expm((dt - s_i) * G)[:, m:]
                       for s_i, w_i in zip(nodes, w)])
        M = sys.M.toarray()
        for block in time_blocks(sys, len(times) - 1):
            # the ORACLE_NODES load times of each step, step by step
            t = (times[block][:, None] + nodes).ravel()
            b = np.linalg.solve(M, load_vector(sys, forcing, t).T).T
            terms = b.reshape(-1, ORACLE_NODES * m) @ N.T
            for z, z_next, term in zip(Z[block], Z[block.start + 1:block.stop + 1], terms):
                E.dot(z, out=z_next)
                z_next += term
    finite = np.isfinite(Z).all(axis=1)
    if not finite.all():
        raise ArithmeticError("oracle integration failed: non-finite state at "
                              f"t={times[np.argmin(finite)]:g}")
    return Trajectory(times, Z[:, :m], Z[:, m:])
