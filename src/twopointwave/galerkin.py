"""Piecewise-linear Galerkin discretization on a uniform mesh of [0, 1].

Hat functions give exact endpoint traces, u(0) = c[0] and u(1) = c[-1] (tr0
and tr1 below are the first and last unit vectors), and closed-form
mass/stiffness matrices, so the semi-discrete system

    M c'' + (lam*M + D) c' + (A + K*M + B) c = F(t)

reproduces the weak form of the problem term for term:

    A = S + h0*tr0 tr0^T + h1*tr1 tr1^T        (stiffness + boundary springs)
    D = lam0*tr0 tr0^T + lt1*tr0 tr1^T
      + lam1*tr1 tr1^T + lt0*tr1 tr0^T         (boundary velocity coupling)
    B = ht1*tr0 tr1^T + ht0*tr1 tr0^T          (displacement cross-coupling)
    F_j(t) = -g0(t) w_j(0) - g1(t) w_j(1) + <f(., t), w_j>

Operators are ``scipy.sparse`` CSR arrays with O(m) stored entries: M and S
are tridiagonal, summed from the 2x2 element matrices, and the boundary
terms A - S, D and B live only on the four corners (0, 0), (0, m-1),
(m-1, m-1) and (m-1, 0).  Corners are added, never assigned: at two nodes
(0, 1) and (1, 0) are also the off-diagonals of M and S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import coo_array, csr_array

from .errors import DimensionError, MeshError
from .params import ProblemParams

__all__ = [
    "Mesh",
    "uniform_mesh",
    "Forcing",
    "GalerkinSystem",
    "assemble",
    "load_vector",
    "sigma_forcing",
    "norm_1_sq",
    "norm_a_sq",
    "sup_norm",
]

# 3-point Gauss-Legendre on the reference element [-1, 1]: exact for the
# polynomial manufactured solutions and well above the scheme's order.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(3)
# Hat shape functions at the reference quadrature points.
_SHAPE_LEFT = 0.5 * (1.0 - _GAUSS_X)
_SHAPE_RIGHT = 0.5 * (1.0 + _GAUSS_X)


@dataclass(frozen=True)
class Mesh:
    """Uniform node set on [0, 1]; nodes[0] = 0 and nodes[-1] = 1."""

    n_nodes: int
    nodes: np.ndarray
    h: float


def uniform_mesh(n_nodes: int) -> Mesh:
    if n_nodes < 2:
        raise MeshError(f"need at least 2 nodes, got {n_nodes}")
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return Mesh(n_nodes=n_nodes, nodes=nodes, h=1.0 / (n_nodes - 1))


@dataclass(frozen=True)
class Forcing:
    """Interior load f(x, t) plus boundary data g0(t), g1(t).

    ``f`` must broadcast over both arguments: the load quadrature calls it
    with the Gauss points, shape (n-1, 3), and a block of k times, shape
    (k, 1, 1), one time being a block of one, and its value must broadcast to
    (k, n-1, 3); ``compat`` evaluates f(x, 0.0) for initial data.  ``g0`` and
    ``g1`` are called with one time at a time, so a ``math.exp`` closure will
    do, and an overflow there still raises.  ``None`` for any component means
    identically zero (and skips its work).
    """

    f: Callable | None = None
    g0: Callable | None = None
    g1: Callable | None = None


@dataclass
class GalerkinSystem:
    """Assembled operators of the semi-discrete system, as sparse arrays.

    C_mat = lam*M + D and K_mat = A + K*M + B are cached because every time
    step uses them.
    """

    mesh: Mesh
    p: ProblemParams
    M: csr_array
    S: csr_array
    A: csr_array
    D: csr_array
    B: csr_array
    C_mat: csr_array = field(repr=False, default=None)
    K_mat: csr_array = field(repr=False, default=None)
    quad_x: np.ndarray = field(repr=False, default=None)

    @property
    def m(self) -> int:
        return self.M.shape[0]


def assemble(mesh: Mesh, p: ProblemParams) -> GalerkinSystem:
    """Build mass, stiffness and boundary-coupling matrices on ``mesh``.

    Raises MeshError for fewer than 2 nodes or a non-uniform node set.
    """
    n = mesh.n_nodes
    if n < 2:
        raise MeshError(f"need at least 2 nodes, got {n}")
    spacings = np.diff(mesh.nodes)
    if not np.allclose(spacings, mesh.h, rtol=1e-12, atol=1e-14):
        raise MeshError("mesh is not uniform")

    h = mesh.h
    # Element e couples nodes e and e+1; COO sums the duplicate entries.
    e = np.arange(n - 1)
    rows = np.concatenate([e, e, e + 1, e + 1])
    cols = np.concatenate([e, e + 1, e, e + 1])

    def elements(diag, off):
        values = np.repeat([diag, off, off, diag], n - 1)
        return coo_array((values, (rows, cols)), shape=(n, n)).tocsr()

    def corners(c00, c0m, cmm, cm0):
        return coo_array(([c00, c0m, cmm, cm0], ([0, 0, n - 1, n - 1], [0, n - 1, n - 1, 0])),
                         shape=(n, n)).tocsr()

    M = elements(h / 3.0, h / 6.0)
    S = elements(1.0 / h, -1.0 / h)
    A = S + corners(p.h0, 0.0, p.h1, 0.0)
    D = corners(p.lam0, p.lt1, p.lam1, p.lt0)
    B = corners(0.0, p.ht1, 0.0, p.ht0)

    # Global Gauss points, one row per element.
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    quad_x = mids[:, None] + 0.5 * h * _GAUSS_X[None, :]

    return GalerkinSystem(mesh=mesh, p=p, M=M, S=S, A=A, D=D, B=B,
                          C_mat=p.lam * M + D, K_mat=A + p.K * M + B, quad_x=quad_x)


# Gauss-point values of f per block of times in the batched quadrature:
# bounds each temporary to 256 KB, whatever the number of times.
BLOCK_VALUES = 32768
# Runs stepped together as the columns of one stacked state, at most: bounds
# the trajectories a sweep holds at once.  Per column and step (2 cores, one
# BLAS thread), 4 columns took 5.4 us at n=33 and 10.5 us at n=257, against
# 14.4 and 22.4 us for one, and 8 columns took longer than 4 at n=257.
MAX_COLUMNS = 4


def time_blocks(sys: GalerkinSystem, n_times: int) -> list[slice]:
    """Consecutive slices of range(n_times), each holding at most
    BLOCK_VALUES Gauss-point values of f (at least one time)."""
    size = max(1, BLOCK_VALUES // sys.quad_x.size)
    return [slice(start, min(start + size, n_times)) for start in range(0, n_times, size)]


def _quad_values(f: Callable, quad_x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f at the Gauss points for every time in the 1-d array t: shape
    t.shape + quad_x.shape."""
    vals = np.asarray(f(quad_x, t[:, None, None]), dtype=float)
    shape = t.shape + quad_x.shape
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def _boundary_values(g: Callable, t: np.ndarray) -> np.ndarray:
    """g at every time in the 1-d array t, called with one time at a time."""
    return np.array([float(g(s)) for s in t])


def load_vector(sys: GalerkinSystem, forcing: Forcing, t) -> np.ndarray:
    """Right-hand side F(t): boundary data plus quadrature of <f(., t), w_j>.

    ``t`` is a 1-d array of k times, giving one row per time, shape (k, m),
    or one time, evaluated as a block of one and giving its row.  f is
    evaluated once for all times; every row equals the load of its time
    computed alone, bit for bit.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return load_vector(sys, forcing, t[None])[0]
    F = np.zeros((len(t), sys.m))
    if forcing.g0 is not None:
        F[:, 0] -= _boundary_values(forcing.g0, t)
    if forcing.g1 is not None:
        F[:, -1] -= _boundary_values(forcing.g1, t)
    if forcing.f is not None:
        scaled = (0.5 * sys.mesh.h) * _quad_values(forcing.f, sys.quad_x, t) * _GAUSS_W
        F[:, :-1] += scaled @ _SHAPE_LEFT
        F[:, 1:] += scaled @ _SHAPE_RIGHT
    return F


def sigma_forcing(forcing: Forcing, sys: GalerkinSystem, t):
    """Forcing magnitude ||f(t)||^2 + g0(t)^2 + g1(t)^2.

    ``t`` is one time, giving a float, or a 1-d array of times, giving one
    value per time; ||f(t)||^2 is the Gauss quadrature over blocks of times
    (``time_blocks``).  The boundary values are squared as Python floats, so
    an overflow raises OverflowError instead of giving inf.
    """
    t = np.asarray(t, dtype=float)
    times = np.atleast_1d(t)
    total = np.zeros(len(times))
    if forcing.f is not None:
        for b in time_blocks(sys, len(times)):
            fe = _quad_values(forcing.f, sys.quad_x, times[b])
            total[b] = (0.5 * sys.mesh.h) * np.sum(fe**2 @ _GAUSS_W, axis=-1)
    for g in (forcing.g0, forcing.g1):
        if g is not None:
            total += [v**2 for v in _boundary_values(g, times).tolist()]
    return float(total[0]) if t.ndim == 0 else total


def _check_dim(sys: GalerkinSystem, c: np.ndarray) -> np.ndarray:
    """``c`` as a float array of vectors of length m along its last axis.

    The three norms below take one vector or a stack of shape (..., m), and
    return one value per vector.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (sys.m,):
        raise DimensionError(f"expected vectors of length {sys.m}, got shape {c.shape}")
    return c


def apply_rows(Q, c: np.ndarray) -> np.ndarray:
    """Q x for every vector x along the last axis of ``c``."""
    return (Q @ c.reshape(-1, c.shape[-1]).T).T.reshape(c.shape)


def _quadratic_form(Q, c: np.ndarray):
    return np.einsum("...i,...i->...", apply_rows(Q, c), c)


def norm_1_sq(sys: GalerkinSystem, c: np.ndarray):
    """Squared boundary-anchored H1 norm: v(0)^2 + ||v_x||^2."""
    c = _check_dim(sys, c)
    return c[..., 0] ** 2 + _quadratic_form(sys.S, c)


def norm_a_sq(sys: GalerkinSystem, c: np.ndarray):
    """Squared energy norm of the boundary-augmented bilinear form."""
    c = _check_dim(sys, c)
    return _quadratic_form(sys.A, c)


def sup_norm(sys: GalerkinSystem, c: np.ndarray):
    """Exact sup norm of the piecewise-linear function: max over node values."""
    return np.max(np.abs(_check_dim(sys, c)), axis=-1)


def error_norms(sys: GalerkinSystem, c: np.ndarray, u_ref, ux_ref) -> tuple[float, float]:
    """L2 and boundary-anchored H1 distance to a reference function.

    ``u_ref``/``ux_ref`` are x-callables (already bound at the comparison
    time); the element Gauss rule integrates the squared differences.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.m,):
        raise DimensionError(f"expected a vector of length {sys.m}, got shape {c.shape}")
    h = sys.mesh.h
    uh = c[:-1, None] * _SHAPE_LEFT + c[1:, None] * _SHAPE_RIGHT
    uhx = np.repeat(((c[1:] - c[:-1]) / h)[:, None], len(_GAUSS_W), axis=1)
    ue = np.broadcast_to(np.asarray(u_ref(sys.quad_x), dtype=float), sys.quad_x.shape)
    uex = np.broadcast_to(np.asarray(ux_ref(sys.quad_x), dtype=float), sys.quad_x.shape)
    l2_sq = 0.5 * h * float(np.sum(((uh - ue) ** 2) @ _GAUSS_W))
    grad_sq = 0.5 * h * float(np.sum(((uhx - uex) ** 2) @ _GAUSS_W))
    trace_sq = (float(c[0]) - float(np.asarray(u_ref(0.0), dtype=float))) ** 2
    return np.sqrt(l2_sq), np.sqrt(trace_sq + grad_sq)
