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

Operators are ``BandedOperator``s, numpy arrays with O(m) stored entries: M
and S are tridiagonal, summed from the 2x2 element matrices, and the boundary
terms A - S, D and B live only on the four corners (0, 0), (0, m-1),
(m-1, m-1) and (m-1, 0).  Corners are added, never assigned: at two nodes
(0, 1) and (1, 0) are also the off-diagonals of M and S.  Nothing here
imports scipy; ``tocsr`` loads ``scipy.sparse`` when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, MeshError
from .params import ProblemParams

__all__ = [
    "Mesh",
    "uniform_mesh",
    "Forcing",
    "Separable",
    "BandedOperator",
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
    do, and an overflow there still raises.  A ``Separable`` component is
    instead evaluated on a whole block of times: ``load_vector`` calls its
    time factors with the 1-d array of times and projects an f's space
    factors onto the hats once per system.  ``None`` for any component means
    identically zero (and skips its work).
    """

    f: Callable | None = None
    g0: Callable | None = None
    g1: Callable | None = None


class Separable:
    """The sum of products theta_i(t) * s_i over ``terms``, pairs (theta_i, s_i).

    Each time factor theta_i gives its values elementwise on a numpy array
    of times.  For an ``f`` each space factor s_i is a function of x and the
    sum is called as f(x, t); for a ``g0`` or ``g1`` each s_i is a number and
    it is called as g(t).  Called so, it is a plain forcing component, so
    every consumer of a ``Forcing`` takes it; ``load_vector`` and
    ``sigma_forcing`` recognise it and evaluate it per block of times.
    """

    def __init__(self, terms):
        self.terms = tuple(terms)
        # the Gauss points the space factors were evaluated on, their values
        # there and their hat projections (``_space_factors``)
        self._projected = (None, (), ())

    def __call__(self, *x_t):
        *x, t = x_t
        values = [theta(t) * (s(*x) if x else s) for theta, s in self.terms]
        return sum(values[1:], values[0])


class BandedOperator:
    """An m x m matrix that is tridiagonal except for the two corners
    (0, m-1) and (m-1, 0), stored as numpy arrays: ``lower`` (entries
    (i+1, i)), ``diag``, ``upper`` (entries (i, i+1)) and ``corners`` =
    (entry (0, m-1), entry (m-1, 0)).  For m <= 2 the corners are band
    entries too, and an entry is the sum of its band and corner values.

    It gives what the package uses: ``form``, sums of two operators, scalar
    multiples, ``toarray`` and ``tocsr``, which imports ``scipy.sparse`` only
    when called.
    """

    # a numpy scalar on the left defers to __rmul__ instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, lower, diag, upper, corners=(0.0, 0.0)):
        self.diag = np.array(diag, dtype=float)
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        self.corners = np.array(corners, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))

    def toarray(self) -> np.ndarray:
        m = len(self.diag)
        a = np.diag(self.diag)
        i = np.arange(m - 1)
        a[i, i + 1] = self.upper
        a[i + 1, i] = self.lower
        a[0, m - 1] += self.corners[0]
        a[m - 1, 0] += self.corners[1]
        return a

    def tocsr(self):
        from scipy.sparse import coo_array  # only the sparse step and the tests use it

        m = len(self.diag)
        i = np.arange(m)
        rows = np.concatenate([i, i[:-1], i[1:], [0, m - 1]])
        cols = np.concatenate([i, i[1:], i[:-1], [m - 1, 0]])
        values = np.concatenate([self.diag, self.upper, self.lower, self.corners])
        kept = values != 0.0  # stored zeros would only be multiplied
        return coo_array((values[kept], (rows[kept], cols[kept])), shape=self.shape).tocsr()

    def form(self, x: np.ndarray, y: np.ndarray | None = None):
        """x^T Q y for each pair of vectors along the last axis of x and y,
        evaluated from the bands; y = x gives the quadratic form."""
        if y is None:
            out = np.einsum("...i,i,...i->...", x, self.diag, x)
            out += np.einsum("...i,i,...i->...", x[..., :-1], self.upper + self.lower, x[..., 1:])
            if self.corners.any():
                out += self.corners.sum() * x[..., 0] * x[..., -1]
            return out
        out = np.einsum("...i,i,...i->...", x, self.diag, y)
        out += np.einsum("...i,i,...i->...", x[..., :-1], self.upper, y[..., 1:])
        out += np.einsum("...i,i,...i->...", x[..., 1:], self.lower, y[..., :-1])
        if self.corners.any():
            out += self.corners[0] * x[..., 0] * y[..., -1] + self.corners[1] * x[..., -1] * y[..., 0]
        return out

    def __add__(self, other: BandedOperator) -> BandedOperator:
        return BandedOperator(self.lower + other.lower, self.diag + other.diag,
                              self.upper + other.upper, self.corners + other.corners)

    def __mul__(self, scalar) -> BandedOperator:
        return BandedOperator(scalar * self.lower, scalar * self.diag, scalar * self.upper,
                              scalar * self.corners)

    __rmul__ = __mul__


@dataclass
class GalerkinSystem:
    """Assembled operators of the semi-discrete system, as ``BandedOperator``s.

    C_mat = lam*M + D and K_mat = A + K*M + B are cached because every time
    step uses them.
    """

    mesh: Mesh
    p: ProblemParams
    M: BandedOperator
    S: BandedOperator
    A: BandedOperator
    D: BandedOperator
    B: BandedOperator
    C_mat: BandedOperator = field(repr=False)
    K_mat: BandedOperator = field(repr=False)
    quad_x: np.ndarray = field(repr=False)

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

    def elements(diag, off):
        # node i sums the diagonal entry of each of its one or two elements
        diagonal = np.full(n, 2.0 * diag)
        diagonal[[0, -1]] = diag
        return BandedOperator(np.full(n - 1, off), diagonal, np.full(n - 1, off))

    def corners(c00, c0m, cmm, cm0):
        diagonal = np.zeros(n)
        diagonal[0] += c00
        diagonal[-1] += cmm
        return BandedOperator(np.zeros(n - 1), diagonal, np.zeros(n - 1), (c0m, cm0))

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


def time_blocks(sys: GalerkinSystem, n_times: int) -> list[slice]:
    """Consecutive slices of range(n_times), each holding at most
    BLOCK_VALUES Gauss-point values of f (at least one time)."""
    size = max(1, BLOCK_VALUES // sys.quad_x.size)
    return [slice(start, min(start + size, n_times)) for start in range(0, n_times, size)]


def _quad_values(sys: GalerkinSystem, f: Callable, t: np.ndarray) -> np.ndarray:
    """f at the Gauss points for every time in the 1-d array t: shape
    t.shape + quad_x.shape.  A ``Separable`` f sums theta_i(t) times the
    values of s_i kept per system, the same products in the same order as
    its plain call."""
    if isinstance(f, Separable):
        terms = [_on_times(theta, t)[:, None, None] * values
                 for (theta, _), values in zip(f.terms, _space_factors(sys, f)[0])]
        vals = sum(terms[1:], terms[0])
    else:
        vals = np.asarray(f(sys.quad_x, t[:, None, None]), dtype=float)
    shape = t.shape + sys.quad_x.shape
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def _on_times(fn: Callable, t: np.ndarray) -> np.ndarray:
    """fn called once on the 1-d array of times t, as an array of t's shape."""
    values = np.asarray(fn(t), dtype=float)
    return values if values.shape == t.shape else np.broadcast_to(values, t.shape)


def _boundary_values(g: Callable, t: np.ndarray) -> np.ndarray:
    """g at every time in the 1-d array t: a ``Separable`` on the whole block,
    any other callable one time at a time."""
    if isinstance(g, Separable):
        return _on_times(g, t)
    return np.array([float(g(s)) for s in t])


def _add_hat_loads(F: np.ndarray, sys: GalerkinSystem, values: np.ndarray) -> None:
    """Add <f, w_j> to F[..., j], given f at the Gauss points, shape
    (..., n-1, 3)."""
    scaled = (0.5 * sys.mesh.h) * values * _GAUSS_W
    F[..., :-1] += scaled @ _SHAPE_LEFT
    F[..., 1:] += scaled @ _SHAPE_RIGHT


def _space_factors(sys: GalerkinSystem, f: Separable) -> tuple[list, list]:
    """The values of each space factor s_i of f at the Gauss points, and its
    projection <s_i, w_j>, one vector of length m per term; both kept on f
    for the last system they were made for."""
    quad_x, values, projections = f._projected
    if quad_x is not sys.quad_x:
        values = [np.broadcast_to(s(sys.quad_x), sys.quad_x.shape) for _, s in f.terms]
        projections = []
        for v in values:
            load = np.zeros(sys.m)
            _add_hat_loads(load, sys, v)
            projections.append(load)
        f._projected = (sys.quad_x, values, projections)
    return values, projections


def load_vector(sys: GalerkinSystem, forcing: Forcing, t) -> np.ndarray:
    """Right-hand side F(t): boundary data plus quadrature of <f(., t), w_j>.

    ``t`` is a 1-d array of k times, giving one row per time, shape (k, m),
    or one time, evaluated as a block of one and giving its row.  f is
    evaluated once for all times; every row equals the load of its time
    computed alone, bit for bit.  A ``Separable`` f adds theta_i(t) times the
    projection of s_i for each term, elementwise, so it costs O(m) per time.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return load_vector(sys, forcing, t[None])[0]
    F = np.zeros((len(t), sys.m))
    if forcing.g0 is not None:
        F[:, 0] -= _boundary_values(forcing.g0, t)
    if forcing.g1 is not None:
        F[:, -1] -= _boundary_values(forcing.g1, t)
    if isinstance(forcing.f, Separable):
        for (theta, _), load in zip(forcing.f.terms, _space_factors(sys, forcing.f)[1]):
            F += _on_times(theta, t)[:, None] * load
    elif forcing.f is not None:
        _add_hat_loads(F, sys, _quad_values(sys, forcing.f, t))
    return F


def sigma_forcing(forcing: Forcing, sys: GalerkinSystem, t):
    """Forcing magnitude ||f(t)||^2 + g0(t)^2 + g1(t)^2.

    ``t`` is one time, giving a float, or a 1-d array of times, giving one
    value per time; ||f(t)||^2 is the Gauss quadrature over blocks of times
    (``time_blocks``), for a ``Separable`` f from its space factors' Gauss
    values made once per system.  The boundary values are squared as Python
    floats, so an overflow raises OverflowError instead of giving inf.
    """
    t = np.asarray(t, dtype=float)
    times = np.atleast_1d(t)
    total = np.zeros(len(times))
    if forcing.f is not None:
        for b in time_blocks(sys, len(times)):
            fe = _quad_values(sys, forcing.f, times[b])
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


def norm_1_sq(sys: GalerkinSystem, c: np.ndarray):
    """Squared boundary-anchored H1 norm: v(0)^2 + ||v_x||^2."""
    c = _check_dim(sys, c)
    return c[..., 0] ** 2 + sys.S.form(c)


def norm_a_sq(sys: GalerkinSystem, c: np.ndarray):
    """Squared energy norm of the boundary-augmented bilinear form."""
    c = _check_dim(sys, c)
    return sys.A.form(c)


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
