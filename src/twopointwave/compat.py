"""Compatibility initial data for time-differentiated copies of the problem.

Differentiating the problem r times in t shifts the data by the recurrence

    u0^[0] = u0,   u0^[r] = u1^[r-1],
    u1^[0] = u1,   u1^[r] = (u0^[r-1])_xx - K*u0^[r-1] - lam*u1^[r-1]
                            + d^(r-1)f/dt^(r-1)(x, 0),

and (by uniqueness) the solution of the shifted problem equals the r-th time
derivative of the original solution.  ``ladder_check`` tests that identity
numerically: it solves both problems and compares the r-th centered time
difference of the base trajectory against the shifted trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OrderError
from .galerkin import Forcing, Mesh, assemble
from .integrate import integrate_columns, project_initial_data
from .manufactured import ManufacturedSolution
from .params import ProblemParams

__all__ = [
    "SmoothData",
    "LadderReport",
    "compatibility_data",
    "ladder_check",
    "smooth_data_from_manufactured",
]

# Step for the fallback second-derivative stencil; data closures must
# tolerate arguments in [-2*FD_STEP, 1 + 2*FD_STEP].
FD_STEP = 1e-4


@dataclass(frozen=True)
class SmoothData:
    """Initial data and forcing derivatives for the recurrence.

    ``forcing_derivs[k]`` is the forcing of the k-times time-differentiated
    problem: d^k f/dt^k, d^k g0/dt^k and d^k g1/dt^k.  Analytic second space
    derivatives of u0/u1 are optional; a high-order finite-difference stencil
    fills in when they are omitted.
    """

    u0: Callable
    u1: Callable
    u0_xx: Callable | None = None
    u1_xx: Callable | None = None
    forcing_derivs: tuple[Forcing, ...] = ()


@dataclass(frozen=True)
class LadderReport:
    order: int
    rel_discrepancy: float
    abs_discrepancy: float
    scale: float


def _fd_second_derivative(fn: Callable) -> Callable:
    h = FD_STEP

    def d2(x):
        x = np.asarray(x, dtype=float)
        return (
            -fn(x - 2 * h) + 16.0 * fn(x - h) - 30.0 * fn(x)
            + 16.0 * fn(x + h) - fn(x + 2 * h)
        ) / (12.0 * h * h)

    return d2


def compatibility_data(data: SmoothData, p: ProblemParams, r: int):
    """Initial data (u0^[r], u1^[r]) of the r-times differentiated problem.

    Raises OrderError when ``data`` lacks a forcing derivative the recurrence
    needs (levels 1..r consume the f of ``forcing_derivs[0..r-1]``).
    """
    if r < 0:
        raise OrderError(f"order must be non-negative, got {r}")
    u0_fn, u0_xx = data.u0, data.u0_xx
    u1_fn, u1_xx = data.u1, data.u1_xx
    for k in range(1, r + 1):
        if k - 1 >= len(data.forcing_derivs):
            raise OrderError(
                f"recurrence level {k} needs f time derivative of order {k - 1}"
            )
        f_prev = data.forcing_derivs[k - 1].f
        d2 = u0_xx if u0_xx is not None else _fd_second_derivative(u0_fn)

        def u1_next(x, _d2=d2, _u0=u0_fn, _u1=u1_fn, _f=f_prev):
            f0 = 0.0 if _f is None else _f(x, 0.0)
            return _d2(x) - p.K * _u0(x) - p.lam * _u1(x) + f0

        u0_fn, u0_xx = u1_fn, u1_xx
        u1_fn, u1_xx = u1_next, None
    return u0_fn, u1_fn


def smooth_data_from_manufactured(ms: ManufacturedSolution, r: int) -> SmoothData:
    """Analytic SmoothData (derivatives of every order) for a registry form."""
    return SmoothData(
        u0=ms.u0,
        u1=ms.u1,
        u0_xx=lambda x: ms.uxx(x, 0.0),
        u1_xx=lambda x: ms.uxx(x, 0.0, dt_order=1),
        forcing_derivs=tuple(ms.forcing(k) for k in range(r + 1)),
    )


def _centered_time_derivative(C: np.ndarray, dt: float, r: int) -> np.ndarray:
    """The r-th centered time difference for r = 1 or 2, which ``ladder_check`` enforces."""
    if r == 1:
        return (C[2:] - C[:-2]) / (2.0 * dt)
    return (C[2:] - 2.0 * C[1:-1] + C[:-2]) / (dt * dt)


def ladder_check(
    data: SmoothData,
    p: ProblemParams,
    mesh: Mesh,
    forcing: Forcing,
    r: int,
    T: float,
    dt: float,
) -> LadderReport:
    """Cross-check: solve the base and r-times differentiated problems, as
    the two columns of one ``integrate_columns`` run, and compare the r-th
    centered time difference of the base nodal trajectory against the
    differentiated problem's trajectory.

    The differentiated problem is forced by ``data.forcing_derivs[r]``, one
    level past what the recurrence itself consumes.
    """
    if r not in (1, 2):
        raise ValueError(f"ladder order must be 1 or 2, got {r}")
    if r >= len(data.forcing_derivs):
        raise OrderError(f"ladder at order {r} needs forcing derivatives up to order {r}")

    sys = assemble(mesh, p)
    c0, v0 = project_initial_data(mesh, data.u0, data.u1)
    c0_r, v0_r = project_initial_data(mesh, *compatibility_data(data, p, r))
    base, shifted = integrate_columns(sys, [forcing, data.forcing_derivs[r]],
                                      [c0, c0_r], [v0, v0_r], T, dt)

    diff_base = _centered_time_derivative(base.coeffs, dt, r)
    target = shifted.coeffs[1:-1]
    abs_disc = float(np.max(np.abs(diff_base - target)))
    scale = float(np.max(np.abs(target)))
    rel = abs_disc / scale if scale > 0 else abs_disc
    return LadderReport(order=r, rel_discrepancy=rel, abs_discrepancy=abs_disc, scale=scale)
