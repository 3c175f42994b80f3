"""Energy functionals, inequality monitors and decay-rate fitting.

The observables per time sample are

    E     = 1/2 ||u'||^2 + 1/2 ||u||_a^2 + K/2 ||u||^2
    psi   = <u, u'> + lam/2 ||u||^2 + lam0/2 u(0)^2 + lam1/2 u(1)^2
    Gamma = E + delta * psi                      (Lyapunov functional)
    sigma = ||f(t)||^2 + g0(t)^2 + g1(t)^2       (forcing magnitude)
    X     = ||u'||^2 + ||u||_1^2
            + int_0^t (|u'(0,s)|^2 + |u'(1,s)|^2) ds

and the monitored inequalities are the sandwich beta1*E <= Gamma <= beta2*E
and the dissipation inequality

    Gamma'(t) <= -delta*Gamma(t) + 1/2*(1/eps1 + delta/eps2)*sigma(t),

whose discrete check uses centered differences with an explicitly
dt-dependent tolerance calibrated by Richardson comparison of a run pair
(dt, dt/2).  The pair only widens the tolerance beyond its 1e-8 floor, so a
scenario run makes the dt/2 run only when a margin exceeds the floor or is
not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    TooFewSamplesError,
)
from .galerkin import Forcing, GalerkinSystem, norm_1_sq, norm_a_sq, sigma_forcing
from .integrate import Trajectory
from .params import DerivedConstants, ProblemParams

__all__ = [
    "EnergyRecords",
    "DecayReport",
    "SandwichReport",
    "DifferentialReport",
    "energy",
    "psi",
    "lyapunov",
    "record_trajectory",
    "check_sandwich",
    "check_differential_inequality",
    "fit_decay_rate",
]

# Samples below this energy are rounding noise; the log fit excludes them.
ENERGY_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class EnergyRecords:
    """The observables along a trajectory, one array per column; sample n
    is index n of every column."""

    t: np.ndarray
    E: np.ndarray
    psi: np.ndarray
    Gamma: np.ndarray
    sigma: np.ndarray
    X: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


COLUMNS = tuple(f.name for f in fields(EnergyRecords))


@dataclass(frozen=True)
class DecayReport:
    """Fitted exponential envelope of E."""

    fitted_rate: float
    fitted_amplitude: float
    theoretical_delta: float
    fit_window: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class SandwichReport:
    violations: int
    worst_ratio: float


@dataclass(frozen=True)
class DifferentialReport:
    violations: int
    worst_margin: float
    tolerance: float
    c_dt: float


def _functionals(sys: GalerkinSystem, p: ProblemParams, C: np.ndarray, V: np.ndarray):
    """E, psi and ||u'||^2 + ||u||_1^2 of each state row (C[n], V[n]).

    Each of the five forms v'Mv, c'Ac, c'Mc, v'Mc and c'Sc is evaluated once
    over all rows from the operators' bands (``BandedOperator.form``); every
    temporary holds one value per row.  c'Ac and u(0)^2 + c'Sc are the
    package's ``norm_a_sq`` and ``norm_1_sq``.
    """
    vMv, cMc = sys.M.form(V), sys.M.form(C)
    E = 0.5 * vMv + 0.5 * norm_a_sq(sys, C) + 0.5 * p.K * cMc
    psi_ = (sys.M.form(V, C) + 0.5 * p.lam * cMc
            + 0.5 * p.lam0 * C[:, 0]**2 + 0.5 * p.lam1 * C[:, -1]**2)
    return E, psi_, vMv + norm_1_sq(sys, C)


def _one_state(sys: GalerkinSystem, p: ProblemParams, c, v) -> tuple[float, float]:
    """E and psi of the state (c, v)."""
    c, v = np.asarray(c, dtype=float), np.asarray(v, dtype=float)
    if c.shape != (sys.m,) or v.shape != (sys.m,):
        raise DimensionError(f"state vectors must have length {sys.m}")
    E, psi_, _ = _functionals(sys, p, c[None], v[None])
    return float(E[0]), float(psi_[0])


def energy(sys: GalerkinSystem, p: ProblemParams, c, v) -> float:
    """Total energy: kinetic + boundary-augmented potential + restoring term."""
    return _one_state(sys, p, c, v)[0]


def psi(sys: GalerkinSystem, p: ProblemParams, c, v) -> float:
    """Auxiliary functional mixing displacement and velocity."""
    return _one_state(sys, p, c, v)[1]


def lyapunov(sys: GalerkinSystem, p: ProblemParams, dc: DerivedConstants, c, v) -> float:
    """Lyapunov functional Gamma = E + delta*psi."""
    E, psi_ = _one_state(sys, p, c, v)
    return E + dc.delta * psi_


def record_trajectory(
    traj: Trajectory,
    sys: GalerkinSystem,
    p: ProblemParams,
    dc: DerivedConstants | None,
    forcing: Forcing = Forcing(),
) -> EnergyRecords:
    """Per-sample observables along a trajectory.

    ``dc=None`` is allowed for configs outside the decay hypotheses (for
    example the conservation control); Gamma then degenerates to E.  X's
    boundary integral is the trapezoid rule on the sample grid, whose step is
    t[1] - t[0]; u'(0) and u'(1) are the end velocity coefficients.
    """
    t = traj.times
    E, psi_all, norms = _functionals(sys, p, traj.coeffs, traj.velocities)
    delta = 0.0 if dc is None else dc.delta
    sigma = sigma_forcing(forcing, sys, t)
    v_end_sq = traj.velocities[:, [0, -1]] ** 2
    acc = np.zeros((len(t), 2))
    acc[1:] = np.cumsum(0.5 * (t[1] - t[0]) * (v_end_sq[:-1] + v_end_sq[1:]), axis=0)
    X = norms + acc[:, 0] + acc[:, 1]
    return EnergyRecords(t=t, E=E, psi=psi_all, Gamma=E + delta * psi_all, sigma=sigma, X=X)


def check_sandwich(records: EnergyRecords, dc: DerivedConstants) -> SandwichReport:
    """Count samples violating beta1*E <= Gamma <= beta2*E.

    Tolerance is 1e-10 * max(E, 1) per sample; a non-finite sample counts as
    a violation.  The worst ratio is the largest violation margin scaled the
    same way (negative when every sample sits strictly inside the sandwich).
    """
    E, Gamma = records.E, records.Gamma
    scale = np.maximum(E, 1.0)
    gap = np.maximum(dc.beta1 * E - Gamma, Gamma - dc.beta2 * E)
    return SandwichReport(
        violations=int(np.count_nonzero(~(gap <= 1e-10 * scale))),
        worst_ratio=float(np.max(gap / scale, initial=-math.inf)),
    )


def _dissipation_margins(records: EnergyRecords, dc: DerivedConstants) -> tuple[np.ndarray, float]:
    """Centered-difference margins of the dissipation inequality (interior samples)."""
    t, Gamma, sigma = records.t, records.Gamma, records.sigma
    if len(t) < 3:
        raise TooFewSamplesError(f"need at least 3 records, got {len(t)}")
    dts = np.diff(t)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("records are not uniformly sampled")
    dgamma = (Gamma[2:] - Gamma[:-2]) / (2.0 * dt)
    rhs = -dc.delta * Gamma[1:-1] + 0.5 * (1.0 / dc.eps1 + dc.delta / dc.eps2) * sigma[1:-1]
    return dgamma - rhs, dt


def check_differential_inequality(
    records: EnergyRecords,
    dc: DerivedConstants,
    refined_records: EnergyRecords | None = None,
) -> DifferentialReport:
    """Count dissipation-inequality violations beyond the dt^2 tolerance.

    The tolerance is c_dt*dt^2 + 1e-8; a non-finite margin counts as a
    violation.  When ``refined_records`` (a run of the same scenario at dt/2)
    is given, c_dt is estimated by Richardson comparison of the two worst
    margins; otherwise it is 0.  Since c_dt >= 0, a report without
    violations at c_dt = 0 stays without them at any c_dt: a scenario run
    makes the dt/2 run only when a margin exceeds the 1e-8 floor or is not
    finite, and then reports that run's tolerance.
    """
    margins, dt = _dissipation_margins(records, dc)
    c_dt = 0.0
    if refined_records is not None:
        refined_margins, dt_half = _dissipation_margins(refined_records, dc)
        if not math.isclose(dt_half, dt / 2.0, rel_tol=1e-9):
            raise ValueError("refined records must be sampled at dt/2")
        c_dt = abs(float(margins.max()) - float(refined_margins.max())) / (0.75 * dt * dt)
    tol = c_dt * dt * dt + 1e-8
    return DifferentialReport(
        violations=int(np.count_nonzero(~(margins <= tol))),
        worst_margin=float(margins.max()),
        tolerance=float(tol),
        c_dt=float(c_dt),
    )


def fit_decay_rate(records: EnergyRecords, theoretical_delta: float = math.nan) -> DecayReport:
    """Ordinary least squares of log E against t over the tail half of the
    horizon, [T/2, T], clipped to samples with E above the rounding floor.
    The residual is the root-mean-square misfit of the fit in log space.

    Raises InsufficientDataError when any sample in the window is non-finite
    (a broken run has no decay rate), or when fewer than 10 usable samples
    remain (the energy underflowed, i.e. decay was too fast for the horizon).
    """
    t, E = records.t, records.E
    lo, hi = 0.5 * float(t[-1]), float(t[-1])
    window = f"window [{lo:g}, {hi:g}]"
    in_window = (t >= lo) & (t <= hi)
    n_bad = int(np.count_nonzero(~np.isfinite(E[in_window])))
    if n_bad:
        raise InsufficientDataError(f"{n_bad} non-finite energy samples in {window}")
    mask = in_window & (E > ENERGY_FLOOR)
    if int(mask.sum()) < 10:
        raise InsufficientDataError(f"only {int(mask.sum())} usable samples in {window}")
    logE = np.log(E[mask])
    slope, intercept = np.polyfit(t[mask], logE, 1)
    resid = np.sqrt(np.mean((logE - (slope * t[mask] + intercept)) ** 2))
    return DecayReport(
        fitted_rate=float(-slope),
        fitted_amplitude=float(np.exp(intercept)),
        theoretical_delta=theoretical_delta,
        fit_window=(lo, hi),
        residual=float(resid),
    )
