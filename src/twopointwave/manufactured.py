"""Closed-form exact solutions with forcing synthesized to solve the system.

Every registry form is separable, u(x,t) = T(t)*X(x), with closed-form time
derivatives of any order, so the interior load

    f = u_tt - u_xx + K*u + lam*u_t

and the boundary data

    g0 = u_x(0,.) - h0*u(0,.) - lam0*u_t(0,.) - ht1*u(1,.) - lt1*u_t(1,.)
    g1 = -u_x(1,.) - h1*u(1,.) - lam1*u_t(1,.) - ht0*u(0,.) - lt0*u_t(0,.)

come out analytically, together with the time-differentiated copies needed
by the regularity-ladder checks.  ``forcing`` gives them as ``Separable``
sums of time factor times space factor,

    f  = (T'' + K*T + lam*T')(t) * X(x) - T(t) * X''(x)
    g0 = T(t) * disp0 + T'(t) * vel0,    g1 = T(t) * disp1 + T'(t) * vel1,

so that the solver evaluates them on whole blocks of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownFormError
from .galerkin import Forcing, Separable
from .params import ProblemParams

__all__ = ["ManufacturedSolution", "manufacture", "FORM_NAMES"]


@dataclass(frozen=True)
class _SeparableForm:
    """u = T(t) * X(x) with T_k(k, t) the k-th time derivative of T."""

    name: str
    T: Callable
    X: Callable
    Xx: Callable
    Xxx: Callable


def _exp_form(name: str, alpha: float, X, Xx, Xxx) -> _SeparableForm:
    def T(k, t):
        return (-alpha) ** k * np.exp(-alpha * t)

    return _SeparableForm(name=name, T=T, X=X, Xx=Xx, Xxx=Xxx)


def _poly_time(k, t):
    if k == 0:
        return 1.0 + t**2
    if k == 1:
        return 2.0 * t
    if k == 2:
        return 2.0 + 0.0 * t
    return 0.0 * t


def _build_form(name: str, alpha: float) -> _SeparableForm:
    if name == "decaying_cosine":
        return _exp_form(
            name,
            alpha,
            X=lambda x: np.cos(np.pi * x),
            Xx=lambda x: -np.pi * np.sin(np.pi * x),
            Xxx=lambda x: -np.pi**2 * np.cos(np.pi * x),
        )
    if name == "decaying_affine":
        return _exp_form(
            name,
            alpha,
            X=lambda x: 1.0 + x,
            Xx=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            Xxx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
    if name == "polynomial":
        return _SeparableForm(
            name=name,
            T=_poly_time,
            X=lambda x: x**2 - x + 1.0,
            Xx=lambda x: 2.0 * x - 1.0,
            Xxx=lambda x: 2.0 + 0.0 * np.asarray(x, dtype=float),
        )
    if name == "zero":
        zero_x = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
        return _SeparableForm(name=name, T=lambda k, t: 0.0 * t,
                              X=zero_x, Xx=zero_x, Xxx=zero_x)
    raise UnknownFormError(f"unknown manufactured form {name!r}; known: {FORM_NAMES}")


FORM_NAMES = ("decaying_cosine", "decaying_affine", "polynomial", "zero")


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution plus synthesized forcing for a given parameter set."""

    name: str
    p: ProblemParams
    form: _SeparableForm
    alpha: float

    def u(self, x, t, dt_order: int = 0):
        return self.form.T(dt_order, t) * self.form.X(x)

    def ux(self, x, t, dt_order: int = 0):
        return self.form.T(dt_order, t) * self.form.Xx(x)

    def uxx(self, x, t, dt_order: int = 0):
        return self.form.T(dt_order, t) * self.form.Xxx(x)

    def u0(self, x):
        return self.u(x, 0.0)

    def u1(self, x):
        return self.u(x, 0.0, dt_order=1)

    def f(self, x, t, dt_order: int = 0):
        p, form = self.p, self.form
        k = dt_order
        return (
            form.T(k + 2, t) * form.X(x)
            - form.T(k, t) * form.Xxx(x)
            + p.K * form.T(k, t) * form.X(x)
            + p.lam * form.T(k + 1, t) * form.X(x)
        )

    def _boundary_constants(self):
        """(disp, vel) of g0 and of g1: g = T(t)*disp + T'(t)*vel."""
        p, form = self.p, self.form
        X0, X1 = form.X(0.0), form.X(1.0)
        return ((form.Xx(0.0) - p.h0 * X0 - p.ht1 * X1, -p.lam0 * X0 - p.lt1 * X1),
                (-form.Xx(1.0) - p.h1 * X1 - p.ht0 * X0, -p.lam1 * X1 - p.lt0 * X0))

    def g0(self, t, dt_order: int = 0):
        (disp, vel), _ = self._boundary_constants()
        return self.form.T(dt_order, t) * disp + self.form.T(dt_order + 1, t) * vel

    def g1(self, t, dt_order: int = 0):
        _, (disp, vel) = self._boundary_constants()
        return self.form.T(dt_order, t) * disp + self.form.T(dt_order + 1, t) * vel

    def forcing(self, dt_order: int = 0) -> Forcing:
        """Forcing of the dt_order-times time-differentiated problem: f, g0
        and g1 as ``Separable`` terms, the boundary constants computed once."""
        p, form, k = self.p, self.form, dt_order

        def T(order):
            return lambda t: form.T(order, t)

        def interior(t):
            return form.T(k + 2, t) + p.K * form.T(k, t) + p.lam * form.T(k + 1, t)

        (disp0, vel0), (disp1, vel1) = self._boundary_constants()
        return Forcing(
            f=Separable([(interior, form.X), (T(k), lambda x: -form.Xxx(x))]),
            g0=Separable([(T(k), disp0), (T(k + 1), vel0)]),
            g1=Separable([(T(k), disp1), (T(k + 1), vel1)]),
        )


def manufacture(u_exact: str, p: ProblemParams, alpha: float = 1.0) -> ManufacturedSolution:
    """Look up a registry form and synthesize its forcing for params ``p``.

    Raises UnknownFormError for names outside the registry.
    """
    form = _build_form(u_exact, alpha)
    return ManufacturedSolution(name=u_exact, p=p, form=form, alpha=alpha)
