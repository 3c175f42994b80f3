from dataclasses import replace

import numpy as np
import pytest

from twopointwave import (
    ProblemParams,
    compatibility_data,
    ladder_check,
    manufacture,
    smooth_data_from_manufactured,
    uniform_mesh,
)
from twopointwave.compat import SmoothData
from twopointwave.errors import OrderError
from twopointwave.galerkin import Forcing

P = ProblemParams(h0=1.0, h1=0.0, lam0=1.0, lam1=1.0, ht0=0.0, ht1=0.0,
                  lt0=0.0, lt1=0.0, K=1.0, lam=2.0)

X_SAMPLES = np.linspace(0.0, 1.0, 11)


def zero_xt(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def cosine_data(with_analytic_xx=True, f_levels=2):
    return SmoothData(
        u0=lambda x: np.cos(np.pi * x),
        u1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        u0_xx=(lambda x: -np.pi**2 * np.cos(np.pi * x)) if with_analytic_xx else None,
        u1_xx=(lambda x: np.zeros_like(np.asarray(x, dtype=float))) if with_analytic_xx else None,
        forcing_derivs=(Forcing(f=zero_xt),) * f_levels,
    )


class TestRecurrence:
    def test_order_zero_is_identity(self):
        data = cosine_data()
        u0_0, u1_0 = compatibility_data(data, P, 0)
        np.testing.assert_array_equal(u0_0(X_SAMPLES), data.u0(X_SAMPLES))
        np.testing.assert_array_equal(u1_0(X_SAMPLES), data.u1(X_SAMPLES))

    def test_order_one_hand_values(self):
        # u0 = cos(pi x), u1 = 0, K=1, lam=2, f=0:
        # level 1 displacement vanishes, velocity is -(pi^2 + 1) cos(pi x)
        u0_1, u1_1 = compatibility_data(cosine_data(), P, 1)
        np.testing.assert_allclose(u0_1(X_SAMPLES), 0.0, atol=1e-15)
        np.testing.assert_allclose(
            u1_1(X_SAMPLES), -(np.pi**2 + 1.0) * np.cos(np.pi * X_SAMPLES), atol=1e-12
        )

    def test_order_two_hand_values(self):
        u0_2, u1_2 = compatibility_data(cosine_data(), P, 2)
        np.testing.assert_allclose(
            u0_2(X_SAMPLES), -(np.pi**2 + 1.0) * np.cos(np.pi * X_SAMPLES), atol=1e-12
        )
        np.testing.assert_allclose(
            u1_2(X_SAMPLES), 2.0 * (np.pi**2 + 1.0) * np.cos(np.pi * X_SAMPLES), atol=1e-12
        )

    def test_missing_forcing_derivative_raises(self):
        data = cosine_data(f_levels=0)
        with pytest.raises(OrderError):
            compatibility_data(data, P, 1)

    def test_finite_difference_fallback_matches_analytic(self):
        exact_u0_1, exact_u1_1 = compatibility_data(cosine_data(), P, 1)
        fd_u0_1, fd_u1_1 = compatibility_data(cosine_data(with_analytic_xx=False), P, 1)
        x = np.linspace(0.05, 0.95, 13)  # stencil needs room around the ends
        np.testing.assert_allclose(fd_u0_1(x), exact_u0_1(x), atol=1e-12)
        np.testing.assert_allclose(fd_u1_1(x), exact_u1_1(x), atol=1e-6)

    def test_linearity_in_the_data(self):
        a = cosine_data()
        b = SmoothData(
            u0=lambda x: x**2,
            u1=lambda x: 1.0 - x,
            u0_xx=lambda x: 2.0 + 0.0 * np.asarray(x, dtype=float),
            u1_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            forcing_derivs=(Forcing(f=lambda x, t: np.sin(x) + 0.0 * t),) * 2,
        )
        combined = SmoothData(
            u0=lambda x: a.u0(x) + b.u0(x),
            u1=lambda x: a.u1(x) + b.u1(x),
            u0_xx=lambda x: a.u0_xx(x) + b.u0_xx(x),
            u1_xx=lambda x: a.u1_xx(x) + b.u1_xx(x),
            forcing_derivs=tuple(
                replace(fa, f=lambda x, t, fa=fa, fb=fb: fa.f(x, t) + fb.f(x, t))
                for fa, fb in zip(a.forcing_derivs, b.forcing_derivs)
            ),
        )
        for r in (1, 2):
            ua0, ua1 = compatibility_data(a, P, r)
            ub0, ub1 = compatibility_data(b, P, r)
            uc0, uc1 = compatibility_data(combined, P, r)
            np.testing.assert_allclose(uc0(X_SAMPLES), ua0(X_SAMPLES) + ub0(X_SAMPLES), atol=1e-12)
            np.testing.assert_allclose(uc1(X_SAMPLES), ua1(X_SAMPLES) + ub1(X_SAMPLES), atol=1e-12)


REF = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.01, ht1=0.01,
                    lt0=0.1, lt1=0.1, K=1.0, lam=1.0)


class TestLadder:
    def test_zero_data_zero_discrepancy(self):
        zero_t = lambda t: 0.0  # noqa: E731
        data = SmoothData(
            u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            u1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            u0_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            u1_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            forcing_derivs=(Forcing(f=zero_xt, g0=zero_t, g1=zero_t),) * 2,
        )
        report = ladder_check(data, REF, uniform_mesh(17), Forcing(), 1, T=0.5, dt=1e-2)
        assert report.abs_discrepancy == 0.0

    def test_manufactured_first_order(self):
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 1)
        report = ladder_check(data, REF, uniform_mesh(65), ms.forcing(), 1, T=1.0, dt=2e-3)
        assert report.rel_discrepancy <= 1e-2

    def test_manufactured_second_order(self):
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 2)
        report = ladder_check(data, REF, uniform_mesh(65), ms.forcing(), 2, T=1.0, dt=2e-3)
        assert report.rel_discrepancy <= 1e-2

    def test_discrepancy_refines_at_combined_order_one(self):
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 1)
        coarse = ladder_check(data, REF, uniform_mesh(17), ms.forcing(), 1, T=0.5, dt=2.5e-3)
        fine = ladder_check(data, REF, uniform_mesh(33), ms.forcing(), 1, T=0.5, dt=1.25e-3)
        order = np.log2(coarse.rel_discrepancy / fine.rel_discrepancy)
        assert order >= 1.0

    def test_inconsistent_data_detected(self):
        # shifting d^0 f/dt^0 by +1 shifts the level-1 initial velocity by
        # exactly 1 while leaving both solver forcings untouched
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 1)
        level0 = data.forcing_derivs[0]
        perturbed = replace(data, forcing_derivs=(
            replace(level0, f=lambda x, t: level0.f(x, t) + 1.0),) + data.forcing_derivs[1:])
        report = ladder_check(perturbed, REF, uniform_mesh(65), ms.forcing(), 1, T=1.0, dt=2e-3)
        assert report.rel_discrepancy >= 0.1

    def test_unsupported_order_rejected(self):
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 3)
        with pytest.raises(ValueError):
            ladder_check(data, REF, uniform_mesh(17), ms.forcing(), 3, T=0.5, dt=1e-2)

    def test_missing_forcing_level_raises(self):
        ms = manufacture("decaying_cosine", REF)
        data = smooth_data_from_manufactured(ms, 0)  # lists stop at order 0
        with pytest.raises(OrderError):
            ladder_check(data, REF, uniform_mesh(17), ms.forcing(), 1, T=0.5, dt=1e-2)
