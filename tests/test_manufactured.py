import numpy as np
import pytest

from twopointwave import (FORM_NAMES, Forcing, ProblemParams, Separable, assemble, integrate,
                          load_vector, manufacture, project_initial_data, sigma_forcing,
                          uniform_mesh)
from twopointwave.errors import UnknownFormError
from twopointwave.galerkin import time_blocks

P = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.01, ht1=0.01,
                  lt0=0.1, lt1=0.1, K=1.0, lam=1.0)


def test_unknown_form_rejected():
    with pytest.raises(UnknownFormError):
        manufacture("squarewave", P)


def test_affine_forcing_hand_value():
    # decaying_affine with K=1, lam=1: u_tt = u, u_xx = 0, f = u + u - u = u
    p = ProblemParams(h0=1.0, h1=0.0, lam0=1.0, lam1=1.0, ht0=0.0, ht1=0.0,
                      lt0=0.0, lt1=0.0, K=1.0, lam=1.0)
    ms = manufacture("decaying_affine", p, alpha=1.0)
    x = np.linspace(0.0, 1.0, 9)
    for t in (0.0, 0.7, 2.0):
        np.testing.assert_allclose(ms.f(x, t), np.exp(-t) * (1.0 + x), atol=1e-14)


def test_zero_form_gives_zero_everything():
    ms = manufacture("zero", P)
    x = np.linspace(0.0, 1.0, 9)
    assert np.all(ms.f(x, 0.3) == 0.0)
    assert ms.g0(0.3) == 0.0
    assert ms.g1(0.3) == 0.0
    assert np.all(ms.u0(x) == 0.0)
    assert np.all(ms.u1(x) == 0.0)


@pytest.mark.parametrize("name", FORM_NAMES)
def test_interior_residual_vanishes(name):
    ms = manufacture(name, P, alpha=1.0)
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, 1000)
    t = rng.uniform(0.0, 3.0, 1000)
    residual = (
        ms.u(x, t, dt_order=2) - ms.uxx(x, t) + P.K * ms.u(x, t)
        + P.lam * ms.u(x, t, dt_order=1) - ms.f(x, t)
    )
    assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("name", FORM_NAMES)
def test_boundary_identities_vanish(name):
    ms = manufacture(name, P, alpha=1.0)
    rng = np.random.default_rng(23)
    for t in rng.uniform(0.0, 3.0, 200):
        left = (
            ms.ux(0.0, t) - P.h0 * ms.u(0.0, t) - P.lam0 * ms.u(0.0, t, 1)
            - P.ht1 * ms.u(1.0, t) - P.lt1 * ms.u(1.0, t, 1) - ms.g0(t)
        )
        right = (
            -ms.ux(1.0, t) - P.h1 * ms.u(1.0, t) - P.lam1 * ms.u(1.0, t, 1)
            - P.ht0 * ms.u(0.0, t) - P.lt0 * ms.u(0.0, t, 1) - ms.g1(t)
        )
        assert abs(left) <= 1e-10
        assert abs(right) <= 1e-10


def test_initial_data_read_at_time_zero():
    ms = manufacture("decaying_cosine", P, alpha=2.0)
    x = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(ms.u0(x), np.cos(np.pi * x), atol=1e-15)
    np.testing.assert_allclose(ms.u1(x), -2.0 * np.cos(np.pi * x), atol=1e-15)


def test_decaying_forms_have_exponential_forcing_envelope():
    # every forcing component carries exp(-alpha t), so the squared
    # magnitude decays at exactly rate 2*alpha
    for name in ("decaying_cosine", "decaying_affine"):
        ms = manufacture(name, P, alpha=1.5)
        x = np.linspace(0.0, 1.0, 41)
        base = np.max(np.abs(ms.f(x, 0.0))) ** 2 + ms.g0(0.0) ** 2 + ms.g1(0.0) ** 2
        later = np.max(np.abs(ms.f(x, 2.0))) ** 2 + ms.g0(2.0) ** 2 + ms.g1(2.0) ** 2
        assert later == pytest.approx(base * np.exp(-2.0 * 1.5 * 2.0), rel=1e-12)


@pytest.mark.parametrize("name", FORM_NAMES)
def test_forcing_time_derivatives_match_finite_differences(name):
    ms = manufacture(name, P, alpha=1.0)
    x = np.linspace(0.0, 1.0, 7)
    h = 1e-6
    for t in (0.3, 1.1):
        fd = (ms.f(x, t + h) - ms.f(x, t - h)) / (2.0 * h)
        np.testing.assert_allclose(ms.f(x, t, dt_order=1), fd, atol=1e-6)
        fd_g = (ms.g0(t + h) - ms.g0(t - h)) / (2.0 * h)
        assert ms.g0(t, dt_order=1) == pytest.approx(fd_g, abs=1e-6)


# nonsymmetric couplings and lam = 2
NONSYM = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.3, ht1=-0.2,
                       lt0=0.1, lt1=0.1, K=1.0, lam=2.0)


class TestSeparableForcing:
    """``forcing(k)`` gives f, g0 and g1 as Separable sums, which the load
    quadrature evaluates per block of times; its values must be those of the
    plain callables ``f``, ``g0`` and ``g1`` up to the rounding of the
    regrouped sum."""

    TIMES = np.concatenate([[0.0], 0.0731 * np.arange(1, 40) + 0.5e-3])
    REL = 2e-15

    @staticmethod
    def plain(ms, k):
        return Forcing(f=lambda x, t: ms.f(x, t, k), g0=lambda t: ms.g0(t, k),
                       g1=lambda t: ms.g1(t, k))

    @pytest.mark.parametrize("n", [2, 9, 65, 513])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("name", FORM_NAMES)
    def test_equals_the_plain_callables(self, name, k, n):
        ms = manufacture(name, NONSYM, alpha=1.3)
        sys = assemble(uniform_mesh(n), NONSYM)
        separable, plain = ms.forcing(k), self.plain(ms, k)
        assert all(isinstance(g, Separable) for g in (separable.f, separable.g0, separable.g1))
        rows, expected = load_vector(sys, separable, self.TIMES), load_vector(sys, plain, self.TIMES)
        assert np.all(np.max(np.abs(rows - expected), axis=1)
                      <= self.REL * np.max(np.abs(expected), axis=1))
        sigma, sigma_plain = (sigma_forcing(separable, sys, self.TIMES),
                              sigma_forcing(plain, sys, self.TIMES))
        assert np.all(np.abs(sigma - sigma_plain) <= self.REL * sigma_plain)
        for t, row in zip(self.TIMES, rows):
            np.testing.assert_array_equal(row, load_vector(sys, separable, t))

    def test_time_factors_see_each_block_once(self):
        # integrate calls each time factor once per block of steps, with the
        # block's times as a 1-d array: no per-time call
        sys = assemble(uniform_mesh(513), NONSYM)
        ms = manufacture("decaying_cosine", NONSYM)
        shapes = {}

        def counted(key, theta):
            def time_factor(t):
                shapes.setdefault(key, []).append(np.shape(t))
                return theta(t)
            return time_factor

        separable = ms.forcing()
        components = {c: getattr(separable, c) for c in ("f", "g0", "g1")}
        forcing = Forcing(**{c: Separable([(counted((c, i), theta), s)
                                           for i, (theta, s) in enumerate(g.terms)])
                             for c, g in components.items()})
        c0, v0 = project_initial_data(sys.mesh, ms.u0, ms.u1)
        traj = integrate(sys, forcing, c0, v0, T=0.05, dt=1e-3)
        blocks = [(b.stop - b.start,) for b in time_blocks(sys, 50)]
        assert 1 < len(blocks) < 50
        assert sorted(shapes) == [(c, i) for c in ("f", "g0", "g1") for i in (0, 1)]
        assert all(calls == blocks for calls in shapes.values())
        np.testing.assert_array_equal(
            traj.coeffs, integrate(sys, separable, c0, v0, T=0.05, dt=1e-3).coeffs)
