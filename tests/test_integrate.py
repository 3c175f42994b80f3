import importlib
import math
import os
import subprocess
import sys as system
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

import twopointwave

from twopointwave import (
    Forcing,
    GalerkinSystem,
    ProblemParams,
    assemble,
    integrate,
    integrate_columns,
    manufacture,
    oracle_integrate,
    project_initial_data,
    record_trajectory,
    uniform_mesh,
)
from conftest import boundary_integral
from twopointwave.errors import DimensionError, SingularMatrixError
from twopointwave.galerkin import (BLOCK_VALUES, BandedOperator, error_norms, load_vector,
                                   time_blocks)
from twopointwave.integrate import BLOCK_ANCHORS, BLOCK_STEPS, DENSE_MAX_DIM, MidpointStepper

P = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.01, ht1=0.01,
                  lt0=0.1, lt1=0.1, K=1.0, lam=1.0)


def scalar_system(mass, stiffness, damping=0.0):
    """Hand-built one-dimensional diagnostic config (bypasses assembly)."""
    M, A, Z, C = (BandedOperator([], [value], []) for value in (mass, stiffness, 0.0, damping))
    return GalerkinSystem(mesh=uniform_mesh(2), p=P, M=M, S=A, A=A, D=Z, B=Z, C_mat=C, K_mat=A,
                          quad_x=np.zeros((1, 3)))


class TestProjectInitialData:
    def test_zero(self):
        mesh = uniform_mesh(5)
        c0, v0 = project_initial_data(mesh, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
        np.testing.assert_array_equal(c0, 0.0)
        np.testing.assert_array_equal(v0, 0.0)

    def test_nodal_evaluation(self):
        mesh = uniform_mesh(3)
        c0, _ = project_initial_data(mesh, lambda x: x, lambda x: np.zeros_like(x))
        np.testing.assert_allclose(c0, [0.0, 0.5, 1.0])

    def test_interpolation_error_halves_under_refinement(self):
        u0 = lambda x: np.cos(np.pi * x)  # noqa: E731
        u0x = lambda x: -np.pi * np.sin(np.pi * x)  # noqa: E731
        errs = []
        for n in (9, 17, 33):
            sys = assemble(uniform_mesh(n), P)
            c0, _ = project_initial_data(sys.mesh, u0, lambda x: np.zeros_like(x))
            _, h1 = error_norms(sys, c0, u0, u0x)
            errs.append(h1)
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.9)


class TestStep:
    def test_equilibrium_is_fixed(self):
        sys = assemble(uniform_mesh(5), P)
        c, v = MidpointStepper(sys, 0.01).step(Forcing(), np.zeros(5), np.zeros(5), 0.0)
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_midpoint_conserves_undamped_scalar_energy(self):
        # m=1 diagnostic config: M=1, A=omega^2, no damping or coupling.
        omega = 2.0
        sys = scalar_system(1.0, omega**2)
        c, v = np.array([1.0]), np.array([0.0])
        dt = 1e-2
        E0 = 0.5 * v[0] ** 2 + 0.5 * omega**2 * c[0] ** 2
        drift = 0.0
        from twopointwave.integrate import MidpointStepper

        stepper = MidpointStepper(sys, dt)
        for n in range(10_000):
            c, v = stepper.step(Forcing(), c, v, n * dt)
            E = 0.5 * v[0] ** 2 + 0.5 * omega**2 * c[0] ** 2
            drift = max(drift, abs(E - E0))
        assert drift <= 1e-12 * E0

    @pytest.mark.parametrize("n", [2, 65])
    def test_sparse_step_matches_dense_solve(self, n):
        p = ProblemParams(h0=1.3, h1=0.45, lam0=0.8, lam1=1.7, ht0=0.21, ht1=-0.37,
                          lt0=0.55, lt1=-0.12, K=0.9, lam=0.65)
        sys = assemble(uniform_mesh(n), p)
        forcing = Forcing(f=lambda x, t: np.sin(3.0 * x + t), g0=math.cos, g1=lambda t: -t)
        rng = np.random.default_rng(n)
        c, v = rng.standard_normal(n), rng.standard_normal(n)
        dt, t = 1e-2, 0.3
        M, C, K = sys.M.toarray(), sys.C_mat.toarray(), sys.K_mat.toarray()
        rhs = M @ v + 0.5 * dt * (load_vector(sys, forcing, t + 0.5 * dt) - K @ c)
        vm = scipy.linalg.solve(M + 0.5 * dt * C + 0.25 * dt * dt * K, rhs)
        c1, v1 = MidpointStepper(sys, dt).step(forcing, c, v, t)
        for got, want in ((c1, c + dt * vm), (v1, 2.0 * vm - v)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 65])
    def test_fused_steps_match_the_two_product_formula(self, n):
        # the fused right-hand side R z + dt/2 F with R = [M | -dt/2 K_mat]
        # against M v + dt/2 (F - K_mat c) with a dense factorisation, over a
        # whole run with nonsymmetric couplings and every forcing term on
        p = replace(P, ht0=0.3, ht1=-0.2, lt0=0.4, lt1=-0.1)
        sys = assemble(uniform_mesh(n), p)
        forcing = Forcing(f=lambda x, t: np.sin(3.0 * x + t), g0=math.cos,
                          g1=lambda t: math.exp(-t))
        rng = np.random.default_rng(n)
        c, v = rng.standard_normal(n), rng.standard_normal(n)
        dt, steps = 1e-3, 1000
        traj = integrate(sys, forcing, c, v, steps * dt, dt)
        M, C, K = sys.M.toarray(), sys.C_mat.toarray(), sys.K_mat.toarray()
        lu = scipy.linalg.lu_factor(M + 0.5 * dt * C + 0.25 * dt * dt * K)
        want_c, want_v = [c], [v]
        for t in traj.times[:-1]:
            rhs = M @ v + 0.5 * dt * (load_vector(sys, forcing, t + 0.5 * dt) - K @ c)
            vm = scipy.linalg.lu_solve(lu, rhs)
            c, v = c + dt * vm, 2.0 * vm - v
            want_c.append(c)
            want_v.append(v)
        for got, want in ((traj.coeffs, np.array(want_c)), (traj.velocities, np.array(want_v))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_singular_iteration_matrix_reported(self):
        # M + dt^2/4 * K_mat = 0 when K_mat = -4/dt^2 * M
        dt = 0.1
        sys = scalar_system(1.0, -4.0 / dt**2)
        with pytest.raises(SingularMatrixError):
            MidpointStepper(sys, dt)

    @pytest.mark.parametrize("mass, singular", [(1e-15, True), (1e-13, False)])
    def test_near_singular_iteration_matrix_reported(self, mass, singular):
        # the pivot rule: a pivot at most 1e-14 * max(largest pivot, 1) is
        # refused; here the iteration matrix is the mass alone
        sys = scalar_system(mass, 0.0)
        if singular:
            with pytest.raises(SingularMatrixError):
                MidpointStepper(sys, 0.1)
        else:
            MidpointStepper(sys, 0.1)


class TestIntegrate:
    def test_sample_count(self):
        sys = assemble(uniform_mesh(3), P)
        traj = integrate(sys, Forcing(), np.zeros(3), np.zeros(3), T=1.0, dt=0.1)
        assert traj.n_samples == 11

    def test_non_integral_horizon_rejected(self):
        sys = assemble(uniform_mesh(3), P)
        with pytest.raises(ValueError):
            integrate(sys, Forcing(), np.zeros(3), np.zeros(3), T=1.0, dt=0.3)

    def test_wrong_initial_length_rejected(self):
        sys = assemble(uniform_mesh(3), P)
        with pytest.raises(DimensionError):
            integrate(sys, Forcing(), np.zeros(4), np.zeros(4), T=1.0, dt=0.1)
        with pytest.raises(DimensionError):
            oracle_integrate(sys, Forcing(), np.zeros(2), np.zeros(2), T=1.0, dt=0.1)

    def test_zero_data_stays_zero(self):
        sys = assemble(uniform_mesh(17), P)
        traj = integrate(sys, Forcing(), np.zeros(17), np.zeros(17), T=2.0, dt=1e-2)
        norms = np.linalg.norm(traj.coeffs, axis=1) + np.linalg.norm(traj.velocities, axis=1)
        assert norms.max() <= 1e-12

    def test_bitwise_reproducible(self):
        sys = assemble(uniform_mesh(9), P)
        c0, v0 = project_initial_data(sys.mesh, lambda x: np.cos(np.pi * x),
                                      lambda x: np.zeros_like(x))
        a = integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-2)
        b = integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-2)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(boundary_integral(sys, a, record_trajectory(a, sys, P, None)),
                              boundary_integral(sys, b, record_trajectory(b, sys, P, None)))

    def test_accumulators_monotone_and_additive(self):
        # the boundary integral in X, read back as X minus the state norms
        sys = assemble(uniform_mesh(9), P)
        c0, v0 = project_initial_data(sys.mesh, lambda x: np.cos(np.pi * x),
                                      lambda x: np.zeros_like(x))
        full = integrate(sys, Forcing(), c0, v0, T=2.0, dt=1e-2)
        records = record_trajectory(full, sys, P, None)
        acc = boundary_integral(sys, full, records)
        assert np.all(np.diff(acc) >= -1e-300)
        # restart at the midpoint (sample 100) and on the block grid before it
        # (sample 96): an unforced run advances by blocks of BLOCK_STEPS steps
        # from its start, whatever time it counts from, so a restart on that
        # grid reproduces the final state bit for bit, and one off it to
        # roundoff: 4.7e-15 of the final state's largest value measured at
        # sample 100, at most 6.2e-15 over restarts at samples 81 to 120.
        # Either way the running integrals split up to the summation order
        # (1e-15) and one rounding of X in each of the three integrals read
        # back from it
        mid = full.n_samples // 2
        for start in (mid, mid // BLOCK_STEPS * BLOCK_STEPS):
            second = integrate(sys, Forcing(), full.coeffs[start], full.velocities[start],
                               T=(full.n_samples - 1 - start) * 1e-2, dt=1e-2)
            for got, want in ((second.coeffs[-1], full.coeffs[-1]),
                              (second.velocities[-1], full.velocities[-1])):
                if start % BLOCK_STEPS == 0:
                    np.testing.assert_array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))
            acc_second = boundary_integral(sys, second, record_trajectory(second, sys, P, None))
            np.testing.assert_allclose(acc[start] + acc_second[-1], acc[-1], rtol=0,
                                       atol=1e-15 + 3 * np.spacing(records.X.max()))

    def test_nodal_error_is_second_order_in_dt(self):
        # the affine exact solution lives in the trial space, so the only
        # error left is the time discretization
        from twopointwave import manufacture

        ms = manufacture("decaying_affine", P, alpha=1.0)
        sys = assemble(uniform_mesh(9), P)
        c0, v0 = project_initial_data(sys.mesh, ms.u0, ms.u1)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            traj = integrate(sys, ms.forcing(), c0, v0, T=1.0, dt=dt)
            exact = np.exp(-traj.times)[:, None] * (1.0 + sys.mesh.nodes)[None, :]
            errs.append(np.max(np.abs(traj.coeffs - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)

    def test_traces_match_endpoint_coefficients(self):
        sys = assemble(uniform_mesh(9), P)
        c0, v0 = project_initial_data(sys.mesh, lambda x: 1.0 + x, lambda x: np.zeros_like(x))
        traj = integrate(sys, Forcing(), c0, v0, T=0.5, dt=1e-2)
        np.testing.assert_array_equal(traj.traces[:, 0], traj.coeffs[:, 0])
        np.testing.assert_array_equal(traj.traces[:, 1], traj.coeffs[:, -1])
        np.testing.assert_array_equal(traj.traces[:, 2], traj.velocities[:, 0])
        np.testing.assert_array_equal(traj.traces[:, 3], traj.velocities[:, -1])


class TestBatchedForcing:
    """integrate takes its midpoint loads from one load_vector call per block
    of steps; the result must not differ from stepping one load at a time."""

    T, DT = 0.05, 1e-3  # 50 steps

    @pytest.mark.parametrize("n", [9, 513])
    def test_integrate_equals_a_loop_of_step(self, n):
        sys = assemble(uniform_mesh(n), P)
        steps = round(self.T / self.DT)
        blocks = time_blocks(sys, steps)
        if n == 513:  # several blocks, the last one ragged
            sizes = [b.stop - b.start for b in blocks]
            assert len(sizes) > 1 and sizes[-1] < sizes[0]
        ms = manufacture("decaying_cosine", P, 1.0)
        c0, v0 = project_initial_data(sys.mesh, ms.u0, ms.u1)
        traj = integrate(sys, ms.forcing(), c0, v0, self.T, self.DT)
        stepper = MidpointStepper(sys, self.DT)
        c, v = c0, v0
        for k in range(steps):
            c, v = stepper.step(ms.forcing(), c, v, traj.times[k])
            np.testing.assert_array_equal(traj.coeffs[k + 1], c)
            np.testing.assert_array_equal(traj.velocities[k + 1], v)

    def test_interior_load_is_evaluated_once_per_block(self):
        sys = assemble(uniform_mesh(513), P)
        calls = []

        def f(x, t):
            calls.append(np.shape(t))
            return np.sin(3.0 * x + t)

        integrate(sys, Forcing(f=f), np.zeros(513), np.zeros(513), self.T, self.DT)
        per_block = BLOCK_VALUES // sys.quad_x.size
        assert len(calls) == math.ceil(50 / per_block) < 50
        assert calls[0] == (per_block, 1, 1)

    @pytest.mark.parametrize("n", [9, DENSE_MAX_DIM + 1])
    def test_unforced_runs_on_the_dense_path_evaluate_no_loads(self, n, monkeypatch):
        module = importlib.import_module("twopointwave.integrate")
        forcings = []

        def counting(sys, forcing, t):
            forcings.append(forcing)
            return load_vector(sys, forcing, t)

        monkeypatch.setattr(module, "load_vector", counting)
        sys = assemble(uniform_mesh(n), P)
        c0, v0 = np.cos(np.pi * sys.mesh.nodes), np.zeros(n)
        unforced, forced = Forcing(), _boundary_exp(1.0, 1.0)
        for runs, dense_calls in (([unforced, unforced], set()), ([unforced, forced], {id(forced)})):
            forcings.clear()
            integrate_columns(sys, runs, [c0, -c0], [v0, v0], self.T, self.DT)
            want = dense_calls if n <= DENSE_MAX_DIM else set(map(id, runs))
            assert set(map(id, forcings)) == want

    @pytest.mark.parametrize("caller", ["load_vector", "stepper", "oracle", "integrate"])
    def test_f_only_sees_blocks_of_times(self, caller):
        # one time reaches f as a block of one, shape (1, 1, 1), never a scalar
        shapes = []

        def f(x, t):
            shapes.append(np.shape(t))
            return np.sin(3.0 * x + t)

        sys = assemble(uniform_mesh(3), P)
        forcing, c, v = Forcing(f=f, g0=math.cos), np.ones(3), np.zeros(3)
        if caller == "load_vector":
            load_vector(sys, forcing, 0.3)
        elif caller == "stepper":
            MidpointStepper(sys, 0.01).step(forcing, c, v, 0.3)
        elif caller == "oracle":
            oracle_integrate(sys, forcing, c, v, T=0.02, dt=0.01)
        else:
            integrate(sys, forcing, c, v, T=0.02, dt=0.01)
        assert shapes and all(len(s) == 3 and s[1:] == (1, 1) for s in shapes)
        if caller != "integrate":
            assert set(shapes) == {(1, 1, 1)}


def _boundary_exp(amplitude, rate):
    return Forcing(g0=lambda t: amplitude * math.exp(-rate * t))


class TestColumns:
    """integrate_columns advances k runs of one system as the columns of one
    stacked state; each column must equal its run integrated alone, bit for
    bit."""

    T, DT = 0.2, 1e-3

    @staticmethod
    def runs(kind, sys):
        """Four (forcing, c0, v0) that share sys and differ in their data."""
        nodes = sys.mesh.nodes
        if kind == "unforced":
            return [(Forcing(), a * np.cos(np.pi * nodes), np.zeros(sys.m))
                    for a in (1.0, 0.5, -2.0, 3.0)]
        if kind == "boundary_exp":
            return [(_boundary_exp(a, r), np.cos(np.pi * nodes), np.zeros(sys.m))
                    for a, r in ((0.5, 0.25), (1.0, 1.0), (2.0, 0.5), (-1.0, 2.0))]
        if kind == "manufactured":
            out = []
            for alpha in (0.5, 1.0, 2.0, 0.9):
                ms = manufacture("decaying_cosine", P, alpha)
                out.append((ms.forcing(), *project_initial_data(sys.mesh, ms.u0, ms.u1)))
            return out
        if kind == "mixed":  # unforced runs next to forced ones
            ms = manufacture("decaying_cosine", P, 1.0)
            return [(Forcing(), np.cos(np.pi * nodes), np.zeros(sys.m)),
                    (_boundary_exp(1.0, 1.0), 1.0 + nodes, np.zeros(sys.m)),
                    (Forcing(), np.zeros(sys.m), np.sin(np.pi * nodes)),
                    (ms.forcing(), *project_initial_data(sys.mesh, ms.u0, ms.u1))]
        # different initial data, one forcing
        return [(_boundary_exp(1.0, 1.0), c0, v0) for c0, v0 in (
            (np.cos(np.pi * nodes), np.zeros(sys.m)), (1.0 + nodes, np.zeros(sys.m)),
            (np.zeros(sys.m), np.sin(np.pi * nodes)), (nodes**2, -nodes))]

    @pytest.mark.parametrize("kind", ["unforced", "boundary_exp", "manufactured", "initial_data",
                                      "mixed"])
    @pytest.mark.parametrize("n", [2, 33, 65])
    def test_columns_equal_separate_runs(self, kind, n):
        sys = assemble(uniform_mesh(n), P)
        runs = self.runs(kind, sys)
        alone = [integrate(sys, f, c0, v0, self.T, self.DT) for f, c0, v0 in runs]
        for k in (1, 2, 3, 4):
            forcings, c0s, v0s = zip(*runs[:k])
            trajs = integrate_columns(sys, forcings, c0s, v0s, self.T, self.DT)
            assert len(trajs) == k
            for traj, ref in zip(trajs, alone):
                np.testing.assert_array_equal(traj.times, ref.times)
                np.testing.assert_array_equal(traj.coeffs, ref.coeffs)
                np.testing.assert_array_equal(traj.velocities, ref.velocities)

    def assert_one_non_finite_column(self, sys, runs):
        """Run 1 starts with an inf; the others must equal their runs alone."""
        bad = runs[1][1].copy()
        bad[-1] = math.inf
        runs[1] = (runs[1][0], bad, runs[1][2])
        forcings, c0s, v0s = zip(*runs)
        with np.errstate(over="ignore", invalid="ignore"):
            trajs = integrate_columns(sys, forcings, c0s, v0s, self.T, self.DT)
        assert not np.all(np.isfinite(trajs[1].coeffs[-1]))
        for j in (0, 2):
            ref = integrate(sys, *runs[j], self.T, self.DT)
            np.testing.assert_array_equal(trajs[j].coeffs, ref.coeffs)
            np.testing.assert_array_equal(trajs[j].velocities, ref.velocities)

    def test_a_non_finite_column_leaves_the_others_alone(self):
        sys = assemble(uniform_mesh(17), P)
        self.assert_one_non_finite_column(sys, self.runs("boundary_exp", sys)[:3])

    def test_a_non_finite_unforced_column_leaves_the_others_alone(self):
        # unforced columns on the dense path advance by blocks of steps, a
        # forced one step by step
        sys = assemble(uniform_mesh(17), P)
        runs = self.runs("unforced", sys)[:2] + self.runs("boundary_exp", sys)[2:3]
        self.assert_one_non_finite_column(sys, runs)

    @pytest.mark.parametrize("lengths", [(2, 1, 2), (2, 2, 1), (1, 2, 2), (0, 0, 0)])
    def test_mismatched_lengths_rejected(self, lengths):
        sys = assemble(uniform_mesh(5), P)
        forcings, c0s, v0s = ([Forcing()] * lengths[0], [np.zeros(5)] * lengths[1],
                              [np.zeros(5)] * lengths[2])
        with pytest.raises(DimensionError):
            integrate_columns(sys, forcings, c0s, v0s, self.T, self.DT)

    def test_wrong_initial_length_in_one_column_rejected(self):
        sys = assemble(uniform_mesh(5), P)
        with pytest.raises(DimensionError):
            integrate_columns(sys, [Forcing()] * 2, [np.zeros(5), np.zeros(4)],
                              [np.zeros(5)] * 2, self.T, self.DT)


class TestDenseAndSparsePaths:
    """Systems with at most DENSE_MAX_DIM unknowns step with the dense
    propagator, larger ones with a sparse product and a SuperLU solve; on
    either side, integrate and integrate_columns must agree with a plain
    sparse midpoint loop over a long run on physical data."""

    DT, STEPS = 1e-3, 1000

    @staticmethod
    def plain_loop(sys, forcing, c, v, times, dt):
        """The midpoint rule as two sparse products and one SuperLU solve of
        the iteration matrix per step."""
        lu = splu((sys.M + 0.5 * dt * sys.C_mat + 0.25 * dt * dt * sys.K_mat).tocsr().tocsc())
        M, K = sys.M.tocsr(), sys.K_mat.tocsr()
        cs, vs = [c], [v]
        for t in times[:-1]:
            load = load_vector(sys, forcing, t + 0.5 * dt)
            vm = lu.solve(M @ v + 0.5 * dt * (load - K @ c))
            c, v = c + dt * vm, 2.0 * vm - v
            cs.append(c)
            vs.append(v)
        return np.array(cs), np.array(vs)

    @pytest.mark.parametrize("n", [2, 33, 65, DENSE_MAX_DIM, DENSE_MAX_DIM + 1])
    def test_both_paths_match_a_plain_sparse_loop(self, n):
        sys = assemble(uniform_mesh(n), P)
        assert MidpointStepper(sys, self.DT).dense == (n <= DENSE_MAX_DIM)
        nodes = sys.mesh.nodes
        ms = manufacture("decaying_cosine", P, 1.0)
        runs = [(Forcing(), np.cos(np.pi * nodes), np.zeros(n)),
                (_boundary_exp(1.0, 0.5), 1.0 + nodes, np.zeros(n)),
                (ms.forcing(), *project_initial_data(sys.mesh, ms.u0, ms.u1))]
        T = self.STEPS * self.DT
        columns = integrate_columns(sys, *zip(*runs), T, self.DT)
        for (forcing, c0, v0), column in zip(runs, columns):
            want_c, want_v = self.plain_loop(sys, forcing, c0, v0, column.times, self.DT)
            for traj in (column, integrate(sys, forcing, c0, v0, T, self.DT)):
                for got, want in ((traj.coeffs, want_c), (traj.velocities, want_v)):
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _long_double_loop(D, z, steps):
    """z_{n+1} = z_n + D z_n in long double, from the float64 D and z."""
    D, z = D.astype(np.longdouble), z.astype(np.longdouble)
    out = [z]
    for _ in range(steps):
        z = z + D @ z
        out.append(z)
    return np.array(out)


def _plain_power_increments(stepper):
    """What MidpointStepper._block_increments holds, built from the powers
    P^j = P P^(j-1) instead: fl(P^j) - I in place of D_j."""
    m = stepper.sys.m
    P = np.eye(2 * m) + stepper._D
    G = np.empty((2, 2 * m, BLOCK_STEPS - 1, m))
    power = P
    for j in range(BLOCK_STEPS - 1):
        D_j = power - np.eye(2 * m)
        G[0, :, j], G[1, :, j] = D_j[:m].T, D_j[m:].T
        power = P @ power
    G = G.reshape(2, 2 * m, -1)
    return power - np.eye(2 * m), G[0], G[1]


class TestUnforcedBlocks:
    """An unforced run on the dense path advances by blocks of BLOCK_STEPS
    steps from anchor states, with the increments D_j = P^j - I of the
    propagator P (MidpointStepper.propagate); it must stay as accurate as
    stepping, and agree with a loop of MidpointStepper.step to roundoff."""

    DT = 1e-3

    @staticmethod
    def start(sys):
        nodes = sys.mesh.nodes
        return np.cos(np.pi * nodes), np.sin(np.pi * nodes) - nodes

    @pytest.mark.parametrize("steps", [
        BLOCK_STEPS - 3, BLOCK_STEPS, 3 * BLOCK_STEPS + 1, 5 * BLOCK_STEPS + 7,
        (BLOCK_ANCHORS + 2) * BLOCK_STEPS + 5], ids=["short", "one_block", "blocks_plus_one",
                                                      "ragged_tail", "two_chunks"])
    @pytest.mark.parametrize("n", [2, 33, 65, DENSE_MAX_DIM])
    def test_equals_a_loop_of_step(self, n, steps):
        sys = assemble(uniform_mesh(n), P)
        c0, v0 = self.start(sys)
        traj = integrate(sys, Forcing(), c0, v0, steps * self.DT, self.DT)
        stepper = MidpointStepper(sys, self.DT)
        c, v = c0, v0
        cs, vs = [c], [v]
        for k in range(steps):
            c, v = stepper.step(Forcing(), c, v, traj.times[k])
            cs.append(c.copy())
            vs.append(v.copy())
        for got, want in ((traj.coeffs, np.array(cs)), (traj.velocities, np.array(vs))):
            if steps < BLOCK_STEPS:  # no block: every state is an advance step
                np.testing.assert_array_equal(got, want)
            else:  # measured at most 2.8e-13 (n=73), 1.5e-13 at n=65
                assert np.max(np.abs(got - want)) <= 5e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 33, 65, DENSE_MAX_DIM])
    def test_as_accurate_as_stepping(self, n):
        # distance from a long-double loop of the same float64 P, relative to
        # the largest value, over 2000 steps: measured for stepping / the
        # increments / the plain powers P^j 7.2e-16 / 4.0e-16 / 1.2e-14 at
        # n=2, 2.6e-14 / 4.3e-14 / 1.6e-13 at n=33, 1.2e-13 / 1.0e-13 /
        # 4.4e-13 at n=65, 1.3e-13 / 1.2e-13 / 5.2e-13 at n=73
        sys = assemble(uniform_mesh(n), P)
        steps, m = 2000, sys.m
        stepper = MidpointStepper(sys, self.DT)
        c0, v0 = self.start(sys)
        z = np.concatenate([v0, c0])
        want = _long_double_loop(stepper._D, z, steps)
        scale = np.max(np.abs(want))

        def distance(states):
            return float(np.max(np.abs(states - want)) / scale)

        stepped = [z.copy()]
        for _ in range(steps):
            stepper.advance(z, None)
            stepped.append(z.copy())
        bound = 2.5 * distance(np.array(stepped)) + 1e-15
        for plain_powers in (False, True):
            if plain_powers:
                stepper.__dict__["_block_increments"] = _plain_power_increments(stepper)
            V, C = np.empty((steps + 1, m)), np.empty((steps + 1, m))
            V[0], C[0] = v0, c0
            stepper.propagate(V, C)
            assert (distance(np.hstack([V, C])) <= bound) != plain_powers


class TestOracle:
    def test_rejects_large_systems(self):
        sys = assemble(uniform_mesh(9), P)
        with pytest.raises(DimensionError):
            oracle_integrate(sys, Forcing(), np.zeros(9), np.zeros(9), T=0.1, dt=1e-3)

    def test_failed_solve_raises_instead_of_truncating(self):
        sys = assemble(uniform_mesh(2), P)
        forcing = Forcing(g0=lambda t: math.nan if t > 0.5 else 0.0)
        with pytest.raises(ArithmeticError, match="oracle integration failed"):
            oracle_integrate(sys, forcing, np.ones(2), np.zeros(2), T=1.0, dt=1e-2)

    def test_samples_the_requested_grid(self):
        sys = assemble(uniform_mesh(3), P)
        c0 = np.array([1.0, 0.5, -1.0])
        traj = oracle_integrate(sys, Forcing(), c0, np.zeros(3), T=0.5, dt=0.1)
        np.testing.assert_array_equal(traj.times, 0.1 * np.arange(6))
        # homogeneous: the exact flow is expm of the first-order generator
        M = sys.M.toarray()
        G = np.block([[np.zeros((3, 3)), np.eye(3)],
                      [-np.linalg.solve(M, np.hstack([sys.K_mat.toarray(),
                                                      sys.C_mat.toarray()]))]])
        exact = scipy.linalg.expm(0.5 * G) @ np.concatenate([c0, np.zeros(3)])
        np.testing.assert_allclose(traj.coeffs[-1], exact[:3], rtol=0, atol=1e-10)
        np.testing.assert_allclose(traj.velocities[-1], exact[3:], rtol=0, atol=1e-10)

    def test_zero_case(self):
        sys = assemble(uniform_mesh(2), P)
        traj = oracle_integrate(sys, Forcing(), np.zeros(2), np.zeros(2), T=0.5, dt=1e-3)
        assert np.all(traj.coeffs == 0.0)

    @pytest.mark.parametrize("n_nodes", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["none", "boundary_exp", "manufactured"])
    def test_samples_do_not_depend_on_the_grid(self, n_nodes, kind):
        # the step sizes come from rtol/atol, so sampling every dt or every
        # dt/100 gives the same values at the common times
        sys = assemble(uniform_mesh(n_nodes), P)
        ms = manufacture("decaying_cosine", P)
        forcing = {"none": Forcing(), "boundary_exp": Forcing(g0=lambda t: math.exp(-t)),
                   "manufactured": ms.forcing()}[kind]
        c0, v0 = project_initial_data(sys.mesh, ms.u0, ms.u1)
        coarse = oracle_integrate(sys, forcing, c0, v0, T=1.0, dt=1e-2)
        fine = oracle_integrate(sys, forcing, c0, v0, T=1.0, dt=1e-4)
        ref = fine.coeffs[::100]
        assert np.max(np.abs(coarse.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_agrees_with_midpoint(self):
        sys = assemble(uniform_mesh(2), P)
        c0 = np.array([1.0, -1.0])
        v0 = np.zeros(2)
        mid = integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-2)
        rk = oracle_integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-4)
        ref = rk.coeffs[::100]
        rel = np.max(np.abs(mid.coeffs - ref)) / np.max(np.abs(ref))
        assert rel < 1e-4

    def test_both_integrators_conserve_undamped_energy(self):
        p = ProblemParams(h0=1.0, h1=0.0, lam0=0.0, lam1=0.0, ht0=0.0, ht1=0.0,
                          lt0=0.0, lt1=0.0, K=0.0, lam=0.0)
        sys = assemble(uniform_mesh(2), p)
        c0 = np.array([1.0, 0.0])
        v0 = np.zeros(2)

        def energy_of(traj):
            C, V = traj.coeffs, traj.velocities
            return (0.5 * np.einsum("ni,ij,nj->n", V, sys.M.toarray(), V)
                    + 0.5 * np.einsum("ni,ij,nj->n", C, sys.A.toarray(), C))

        mid = integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-2)
        rk = oracle_integrate(sys, Forcing(), c0, v0, T=1.0, dt=1e-3)
        E_mid = energy_of(mid)
        E_rk = energy_of(rk)
        assert np.max(np.abs(E_mid - E_mid[0])) <= 1e-12 * E_mid[0]
        assert np.max(np.abs(E_rk - E_rk[0])) <= 1e-9 * E_rk[0]


def test_homogeneous_run_never_pumps_lyapunov(ref_run, ref_dc):
    _, records = ref_run
    gamma = records.Gamma
    assert np.max(np.diff(gamma)) <= 1e-8 * gamma[0]
    E = records.E
    assert np.max(np.diff(E)) <= 1e-8 * E[0]


def _scipy_imports(args, cwd):
    """The scipy modules a fresh interpreter imports while running ``args``
    (``python -X importtime`` lists every module it imports on stderr)."""
    src = Path(twopointwave.__file__).resolve().parents[1]
    result = subprocess.run([system.executable, "-X", "importtime", *args], capture_output=True,
                            text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stdout + result.stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name == "scipy" or name.startswith("scipy.")}


def test_package_import_does_not_load_scipy_integrate(tmp_path):
    # nothing on the dense path (m <= DENSE_MAX_DIM) imports scipy: at import
    # time it would add 0.3-0.5 s to every command-line call.  Only the oracle
    # check imports it, scipy.integrate and what that imports.
    assert _scipy_imports(["-c", "import twopointwave"], tmp_path) == set()
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("reference", "conservation_control", "manufactured_cosine"):
        assert _scipy_imports(["-m", "twopointwave", "run", str(configs / f"{name}.cfg"),
                               "--outdir", str(tmp_path / name)], tmp_path) == set(), name
    oracle = _scipy_imports(["-m", "twopointwave", "run", str(configs / "oracle_tiny.cfg"),
                             "--outdir", str(tmp_path / "oracle_tiny")], tmp_path)
    assert "scipy.integrate" in oracle
    assert oracle <= _scipy_imports(["-c", "import scipy.integrate"], tmp_path)
    without_oracle = tmp_path / "oracle_tiny_unchecked.cfg"
    without_oracle.write_text((configs / "oracle_tiny.cfg").read_text()
                              .replace("checks = oracle", "checks = sandwich"))
    assert _scipy_imports(["-m", "twopointwave", "run", str(without_oracle),
                           "--outdir", str(tmp_path / "unchecked")], tmp_path) == set()


def test_sparse_path_imports_scipy_when_it_steps():
    # above DENSE_MAX_DIM the stepper imports SuperLU on first use, and the
    # run matches a plain sparse midpoint loop
    src = Path(twopointwave.__file__).resolve().parents[1]
    code = """if True:
        import sys
        import numpy as np
        import twopointwave as tw
        assert not any(name.startswith("scipy") for name in sys.modules)
        p = tw.ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.01, ht1=0.01,
                             lt0=0.1, lt1=0.1, K=1.0, lam=1.0)
        sys_ = tw.assemble(tw.uniform_mesh(129), p)
        c0 = np.cos(np.pi * sys_.mesh.nodes)
        traj = tw.integrate(sys_, tw.Forcing(), c0, np.zeros(129), T=0.02, dt=1e-3)
        assert "scipy.sparse.linalg" in sys.modules
        from scipy.sparse.linalg import splu
        dt = 1e-3
        lu = splu((sys_.M + 0.5 * dt * sys_.C_mat + 0.25 * dt * dt * sys_.K_mat).tocsr().tocsc())
        M, K = sys_.M.tocsr(), sys_.K_mat.tocsr()
        c, v = c0, np.zeros(129)
        for _ in range(20):
            vm = lu.solve(M @ v - 0.5 * dt * (K @ c))
            c, v = c + dt * vm, 2.0 * vm - v
        print(np.max(np.abs(traj.coeffs[-1] - c)) / np.max(np.abs(c)))
    """
    result = subprocess.run([system.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert float(result.stdout) <= 1e-13
