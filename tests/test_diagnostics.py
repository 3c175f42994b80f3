import dataclasses
import math

import numpy as np
import pytest

from twopointwave import (
    EnergyRecords,
    Forcing,
    ProblemParams,
    assemble,
    check_differential_inequality,
    check_sandwich,
    derive_constants,
    energy,
    fit_decay_rate,
    integrate,
    lyapunov,
    norm_1_sq,
    psi,
    read_energy_csv,
    record_trajectory,
    sigma_forcing,
    uniform_mesh,
    write_energy_csv,
)
from twopointwave.galerkin import time_blocks
from conftest import boundary_integral, flat_records
from twopointwave.errors import (
    DimensionError,
    InsufficientDataError,
    TooFewSamplesError,
)


def with_nan(n, column, index):
    values = np.zeros(n)
    values[index] = math.nan
    return flat_records(n, **{column: values})


def make_params(**overrides):
    base = dict(h0=1.0, h1=0.0, lam0=1.0, lam1=1.0, ht0=0.0, ht1=0.0,
                lt0=0.0, lt1=0.0, K=1.0, lam=1.0)
    base.update(overrides)
    return ProblemParams(**base)


class TestFunctionals:
    def test_zero_state(self):
        p = make_params()
        sys = assemble(uniform_mesh(5), p)
        z = np.zeros(5)
        assert energy(sys, p, z, z) == 0.0
        assert psi(sys, p, z, np.ones(5)) == 0.0

    def test_energy_of_constant_displacement(self):
        p = make_params(K=0.0)
        sys = assemble(uniform_mesh(6), p)
        c = np.ones(6)
        assert energy(sys, p, c, np.zeros(6)) == pytest.approx(0.5)

    def test_psi_hand_value(self):
        # v=0, u=1, lam=2, lam0=lam1=1: 0 + (2/2)*1 + 1/2 + 1/2 = 2
        p = make_params(lam=2.0)
        sys = assemble(uniform_mesh(7), p)
        c = np.ones(7)
        assert psi(sys, p, c, np.zeros(7)) == pytest.approx(2.0)

    def test_energy_positive_definite_for_positive_K(self):
        p = make_params()
        sys = assemble(uniform_mesh(9), p)
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.standard_normal(9)
            v = rng.standard_normal(9)
            E = energy(sys, p, c, v)
            assert E >= 0.0
            if np.any(c != 0.0) or np.any(v != 0.0):
                assert E > 0.0

    def test_psi_bounded_by_energy_norms(self):
        # |psi| <= 1/2 ||v||^2 + (1/C0)(1 + lam + lam0 + lam1) ||u||_a^2,
        # the chain behind the Lyapunov upper sandwich bound
        p = make_params(h0=0.8, h1=0.3, lam0=1.2, lam1=0.9, lam=0.7)
        sys = assemble(uniform_mesh(9), p)
        C0 = min(1.0, p.h0)
        factor = (1.0 + p.lam + p.lam0 + p.lam1) / C0
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = 5.0 * rng.standard_normal(9)
            v = 5.0 * rng.standard_normal(9)
            kinetic = float(v @ sys.M.toarray() @ v)
            bound = 0.5 * kinetic + factor * float(c @ sys.A.toarray() @ c)
            assert abs(psi(sys, p, c, v)) <= bound + 1e-12

    def test_lyapunov_sandwich_per_state(self):
        p = make_params(h0=1.0, h1=0.5, ht0=0.01, ht1=0.01, lt0=0.1, lt1=0.1)
        dc = derive_constants(p)
        sys = assemble(uniform_mesh(9), p)
        rng = np.random.default_rng(11)
        for _ in range(300):
            c = 3.0 * rng.standard_normal(9)
            v = 3.0 * rng.standard_normal(9)
            E = energy(sys, p, c, v)
            G = lyapunov(sys, p, dc, c, v)
            tol = 1e-10 * max(E, 1.0)
            assert dc.beta1 * E - tol <= G <= dc.beta2 * E + tol

    def test_lyapunov_degenerates_to_energy_at_zero_delta(self):
        p = make_params()
        dc = dataclasses.replace(derive_constants(p), delta=0.0)
        sys = assemble(uniform_mesh(5), p)
        c = np.linspace(0.0, 1.0, 5)
        v = np.linspace(1.0, -1.0, 5)
        assert lyapunov(sys, p, dc, c, v) == energy(sys, p, c, v)

    def test_dimension_mismatch(self):
        p = make_params()
        sys = assemble(uniform_mesh(5), p)
        with pytest.raises(DimensionError):
            energy(sys, p, np.zeros(4), np.zeros(4))


class TestSigma:
    def test_zero_forcing(self):
        sys = assemble(uniform_mesh(5), make_params())
        assert sigma_forcing(Forcing(), sys, 1.0) == 0.0

    def test_boundary_exponential(self):
        sys = assemble(uniform_mesh(5), make_params())
        forcing = Forcing(g0=lambda t: math.exp(-t))
        for t in (0.0, 0.5, 2.0):
            assert sigma_forcing(forcing, sys, t) == pytest.approx(math.exp(-2.0 * t))

    def test_unit_interior_load(self):
        sys = assemble(uniform_mesh(5), make_params())
        forcing = Forcing(f=lambda x, t: np.ones_like(x))
        assert sigma_forcing(forcing, sys, 0.0) == pytest.approx(1.0)

    def test_array_equals_per_time_values(self, batch_forcing):
        sys = assemble(uniform_mesh(65), make_params())
        times = 0.0123 * np.arange(400)
        assert len(time_blocks(sys, len(times))) > 1
        sigma = sigma_forcing(batch_forcing, sys, times)
        assert sigma.shape == times.shape
        np.testing.assert_array_equal(sigma, [sigma_forcing(batch_forcing, sys, t) for t in times])
        assert isinstance(sigma_forcing(batch_forcing, sys, 0.5), float)

    def test_boundary_values_are_squared_as_python_floats(self):
        # float ** 2 and a numpy square differ in the last bit at a few of
        # these times; sigma keeps the scalar squares it always had
        sys = assemble(uniform_mesh(5), make_params())
        times = 1e-3 * np.arange(10001)
        sigma = sigma_forcing(Forcing(g0=lambda t: math.exp(-t)), sys, times)
        np.testing.assert_array_equal(sigma, [math.exp(-t) ** 2 for t in times])

    def test_boundary_overflow_raises(self):
        # g0 stays finite up to t = 2, its square does not
        sys = assemble(uniform_mesh(5), make_params())
        forcing = Forcing(g0=lambda t: math.exp(200.0 * t))
        assert np.all(np.isfinite(sigma_forcing(forcing, sys, np.array([0.0, 1.0]))))
        with pytest.raises(OverflowError):
            sigma_forcing(forcing, sys, np.array([0.0, 2.0]))


class TestRecordTrajectory:
    def test_zero_trajectory_gives_zero_records(self):
        p = make_params()
        sys = assemble(uniform_mesh(5), p)
        traj = integrate(sys, Forcing(), np.zeros(5), np.zeros(5), T=0.5, dt=0.1)
        records = record_trajectory(traj, sys, p, derive_constants(p))
        for name in ("E", "psi", "Gamma", "sigma", "X"):
            np.testing.assert_array_equal(getattr(records, name), 0.0)

    def test_x_identity_and_lower_bound(self, ref_system, ref_run, ref_dc, ref_params):
        traj, records = ref_run
        # spot-check the X assembly at a few samples: the state norms plus the
        # trapezoid integral of u'(0)^2 + u'(1)^2, summed here sample by sample
        v_end_sq = traj.velocities[:, 0] ** 2 + traj.velocities[:, -1] ** 2
        read_back = boundary_integral(ref_system, traj, records)
        for n in (0, 1000, 5000):
            v = traj.velocities[n]
            c = traj.coeffs[n]
            integral = sum(0.5 * 1e-3 * (v_end_sq[k] + v_end_sq[k + 1]) for k in range(n))
            expected = float(v @ ref_system.M.toarray() @ v) + norm_1_sq(ref_system, c) + integral
            assert records.X[n] == pytest.approx(expected, rel=1e-12)
            assert read_back[n] == pytest.approx(integral, rel=1e-12, abs=1e-15)
        # X controls the energy once the K-term is routed through the
        # sup-norm embedding: E <= max(1/2, C1/2 + K) * X
        p = ref_params
        factor = min(2.0, 2.0 / (ref_dc.C1 + 2.0 * p.K))
        assert np.all(records.X >= factor * records.E - 1e-10 * np.maximum(records.E, 1.0))

    def test_accumulator_component_is_monotone(self, ref_system, ref_run):
        traj, records = ref_run
        acc = boundary_integral(ref_system, traj, records)
        assert np.all(np.diff(acc) >= 0.0)

    def test_columns_match_scalar_functionals(self, ref_system, ref_run, ref_dc, ref_params):
        traj, records = ref_run
        assert isinstance(records, EnergyRecords)
        assert len(records) == traj.n_samples
        np.testing.assert_array_equal(records.t, traj.times)
        # every row is the scalar functional of its state, bit for bit
        for n, (c, v) in enumerate(zip(traj.coeffs, traj.velocities)):
            assert records.E[n] == energy(ref_system, ref_params, c, v)
            assert records.psi[n] == psi(ref_system, ref_params, c, v)
            assert records.Gamma[n] == lyapunov(ref_system, ref_params, ref_dc, c, v)
        # the energy written out with dense matrices, independent of the package
        M, A = ref_system.M.toarray(), ref_system.A.toarray()
        for n in (0, 1, 2500, 5000, 10_000):
            c, v = traj.coeffs[n], traj.velocities[n]
            E = 0.5 * v @ M @ v + 0.5 * c @ A @ c + 0.5 * ref_params.K * (c @ M @ c)
            assert records.E[n] == pytest.approx(E, rel=1e-13)

    def test_energy_csv_round_trip_is_bit_exact(self, ref_run, tmp_path):
        traj, records = ref_run
        path = tmp_path / "energy.csv"
        write_energy_csv(path, records, traj.traces)
        back = read_energy_csv(path)
        for name in ("t", "E", "psi", "Gamma", "sigma", "X"):
            np.testing.assert_array_equal(getattr(back, name), getattr(records, name))
        with open(path, "rb") as fh:
            assert fh.readline() == b"t,E,psi,Gamma,sigma,X,u0_trace,u1_trace\r\n"


class TestSandwichCheck:
    def test_zero_records(self, ref_dc):
        records = flat_records(5)
        assert check_sandwich(records, ref_dc).violations == 0

    def test_reference_run_clean(self, ref_run, ref_dc):
        _, records = ref_run
        report = check_sandwich(records, ref_dc)
        assert report.violations == 0
        assert report.worst_ratio <= 0.0

    def test_reports_rather_than_raises_for_invalid_delta(self, ref_run, ref_dc, ref_params):
        # delta = C0 is outside the sandwich lemma's range; the check must
        # still run and report
        _, records = ref_run
        bad = dataclasses.replace(
            ref_dc, delta=ref_dc.C0,
            beta1=1.0 - 2.0 * ref_dc.C0 / ref_dc.C0,
            beta2=1.0 + 2.0 * (1 + ref_params.lam + ref_params.lam0 + ref_params.lam1),
        )
        report = check_sandwich(records, bad)
        assert report.violations >= 0

    def test_counts_synthetic_violations(self, ref_dc):
        records = flat_records(7, E=np.ones(7), Gamma=np.full(7, 10.0))
        assert check_sandwich(records, ref_dc).violations == 7

    def test_matches_per_sample_reference(self, ref_run, ref_dc):
        _, records = ref_run
        factors = np.random.default_rng(7).uniform(0.0, 6.0, len(records))
        scaled = EnergyRecords(records.t, records.E, records.psi, factors * records.Gamma,
                               records.sigma, records.X)
        violations, worst = 0, -math.inf
        for E, Gamma in zip(scaled.E.tolist(), scaled.Gamma.tolist()):
            scale = max(E, 1.0)
            gap = max(ref_dc.beta1 * E - Gamma, Gamma - ref_dc.beta2 * E)
            worst = max(worst, gap / scale)
            violations += gap > 1e-10 * scale
        report = check_sandwich(scaled, ref_dc)
        assert 0 < violations < len(records)
        assert (report.violations, report.worst_ratio) == (violations, worst)

    def test_all_nan_records_are_violations(self, ref_dc):
        nan = np.full(6, math.nan)
        records = flat_records(6, E=nan, psi=nan, Gamma=nan, X=nan)
        assert check_sandwich(records, ref_dc).violations == 6

    @pytest.mark.parametrize("column", ["E", "Gamma"])
    def test_one_nan_among_finite_records(self, ref_dc, column):
        assert check_sandwich(with_nan(9, column, 4), ref_dc).violations == 1


class TestDifferentialCheck:
    def test_zero_records(self, ref_dc):
        records = flat_records(5)
        assert check_differential_inequality(records, ref_dc).violations == 0

    def test_all_nan_records_are_violations(self, ref_dc):
        nan = np.full(6, math.nan)
        records = flat_records(6, E=nan, psi=nan, Gamma=nan, X=nan)
        report = check_differential_inequality(records, ref_dc)
        assert report.violations == 4

    def test_one_nan_among_finite_records(self, ref_dc):
        # Gamma[4] enters the centered margins at samples 3, 4 and 5
        report = check_differential_inequality(with_nan(9, "Gamma", 4), ref_dc)
        assert report.violations == 3
        # a NaN forcing magnitude poisons only its own sample
        report = check_differential_inequality(with_nan(9, "sigma", 4), ref_dc)
        assert report.violations == 1

    def test_tolerance_is_a_python_float(self, ref_dc):
        report = check_differential_inequality(flat_records(5), ref_dc)
        assert type(report.tolerance) is float
        assert repr(report) == ("DifferentialReport(violations=0, worst_margin=0.0, "
                                "tolerance=1e-08, c_dt=0.0)")

    def test_too_few_samples(self, ref_dc):
        records = flat_records(1, E=np.ones(1), Gamma=np.ones(1))
        with pytest.raises(TooFewSamplesError):
            check_differential_inequality(records, ref_dc)

    def test_nonuniform_sampling_rejected(self, ref_dc):
        records = flat_records(4, t=np.array([0.0, 0.1, 0.15, 0.4]), E=np.ones(4),
                               Gamma=np.ones(4))
        with pytest.raises(ValueError):
            check_differential_inequality(records, ref_dc)

    def test_reference_run_clean_with_richardson(self, ref_system, ref_run, ref_dc, ref_params):
        traj, records = ref_run
        assert ref_dc.htilde_budget >= 0
        refined = integrate(ref_system, Forcing(), traj.coeffs[0], traj.velocities[0],
                            T=10.0, dt=5e-4)
        refined_records = record_trajectory(refined, ref_system, ref_params, ref_dc)
        report = check_differential_inequality(records, ref_dc, refined_records)
        assert report.violations == 0
        assert report.worst_margin <= report.tolerance


class TestDecayFit:
    @staticmethod
    def synthetic(rate, amplitude, T=10.0, dt=0.01):
        ts = np.arange(0.0, T + dt / 2, dt)
        return flat_records(len(ts), t=ts, E=amplitude * np.exp(-rate * ts))

    def test_exact_exponential(self):
        report = fit_decay_rate(self.synthetic(2.0, 1.0))
        assert report.fitted_rate == pytest.approx(2.0, abs=1e-9)
        assert report.residual < 1e-9

    def test_amplitude_recovered(self):
        report = fit_decay_rate(self.synthetic(0.3, 5.0))
        assert report.fitted_rate == pytest.approx(0.3, abs=1e-9)
        assert report.fitted_amplitude == pytest.approx(5.0, rel=1e-6)

    def test_window_defaults_to_tail_half(self):
        report = fit_decay_rate(self.synthetic(1.0, 1.0, T=8.0))
        assert report.fit_window == (4.0, 8.0)

    def test_underflowed_energy_raises(self):
        records = self.synthetic(40.0, 1.0, T=10.0, dt=0.1)  # E(5) ~ 1e-87
        with pytest.raises(InsufficientDataError):
            fit_decay_rate(records)

    def test_non_finite_energy_raises(self):
        # NaN compares False against the rounding floor; dropping it would
        # fit the finite half exactly and report a clean rate of 2.
        records = self.synthetic(2.0, 1.0)
        E = records.E.copy()
        E[1::2] = math.nan
        records = dataclasses.replace(records, E=E)
        with pytest.raises(InsufficientDataError, match="250 non-finite"):
            fit_decay_rate(records)

    def test_reference_rate_beats_theoretical_fraction(self, ref_run, ref_dc):
        _, records = ref_run
        report = fit_decay_rate(records, theoretical_delta=ref_dc.delta)
        assert report.fitted_rate >= 0.95 * ref_dc.delta
