"""The four workloads: inputs drawn from the seed, the timed operation, its
traced twin, and the correctness gate every operation must pass.

Each seed draws only free data (amplitudes, rates, the manufactured decay
rate), so every seed does the same amount of work.  The traced twin makes the
public calls the untimed operation makes internally, each inside a span named
``<layer>.<call>``; the layers are the package modules scenario, params,
galerkin, integrate and diagnostics.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import twopointwave as tw
from twopointwave.scenario import DECAY_CHECKS, ORACLE_TOL, RATE_FRACTION

from reference import boundary_traces, relative_deviation
from tracing import Tracer

# The shipped reference scenario (configs/reference.cfg), restated so that
# the workloads stay fixed if the shipped configs change.
PARAMS = dict(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, lt0=0.1, lt1=0.1,
              ht0=0.01, ht1=0.01, K=1.0, lam=1.0)
REFERENCE = dict(PARAMS, n_nodes=65, T=10.0, dt=0.001, initial_data="cosine",
                 initial_amplitude=1.0, forcing="none",
                 checks="sandwich, differential, decay_fit", seed=1234)

# Correctness gate.  The tolerances on result_err sit about ten times above
# the values measured at the commit that introduced the benchmark, so they
# catch a wrong answer, not a change in the last digits.
TRACE_TOL = 1e-3            # trace deviation of run-type workloads (9.6e-5, 8.7e-5)
ORACLE_TRACE_TOL = 1e-5     # oracle_tiny (7.8e-7)
CONVERGE_REL_L2_TOL = 1e-4  # converge_ladder finest relative L2 error (3.1e-6)
MIN_L2_ORDER = 1.8
MIN_H1_ORDER = 0.9
CONVERGE_LEVELS = 7

_CHECK_LINE = re.compile(r"^  (\w+): (PASS|FAIL) ", re.MULTILINE)


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


@dataclass
class Outcome:
    """What one operation produced: exit code, verdicts per scenario run and
    the directories holding each run's ``energy.csv``, or convergence rows."""

    code: int
    verdicts: list[dict[str, bool]]
    outdirs: list[Path] = field(default_factory=list)
    rows: list[tuple[int, float, float, float]] = field(default_factory=list)


@dataclass
class Probe:
    """One integrate call of a traced operation, replayed afterwards to time
    the factorisation and the per-step load vectors it contains."""

    system: object
    forcing: tw.Forcing
    dt: float
    steps: int


def _traced_integrate(tr: Tracer, probes: list[Probe], system, forcing, c0, v0, T, dt,
                      alias: str | None = None):
    """integrate() in a span, counting steps and seconds per mesh size."""
    with tr.span("integrate.integrate", alias) as span:
        traj = tw.integrate(system, forcing, c0, v0, T, dt)
    steps = traj.n_samples - 1
    n = system.m
    tr.add("integrate.steps", steps)
    tr.add(f"integrate.steps.n{n}", steps)
    tr.add(f"integrate.integrate.n{n}_s", span.duration)
    tr.peak("integrate.trajectory_bytes", array_bytes(traj))
    probes.append(Probe(system, forcing, dt, steps))
    return traj


def run_probes(tr: Tracer, probes: list[Probe]) -> None:
    """Time MidpointStepper construction and load_vector at every midpoint
    time of each recorded integrate call.  Both happen inside integrate(), so
    these spans sit under their own root and do not count toward the
    operation's wall time."""
    with tr.span("probe"):
        for p in probes:
            with tr.span("integrate.factor"):
                tw.MidpointStepper(p.system, p.dt)
            midpoints = p.dt * np.arange(p.steps) + 0.5 * p.dt
            with tr.span("galerkin.load_vector"):
                for t in midpoints:
                    tw.load_vector(p.system, p.forcing, t)
            tr.add("galerkin.load_vector_calls", p.steps)


def _forcing_of(scn: tw.Scenario) -> tw.Forcing:
    if scn.forcing == "none":
        return tw.Forcing()
    if scn.forcing == "boundary_exp":
        amp, rate = scn.forcing_amplitude, scn.forcing_rate
        return tw.Forcing(g0=lambda t: amp * math.exp(-rate * t))
    raise ValueError(f"no traced pipeline for forcing {scn.forcing!r}")


def _report_verdicts(outdir: Path) -> dict[str, bool]:
    text = (outdir / "report.txt").read_text()
    return {name: status == "PASS" for name, status in _CHECK_LINE.findall(text)}


def traced_scenario(tr: Tracer, probes: list[Probe], scn: tw.Scenario, outdir: Path):
    """The public calls run_scenario makes after parsing, each in a span.
    Returns the exit code and the check verdicts."""
    with tr.span("params.derive"):
        verdict = tw.validate_params(scn.params, require_decay_hypotheses=True)
        dc = None
        if verdict.accepted:
            dc = tw.derive_constants(scn.params, eps1=scn.eps1, eps2=scn.eps2, delta=scn.delta)
    if DECAY_CHECKS.intersection(scn.checks) and dc is None:
        return 3, {}
    with tr.span("galerkin.assemble"):
        mesh = tw.uniform_mesh(scn.n_nodes)
        system = tw.assemble(mesh, scn.params)
    tr.peak("galerkin.system_bytes", array_bytes(system))
    forcing = _forcing_of(scn)
    amp = scn.initial_amplitude
    with tr.span("integrate.project"):
        c0, v0 = tw.project_initial_data(mesh, lambda x: amp * np.cos(np.pi * x), np.zeros_like)
    traj = _traced_integrate(tr, probes, system, forcing, c0, v0, scn.T, scn.dt)
    with tr.span("diagnostics.record"):
        records = tw.record_trajectory(traj, system, scn.params, dc, forcing)
    tr.add("diagnostics.record_rows", len(records))

    verdicts = {}
    for name in scn.checks:
        if name == "sandwich":
            with tr.span("diagnostics.sandwich"):
                verdicts[name] = tw.check_sandwich(records, dc).violations == 0
        elif name == "differential":
            with tr.span("diagnostics.differential"):
                refined = _traced_integrate(
                    tr, probes, system, forcing, traj.coeffs[0], traj.velocities[0],
                    scn.T, scn.dt / 2.0, alias="diagnostics.differential.rerun_integrate")
                with tr.span("diagnostics.record",
                             alias="diagnostics.differential.rerun_record"):
                    refined_records = tw.record_trajectory(refined, system, scn.params, dc, forcing)
                tr.add("diagnostics.record_rows", len(refined_records))
                rep = tw.check_differential_inequality(records, dc, refined_records)
            verdicts[name] = rep.violations == 0
        elif name == "decay_fit":
            with tr.span("diagnostics.decay_fit"):
                rate = tw.fit_decay_rate(records, theoretical_delta=dc.delta).fitted_rate
            if scn.forcing == "none":
                verdicts[name] = rate >= RATE_FRACTION * dc.delta
            else:
                verdicts[name] = rate > 0
        elif name == "oracle":
            with tr.span("integrate.oracle"):
                oracle = tw.oracle_integrate(system, forcing, traj.coeffs[0],
                                             traj.velocities[0], scn.T, scn.dt / 100.0)
            tr.add("integrate.oracle_steps", oracle.n_samples - 1)
            stride = round((traj.times[1] - traj.times[0]) / (oracle.times[1] - oracle.times[0]))
            ref_c = oracle.coeffs[::stride]
            rel = float(np.max(np.abs(traj.coeffs - ref_c))) / max(float(np.max(np.abs(ref_c))), 1e-300)
            verdicts[name] = rel <= ORACLE_TOL
        else:
            raise ValueError(f"no traced pipeline for check {name!r}")

    with tr.span("scenario.csv_write"):
        tw.write_energy_csv(outdir / "energy.csv", records, traj.traces)
    tr.add("scenario.csv_bytes", (outdir / "energy.csv").stat().st_size)
    return (0 if all(verdicts.values()) else 1), verdicts


class ScenarioWorkload:
    """Workloads made of scenario runs whose traces are checked against
    boundary_traces() from the reference module.

    ``streaming`` marks workloads whose arrays outgrow the caches; their
    calibration kernel gets a cache-streaming part (see calibrate.py).
    """

    name = ""
    trace_tol = TRACE_TOL
    streaming = False

    def __init__(self, points: list[dict]):
        self.points = points
        self.references = [
            boundary_traces(PARAMS, p["n_nodes"], p["initial_amplitude"], p["T"], p["dt"],
                            p.get("forcing_amplitude", 0.0), p.get("forcing_rate", 1.0))
            for p in points
        ]

    def check(self, outcome: Outcome) -> tuple[list[str], float]:
        """Failures of the correctness gate and the worst trace deviation."""
        failures = []
        if outcome.code != 0:
            failures.append(f"exit code {outcome.code}")
        worst = 0.0
        for point, verdicts, outdir, ref in zip(self.points, outcome.verdicts,
                                                outcome.outdirs, self.references):
            wanted = [c.strip() for c in point["checks"].split(",")]
            if sorted(verdicts) != sorted(wanted) or not all(verdicts.values()):
                failures.append(f"{outdir.name}: verdicts {verdicts}, wanted PASS for {wanted}")
            csv_path = outdir / "energy.csv"
            header = csv_path.read_text().split("\n", 1)[0].split(",")
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[0] != ref.shape[0] or not np.all(np.isfinite(data)):
                failures.append(f"{outdir.name}: energy.csv has {data.shape[0]} rows "
                                f"(want {ref.shape[0]}) or non-finite values")
                worst = math.inf
                continue
            traces = data[:, [header.index("u0_trace"), header.index("u1_trace")]]
            worst = max(worst, relative_deviation(traces, ref))
        if len(outcome.verdicts) != len(self.points):
            failures.append(f"{len(outcome.verdicts)} scenario runs, wanted {len(self.points)}")
        if not worst <= self.trace_tol:
            failures.append(f"trace deviation {worst:.3e} above {self.trace_tol:g}")
        return failures, worst


class SingleRun(ScenarioWorkload):
    """One run_scenario call on a config written from ``values``."""

    def __init__(self, values: dict, workdir: Path):
        super().__init__([values])
        self.config = workdir / f"{self.name}.cfg"
        self.config.write_text(config_text(values))

    def op(self, outdir: Path) -> Outcome:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tw.run_scenario(self.config, outdir=outdir)
        return Outcome(code, [_report_verdicts(outdir)], [outdir])

    def traced_op(self, tr: Tracer, probes: list[Probe], outdir: Path) -> Outcome:
        with tr.span("scenario.parse"):
            scn = tw.parse_scenario(self.config)
        code, verdicts = traced_scenario(tr, probes, scn, outdir)
        return Outcome(code, [verdicts], [outdir])


class ReferenceRun(SingleRun):
    name = "reference_run"
    streaming = True  # 5 MB state arrays per trajectory

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        super().__init__(dict(REFERENCE, initial_amplitude=rng.uniform(0.5, 2.0)), workdir)


class OracleTiny(SingleRun):
    """configs/oracle_tiny.cfg with the amplitude drawn; the oracle's
    relative error does not depend on it."""

    name = "oracle_tiny"
    trace_tol = ORACLE_TRACE_TOL

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        values = dict(PARAMS, n_nodes=2, T=1.0, dt=0.001, initial_data="cosine",
                      initial_amplitude=rng.uniform(0.5, 2.0), checks="oracle")
        super().__init__(values, workdir)


class SweepForced(ScenarioWorkload):
    """sweep_scenario over forcing_amplitude on the reference scenario with
    boundary_exp forcing, n=33 and T=5.

    The seed draws a scale s in [0.5, 2] and forcing_rate in [0.25, 1]; the
    initial amplitude is s and the swept amplitudes are s/2, s and 2s, all in
    [0.25, 4].  Scaling initial data and forcing together leaves the relative
    trace error unchanged, so result_err does not move with the seed.
    """

    name = "sweep_forced"
    param = "forcing_amplitude"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        scale, rate = rng.uniform(0.5, 2.0), rng.uniform(0.25, 1.0)
        self.base = dict(REFERENCE, n_nodes=33, T=5.0, initial_amplitude=scale,
                         forcing="boundary_exp", forcing_amplitude=1.0, forcing_rate=rate)
        self.values = [0.5 * scale, scale, 2.0 * scale]
        super().__init__([dict(self.base, forcing_amplitude=v) for v in self.values])
        self.config = workdir / f"{self.name}.cfg"
        self.config.write_text(config_text(self.base))

    def _subdir(self, outdir: Path, value: float) -> Path:
        return outdir / f"{self.param}_{value:g}"

    def op(self, outdir: Path) -> Outcome:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tw.sweep_scenario(self.config, self.param, self.values, outdir=outdir)
        dirs = [self._subdir(outdir, v) for v in self.values]
        return Outcome(code, [_report_verdicts(d) for d in dirs], dirs)

    def traced_op(self, tr: Tracer, probes: list[Probe], outdir: Path) -> Outcome:
        with tr.span("scenario.parse"):
            tw.parse_scenario(self.config)
        codes, verdicts, dirs = [], [], []
        for point in self.points:
            subdir = self._subdir(outdir, point[self.param])
            subdir.mkdir(parents=True)
            with tr.span("scenario.sweep_roundtrip"):
                (subdir / "scenario.cfg").write_text(config_text(point))
                scn = tw.parse_scenario(subdir / "scenario.cfg")
            code, point_verdicts = traced_scenario(tr, probes, scn, subdir)
            codes.append(code)
            verdicts.append(point_verdicts)
            dirs.append(subdir)
        return Outcome(max(codes), verdicts, dirs)


class ConvergeLadder:
    """convergence_study with 7 levels (n = 9..513, dt = 0.02..3.1e-4, T = 1)
    on configs/manufactured_cosine.cfg with alpha drawn.

    alpha is drawn in [0.9, 1.1]: the finest-level relative L2 error falls
    from 3.2e-6 to 2.1e-6 as alpha goes from 0.5 to 2, and over that wider
    range its run-to-run spread would exceed result_err's bound.
    """

    name = "converge_ladder"
    streaming = True  # 2 MB per dense matrix at n=513

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.alpha = rng.uniform(0.9, 1.1)
        values = dict(PARAMS, n_nodes=9, T=1.0, dt=0.02, forcing="manufactured",
                      manufactured="decaying_cosine", alpha=self.alpha)
        config = workdir / f"{self.name}.cfg"
        config.write_text(config_text(values))
        self.scenario = tw.parse_scenario(config)

    def op(self, outdir: Path) -> Outcome:
        rows = [(r.n_nodes, r.dt, r.l2_error, r.h1_error)
                for r in tw.convergence_study(self.scenario, CONVERGE_LEVELS)]
        return Outcome(0, [self._verdicts(rows)], rows=rows)

    def traced_op(self, tr: Tracer, probes: list[Probe], outdir: Path) -> Outcome:
        """The public calls convergence_study makes, each in a span."""
        scn = self.scenario
        ms = tw.manufacture(scn.manufactured, scn.params, scn.alpha)
        rows = []
        for lev in range(CONVERGE_LEVELS):
            n_nodes = (scn.n_nodes - 1) * 2**lev + 1
            dt = scn.dt / 2**lev
            with tr.span("galerkin.assemble"):
                mesh = tw.uniform_mesh(n_nodes)
                system = tw.assemble(mesh, scn.params)
            tr.peak("galerkin.system_bytes", array_bytes(system))
            with tr.span("integrate.project"):
                c0, v0 = tw.project_initial_data(mesh, ms.u0, ms.u1)
            traj = _traced_integrate(tr, probes, system, ms.forcing(), c0, v0, scn.T, dt)
            with tr.span("galerkin.error_norms"):
                l2, h1 = tw.error_norms(system, traj.coeffs[-1],
                                        lambda x: ms.u(x, scn.T), lambda x: ms.ux(x, scn.T))
            rows.append((n_nodes, dt, l2, h1))
        return Outcome(0, [self._verdicts(rows)], rows=rows)

    @staticmethod
    def _orders(rows) -> tuple[float, float]:
        """Observed L2 and H1 orders at the finest level."""
        l2_prev, h1_prev = rows[-2][2:]
        l2, h1 = rows[-1][2:]
        return math.log2(l2_prev / l2), math.log2(h1_prev / h1)

    def _verdicts(self, rows) -> dict[str, bool]:
        l2_order, h1_order = self._orders(rows)
        return {"l2_order": l2_order >= MIN_L2_ORDER, "h1_order": h1_order >= MIN_H1_ORDER}

    def check(self, outcome: Outcome) -> tuple[list[str], float]:
        """Failures of the correctness gate and the finest-level L2 error
        relative to the exact solution's L2 norm, exp(-alpha*T)/sqrt(2)."""
        failures = []
        rows = outcome.rows
        values = np.array([r[2:] for r in rows])
        if len(rows) != CONVERGE_LEVELS or not np.all(np.isfinite(values)) or np.any(values <= 0):
            return [f"convergence rows {rows}"], math.inf
        if not all(outcome.verdicts[0].values()):
            failures.append(f"orders {self._orders(rows)} below "
                            f"L2 {MIN_L2_ORDER} / H1 {MIN_H1_ORDER}")
        rel_l2 = rows[-1][2] / (math.exp(-self.alpha * self.scenario.T) / math.sqrt(2.0))
        if not rel_l2 <= CONVERGE_REL_L2_TOL:
            failures.append(f"relative L2 error {rel_l2:.3e} above {CONVERGE_REL_L2_TOL:g}")
        return failures, rel_l2


WORKLOADS = {w.name: w for w in (ReferenceRun, ConvergeLadder, OracleTiny, SweepForced)}
