"""Scenario configs, batch execution and CSV/report emission.

Config grammar: a flat key-value text file, one ``key = value`` assignment
per line, ``#`` starts a comment, numbers are finite decimal reals.  Keys:

    h0 h1 lam0 lam1 ht0 ht1 lt0 lt1 K lam    problem constants (required)
    n_nodes T dt                             discretization (required)
    initial_data       zero | cosine | affine            (default cosine)
    initial_amplitude  scale of the initial displacement (default 1.0)
    forcing            none | boundary_exp | manufactured (default none)
    forcing_amplitude  boundary_exp: g0(t) = amplitude*exp(-rate*t)
    forcing_rate       (default 1.0 for both)
    manufactured       registry form name: its exact solution gives the
                       forcing and the initial data; present exactly when
                       forcing = manufactured
    alpha              decay rate of the exponential registry forms
    checks             comma list, each at most once, of sandwich,
                       differential, decay_fit, ladder, oracle (differential
                       and ladder need T/dt >= 2)        (default empty)
    seed               integer, parsed and written back by sweep but read
                       by no run                         (default 0)
    write_solution     true | false: emit nodal snapshots (default false)
    eps1 eps2 delta    optional Lyapunov tuning overrides

Artifacts per run: ``energy.csv`` (t, E, psi, Gamma, sigma, X, u0_trace,
u1_trace at full round-trip precision), ``report.txt``, and optionally
``solution.csv``.  Exit codes: 0 all requested checks pass, 1 a check
failed, 2 config error or an unwritable output path, 3 decay checks
requested on inadmissible params, 4 solver failure.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .compat import ladder_check, smooth_data_from_manufactured
from .diagnostics import (
    COLUMNS,
    DecayReport,
    EnergyRecords,
    check_differential_inequality,
    check_sandwich,
    fit_decay_rate,
    record_trajectory,
)
from .errors import (ConfigError, DomainError, InfeasibleError, InsufficientDataError,
                     SingularMatrixError)
from .galerkin import MAX_COLUMNS, Forcing, assemble, error_norms, uniform_mesh
from .integrate import (ORACLE_MAX_DIM, _resolve_steps, integrate, integrate_columns,
                        oracle_integrate, project_initial_data)
from .manufactured import FORM_NAMES, manufacture
from .params import ProblemParams, derive_constants, validate_params

__all__ = [
    "Scenario",
    "parse_scenario",
    "run_scenario",
    "execute",
    "convergence_study",
    "converge_scenario",
    "sweep_scenario",
    "write_energy_csv",
    "read_energy_csv",
]

PARAM_KEYS = tuple(f.name for f in fields(ProblemParams))
CHECK_NAMES = ("sandwich", "differential", "decay_fit", "ladder", "oracle")
DECAY_CHECKS = frozenset({"sandwich", "differential", "decay_fit"})
# Real-valued keys that must be finite; T and dt have their own rules.
FINITE_KEYS = PARAM_KEYS + ("initial_amplitude", "forcing_amplitude", "forcing_rate", "alpha")
SWEEP_KEYS = FINITE_KEYS + ("n_nodes", "T", "dt")
# Checks taking centered time differences, which need three samples.
STENCIL_CHECKS = frozenset({"differential", "ladder"})
INITIAL_DATA_NAMES = ("zero", "cosine", "affine")
FORCING_NAMES = ("none", "boundary_exp", "manufactured")
# Keys whose value must be one of a fixed set of names.
CHOICES = {"initial_data": INITIAL_DATA_NAMES, "forcing": FORCING_NAMES,
           "manufactured": FORM_NAMES}

# Check thresholds used by run_scenario's pass/fail verdicts.
LADDER_TOL = 1e-2
ORACLE_TOL = 1e-6
RATE_FRACTION = 0.95

OUTDIR_ENV = "TWOPOINTWAVE_OUTDIR"

@dataclass(frozen=True)
class Scenario:
    params: ProblemParams
    n_nodes: int
    T: float
    dt: float
    initial_data: str = "cosine"
    initial_amplitude: float = 1.0
    forcing: str = "none"
    forcing_amplitude: float = 1.0
    forcing_rate: float = 1.0
    manufactured: str | None = None
    alpha: float = 1.0
    checks: tuple[str, ...] = ()
    seed: int = 0
    write_solution: bool = False
    eps1: float | None = None
    eps2: float | None = None
    delta: float | None = None


# The config grammar: one key per field of ProblemParams and Scenario, required
# when the field has no default, converted by the field's annotation.
_FIELDS = fields(ProblemParams) + tuple(f for f in fields(Scenario) if f.name != "params")
_TYPES = {**get_type_hints(ProblemParams), **get_type_hints(Scenario)}


def _convert(path, key: str, value: str):
    """The value of the assignment ``key = value``, typed as its field.  The
    names it holds are checked by ``_validate``."""
    if key == "checks":
        return tuple(c.strip() for c in value.split(",") if c.strip())
    if key in CHOICES:
        return value
    if _TYPES[key] is bool:
        if value.lower() in ("true", "yes", "1"):
            return True
        if value.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"{path}: {key}: expected true/false, got {value!r}")
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: {key}: not a number: {value!r}") from exc
    return _typed_number(path, key, number)


def _typed_number(where, key: str, number: float):
    """``number`` as the value of the numeric field ``key``: an int for an
    integer field, which rejects a fractional or non-finite value and one
    above the largest array index."""
    if _TYPES[key] is not int:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where}: {key}: expected an integer, got {number}")
    if number > np.iinfo(np.intp).max:
        raise ConfigError(f"{where}: {key}: expected at most {np.iinfo(np.intp).max}, "
                          f"got {number:g}")
    return int(number)


def parse_scenario(path: str | os.PathLike) -> Scenario:
    """Parse a config file; raises ConfigError on any malformed content."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    values = {}
    for f in _FIELDS:
        if f.name in raw:
            values[f.name] = _convert(path, f.name, raw.pop(f.name))
        elif f.default is MISSING:
            raise ConfigError(f"{path}: missing required key {f.name!r}")
    if raw:
        raise ConfigError(f"{path}: unknown keys: {sorted(raw)}")
    params = ProblemParams(**{k: values.pop(k) for k in PARAM_KEYS})
    scenario = Scenario(params, **values)
    _validate(scenario, path)
    return scenario


def _validate(scn: Scenario, where) -> None:
    """The names a scenario holds and its cross-field consistency; applied to
    every parsed config, to the patched scenarios of a sweep and to the
    scenarios ``execute`` and ``convergence_study`` are given."""
    for key, names in CHOICES.items():
        value = getattr(scn, key)
        if value not in names and not (key == "manufactured" and value is None):
            noun = "manufactured form" if key == "manufactured" else key
            raise ConfigError(f"{where}: unknown {noun} {value!r}")
    for i, c in enumerate(scn.checks):
        if c not in CHECK_NAMES:
            raise ConfigError(f"{where}: unknown check {c!r}; known: {CHECK_NAMES}")
        if c in scn.checks[:i]:
            raise ConfigError(f"{where}: duplicate check {c!r}")
    if scn.T <= 0 or scn.dt <= 0 or scn.n_nodes < 2:
        raise ConfigError(f"{where}: need T > 0, dt > 0 and n_nodes >= 2")
    try:
        n_steps = _resolve_steps(scn.T, scn.dt)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    named = {**vars(scn.params), **vars(scn)}
    for key in FINITE_KEYS:
        if not math.isfinite(named[key]):
            raise ConfigError(f"{where}: {key} must be finite, got {named[key]}")
    stencil_checks = [c for c in scn.checks if c in STENCIL_CHECKS]
    if stencil_checks and n_steps < 2:
        raise ConfigError(f"{where}: the {stencil_checks[0]} check needs T/dt >= 2, "
                          f"got {n_steps}")
    if (scn.forcing == "manufactured") != (scn.manufactured is not None):
        raise ConfigError(f"{where}: a 'manufactured' key and forcing = manufactured "
                          f"go together, got forcing = {scn.forcing} and "
                          f"manufactured = {scn.manufactured}")
    if "ladder" in scn.checks and scn.manufactured is None:
        raise ConfigError(f"{where}: the ladder check needs a manufactured scenario")
    if "oracle" in scn.checks and scn.n_nodes > ORACLE_MAX_DIM:
        raise ConfigError(f"{where}: the oracle check needs n_nodes <= {ORACLE_MAX_DIM}")


def _problem(scn: Scenario, sys):
    """The problem (1.1)-(1.4) that ``scn`` poses, discretized on ``sys``, its
    assembled system: the forcing, the projected initial state (c0, v0), and
    the manufactured solution whose data these are, or None."""
    if scn.manufactured is not None:
        ms = manufacture(scn.manufactured, scn.params, scn.alpha)
        return (ms.forcing(), *project_initial_data(sys.mesh, ms.u0, ms.u1), ms)
    forcing = Forcing()
    if scn.forcing == "boundary_exp":
        amp, rate = scn.forcing_amplitude, scn.forcing_rate
        forcing = Forcing(g0=lambda t: amp * math.exp(-rate * t))
    scale = scn.initial_amplitude
    u0 = {"zero": np.zeros_like, "cosine": lambda x: scale * np.cos(np.pi * x),
          "affine": lambda x: scale * (1.0 + x)}[scn.initial_data]
    return (forcing, *project_initial_data(sys.mesh, u0, np.zeros_like), None)


def _integrated(scns: list[Scenario]) -> list[tuple]:
    """Scenarios that share the operator and the step (params, n_nodes, T and
    dt), integrated as the columns of one ``integrate_columns`` run: per
    scenario, the assembled system, the forcing, the manufactured solution or
    None (``_problem``) and the trajectory."""
    first = scns[0]
    sys = assemble(uniform_mesh(first.n_nodes), first.params)
    forcings, c0s, v0s, solutions = zip(*(_problem(scn, sys) for scn in scns))
    trajs = integrate_columns(sys, forcings, c0s, v0s, first.T, first.dt)
    return [(sys, *run) for run in zip(forcings, solutions, trajs)]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Values formatted per write in _write_csv: bounds its temporary strings and
# Python floats to about 0.3 MB whatever the size of the table, so that writing
# raises no memory high-water mark; larger blocks format no faster.
CSV_BLOCK_VALUES = 4096


def _write_csv(path, header, columns) -> None:
    """Columns as rows of %.17g (exact round trip), comma-separated, CRLF-ended.

    One %-format per block of rows writes the same bytes as ``np.savetxt``
    with that format, without its Python loop over rows.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
    rows_per_block = max(1, CSV_BLOCK_VALUES // data.shape[1])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(data), rows_per_block):
            block = data[start:start + rows_per_block]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_energy_csv(path, records: EnergyRecords, traces) -> None:
    _write_csv(path, COLUMNS + ("u0_trace", "u1_trace"),
               [getattr(records, k) for k in COLUMNS] + [traces[:, 0], traces[:, 1]])


def read_energy_csv(path) -> EnergyRecords:
    return EnergyRecords(*np.loadtxt(path, delimiter=",", skiprows=1,
                                     usecols=range(len(COLUMNS)), ndmin=2, unpack=True))


def resolve_outdir(config_path, outdir=None) -> Path:
    """``outdir``, else $TWOPOINTWAVE_OUTDIR, else ``<config stem>_out``; not made."""
    if outdir is None:
        outdir = os.environ.get(OUTDIR_ENV)
    if outdir is None:
        outdir = Path(config_path).with_suffix("").name + "_out"
    return Path(outdir)


@dataclass
class _CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


def _run_checks(scn: Scenario, sys, dc, forcing, traj, records, ms) -> tuple[list[_CheckResult], DecayReport | None]:
    results = []
    decay_report = None
    for name in scn.checks:
        if name == "sandwich":
            rep = check_sandwich(records, dc)
            results.append(_CheckResult(
                name, rep.violations == 0,
                f"violations={rep.violations} worst_ratio={rep.worst_ratio:.3e}"))
        elif name == "differential":
            # The dt/2 rerun can only widen the tolerance, so it runs only
            # when the floor alone finds a violation.
            rep = check_differential_inequality(records, dc)
            if rep.violations:
                refined = integrate(sys, forcing, traj.coeffs[0], traj.velocities[0],
                                    scn.T, scn.dt / 2.0)
                refined_records = record_trajectory(refined, sys, scn.params, dc, forcing)
                rep = check_differential_inequality(records, dc, refined_records)
            results.append(_CheckResult(
                name, rep.violations == 0,
                f"violations={rep.violations} worst_margin={rep.worst_margin:.3e} "
                f"tolerance={rep.tolerance:.3e}"))
        elif name == "decay_fit":
            try:
                decay_report = fit_decay_rate(records, theoretical_delta=dc.delta)
            except InsufficientDataError as exc:
                results.append(_CheckResult(name, False, f"unfittable: {exc}"))
                continue
            if scn.forcing == "none":
                ok = decay_report.fitted_rate >= RATE_FRACTION * dc.delta
                detail = (f"fitted_rate={decay_report.fitted_rate:.4f} "
                          f"threshold={RATE_FRACTION * dc.delta:.4f} "
                          f"residual={decay_report.residual:.3e}")
            else:
                ok = decay_report.fitted_rate > 0
                detail = (f"fitted_rate={decay_report.fitted_rate:.4f} (> 0 required) "
                          f"residual={decay_report.residual:.3e}")
            results.append(_CheckResult(name, ok, detail))
        elif name == "ladder":
            data = smooth_data_from_manufactured(ms, 1)
            rep = ladder_check(data, scn.params, sys.mesh, forcing, 1, scn.T, scn.dt)
            results.append(_CheckResult(
                name, rep.rel_discrepancy <= LADDER_TOL,
                f"rel_discrepancy={rep.rel_discrepancy:.3e} tol={LADDER_TOL:g}"))
        elif name == "oracle":
            ref_c = oracle_integrate(sys, forcing, traj.coeffs[0], traj.velocities[0],
                                     scn.T, scn.dt).coeffs
            scale = float(np.max(np.abs(ref_c)))
            rel = float(np.max(np.abs(traj.coeffs - ref_c))) / max(scale, 1e-300)
            results.append(_CheckResult(
                name, rel <= ORACLE_TOL, f"rel_error={rel:.3e} tol={ORACLE_TOL:g}"))
    return results, decay_report


def _write_report(path, scn: Scenario, dc, results, decay_report, overall) -> None:
    buf = io.StringIO()
    buf.write("two-point wave scenario report\n")
    buf.write("params: " + " ".join(
        f"{k}={getattr(scn.params, k):g}" for k in PARAM_KEYS) + "\n")
    buf.write(f"discretization: n_nodes={scn.n_nodes} T={scn.T:g} dt={scn.dt:g}\n")
    if dc is not None:
        buf.write("derived constants: " + " ".join(
            f"{f.name}={_fmt(getattr(dc, f.name))}" for f in fields(dc)) + "\n")
    else:
        buf.write("derived constants: unavailable (decay hypotheses not satisfied)\n")
    if decay_report is not None:
        buf.write(
            "decay fit: "
            f"fitted_rate={_fmt(decay_report.fitted_rate)} "
            f"fitted_amplitude={_fmt(decay_report.fitted_amplitude)} "
            f"window=[{decay_report.fit_window[0]:g}, {decay_report.fit_window[1]:g}] "
            f"residual={_fmt(decay_report.residual)}\n"
        )
    buf.write("checks:\n")
    for res in results:
        buf.write(f"  {res}\n")
    buf.write(f"overall: {'PASS' if overall else 'FAIL'}\n")
    Path(path).write_text(buf.getvalue())


class _Inadmissible(Exception):
    """Decay checks requested on params that fail the decay hypotheses."""


# Failures of a run that exit 4 with a ``solver error:`` line; those that
# exit 2 with a ``config error:`` line.
SOLVER_ERRORS = (SingularMatrixError, np.linalg.LinAlgError, ArithmeticError, MemoryError)
CONFIG_ERRORS = (ConfigError, DomainError, InfeasibleError)


def _exit_code(command):
    """Run ``command``, which returns an exit code, with inf/NaN arithmetic silent
    (the non-finite guards report it).  A config error or an OSError (an output path
    that cannot be made or written) prints ``config error: ...`` and gives 2, decay
    checks on inadmissible params print ``hypothesis violation: ...`` and give 3,
    and a solver failure prints ``solver error: ...`` and gives 4."""
    @functools.wraps(command)
    def wrapped(*args, **kwargs) -> int:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return command(*args, **kwargs)
        except CONFIG_ERRORS + (OSError,) as exc:
            print(f"config error: {exc}")
            return 2
        except _Inadmissible as exc:
            print(f"hypothesis violation: {exc}")
            return 3
        except SOLVER_ERRORS as exc:
            print(f"solver error: {exc}")
            return 4
    return wrapped


def _require_finite(what: str, *arrays) -> None:
    """Raise FloatingPointError, a solver error, on any inf or NaN."""
    bad = sum(int(np.count_nonzero(~np.isfinite(a))) for a in arrays)
    if bad:
        raise FloatingPointError(f"non-finite state: {bad} inf/NaN values in the {what}")


@_exit_code
def run_scenario(config_path, outdir=None) -> int:
    """Execute one scenario config; writes artifacts and returns the exit code."""
    scn = parse_scenario(config_path)
    dc = _constants(scn)  # exit 2 or 3 before the output directory is made
    return _execute(scn, dc, resolve_outdir(config_path, outdir))


@_exit_code
def execute(scn: Scenario, outdir) -> int:
    """Run a scenario, validated first as a parsed config is; writes artifacts
    to ``outdir``, made if it does not exist, and returns the exit code."""
    _validate(scn, "scenario")
    return _execute(scn, _constants(scn), outdir)


def _constants(scn: Scenario):
    """The derived constants of a validated ``scn``, or None when its params
    fail the decay hypotheses; raises _Inadmissible when decay checks are
    requested there, and DomainError or InfeasibleError for an eps1/eps2/delta
    override out of range.  A run calls it before it writes anything."""
    verdict = validate_params(scn.params, require_decay_hypotheses=True)
    if verdict.accepted:
        return derive_constants(scn.params, eps1=scn.eps1, eps2=scn.eps2, delta=scn.delta)
    if DECAY_CHECKS.intersection(scn.checks):
        raise _Inadmissible("decay checks requested but params fail: "
                            + "; ".join(verdict.violations))
    return None


def _execute(scn: Scenario, dc, outdir, run=None) -> int:
    """``execute`` after validation, given the derived constants ``dc`` of
    ``_constants``.  ``run`` is the scenario's entry of ``_integrated`` when
    it was integrated already; otherwise it is integrated here, alone."""
    sys, forcing, ms, traj = run or _integrated([scn])[0]
    _require_finite("trajectory", traj.coeffs, traj.velocities)
    records = record_trajectory(traj, sys, scn.params, dc, forcing)
    _require_finite("energy records", *(getattr(records, k) for k in COLUMNS))
    results, decay_report = _run_checks(scn, sys, dc, forcing, traj, records, ms)

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "energy.csv", records, traj.traces)
    if scn.write_solution:
        _write_csv(out / "solution.csv", ["t"] + [f"u_{i}" for i in range(sys.m)],
                   [traj.times, traj.coeffs])
    overall = all(r.passed for r in results)
    _write_report(out / "report.txt", scn, dc, results, decay_report, overall)
    for res in results:
        print(res)
    print(f"artifacts in {out}")
    return 0 if overall else 1


@dataclass(frozen=True)
class ConvergenceRow:
    n_nodes: int
    dt: float
    l2_error: float
    h1_error: float
    l2_order: float
    h1_order: float


def convergence_study(base: Scenario, levels: int) -> list[ConvergenceRow]:
    """Halve h (and dt with it) per level; errors at final time vs the exact
    manufactured solution, observed orders by log2 ratio of consecutive levels.

    Raises FloatingPointError (one of SOLVER_ERRORS) when a level's errors
    are not finite.
    """
    _validate(base, "scenario")
    if base.manufactured is None:
        raise ConfigError("convergence study needs a manufactured scenario")
    if levels < 3:
        raise ConfigError(f"need at least 3 levels, got {levels}")
    rows: list[ConvergenceRow] = []
    prev = None
    for lev in range(levels):
        scn = replace(base, n_nodes=(base.n_nodes - 1) * 2**lev + 1, dt=base.dt / 2**lev)
        sys, _, ms, traj = _integrated([scn])[0]
        l2, h1 = error_norms(sys, traj.coeffs[-1],
                             lambda x: ms.u(x, scn.T), lambda x: ms.ux(x, scn.T))
        _require_finite(f"errors at n_nodes={scn.n_nodes}", [l2, h1])
        if prev is None:
            l2_order = h1_order = math.nan
        else:
            l2_order = math.log2(prev[0] / l2) if prev[0] > 0 and l2 > 0 else math.nan
            h1_order = math.log2(prev[1] / h1) if prev[1] > 0 and h1 > 0 else math.nan
        rows.append(ConvergenceRow(scn.n_nodes, scn.dt, l2, h1, l2_order, h1_order))
        prev = (l2, h1)
    return rows


@_exit_code
def converge_scenario(config_path, levels: int, outdir=None) -> int:
    """Convergence study of one config; writes ``convergence.csv``, prints the
    table and returns the exit code."""
    rows = convergence_study(parse_scenario(config_path), levels)
    out = resolve_outdir(config_path, outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "convergence.csv",
               ["n_nodes", "dt", "L2_error", "H1_error", "L2_order", "H1_order"],
               np.array([astuple(r) for r in rows]).T)
    print(f"{'n_nodes':>8} {'dt':>12} {'L2_error':>12} {'H1_error':>12} "
          f"{'L2_order':>9} {'H1_order':>9}")
    for r in rows:
        print(f"{r.n_nodes:8d} {r.dt:12.3e} {r.l2_error:12.4e} {r.h1_error:12.4e} "
              f"{r.l2_order:9.3f} {r.h1_order:9.3f}")
    print(f"artifacts in {out}")
    return 0


@_exit_code
def sweep_scenario(config_path, param: str, values: list[float], outdir=None) -> int:
    """Run the scenario once per value of ``param``, each in its own subdir.

    Every value is first typed, patched, validated and given its constants.
    The points that passed and share the operator and the step (params,
    n_nodes, T and dt) are integrated together, up to MAX_COLUMNS at a time,
    as the columns of one stacked state; then each point's records, checks
    and artifacts are made and its exit line printed, in the order of ``values``.
    """
    scn = parse_scenario(config_path)
    if param not in SWEEP_KEYS:
        raise ConfigError(f"cannot sweep over {param!r}")
    base_out = resolve_outdir(config_path, outdir)
    owners: dict[Path, float] = {}  # each subdir and the value that ran in it
    points = []  # (value, subdir, (patched scenario, constants) or the error it exits with)
    groups: dict[tuple, list[int]] = {}  # indices of such pairs, by operator and step
    for value in values:
        subdir = base_out / f"{param}_{value:g}"
        try:
            patched = _patched(scn, param, value, subdir, owners)
            prepared = (patched, _constants(patched))
        except CONFIG_ERRORS + (_Inadmissible,) as exc:
            prepared = exc
        else:
            key = (patched.params, patched.n_nodes, patched.T, patched.dt)
            groups.setdefault(key, []).append(len(points))
        points.append((value, subdir, prepared))
    if groups:  # some point will run
        base_out.mkdir(parents=True, exist_ok=True)
    # the points to integrate together: 2 to MAX_COLUMNS indices, keyed by the first
    chunks = (group[s:s + MAX_COLUMNS] for group in groups.values()
              for s in range(0, len(group), MAX_COLUMNS))
    batches = {chunk[0]: chunk for chunk in chunks if len(chunk) > 1}
    runs = {}  # point index -> its entry of _integrated
    worst = 0
    for i, (value, subdir, prepared) in enumerate(points):
        if i in batches:
            try:
                runs.update(zip(batches[i], _integrated([points[j][2][0] for j in batches[i]])))
            except CONFIG_ERRORS + SOLVER_ERRORS:
                pass  # each point integrates alone in its turn and reports its own error
        code = _sweep_point(prepared, subdir, runs.pop(i, None))
        print(f"sweep {param}={value:g}: exit {code}")
        worst = max(worst, code)
    return worst


def _patched(scn: Scenario, param: str, value: float, outdir: Path, owners) -> Scenario:
    """``scn`` with ``param`` set to ``value``, validated, for a sweep point to
    run in ``outdir``; raises ConfigError when the value is invalid or an
    earlier value of the sweep, recorded in ``owners``, took ``outdir``."""
    where = f"{param}={value:g}"
    if outdir in owners:
        raise ConfigError(f"{param}={value!r}: {outdir.name} is already used by "
                          f"{param}={owners[outdir]!r}")
    typed = _typed_number(where, param, float(value))
    if param in PARAM_KEYS:
        patched = replace(scn, params=replace(scn.params, **{param: typed}))
    else:
        patched = replace(scn, **{param: typed})
    _validate(patched, where)
    owners[outdir] = value
    return patched


@_exit_code
def _sweep_point(prepared, outdir: Path, run) -> int:
    """Run one point of a sweep in ``outdir``: ``prepared`` is its scenario and
    constants, or the error it exits with, in which case nothing is written;
    ``run`` is its entry of ``_integrated``, or None to integrate it here."""
    if isinstance(prepared, Exception):
        raise prepared
    patched, dc = prepared
    outdir.mkdir(exist_ok=True)
    # written for reproducibility: parse_scenario gives back ``patched``
    (outdir / "scenario.cfg").write_text(_scenario_to_config(patched))
    return _execute(patched, dc, outdir, run)


def _scenario_to_config(scn: Scenario) -> str:
    """Config text that parse_scenario reads back as ``scn``."""
    values = {**vars(scn.params), **vars(scn), "checks": ", ".join(scn.checks),
              "write_solution": str(scn.write_solution).lower()}
    del values["params"]
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in values.items() if v is not None and v != "")
