import importlib
import math
import re
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import REFERENCE, REFERENCE_CFG, flat_records
from twopointwave import (
    Forcing,
    ProblemParams,
    Scenario,
    assemble,
    check_differential_inequality,
    check_sandwich,
    derive_constants,
    error_norms,
    manufacture,
    parse_scenario,
    read_energy_csv,
    run_scenario,
    uniform_mesh,
)
from twopointwave.cli import main
from twopointwave.errors import ConfigError
from twopointwave import scenario
from twopointwave.galerkin import MAX_COLUMNS
from twopointwave.scenario import convergence_study, sweep_scenario

SMALL_RUN = """\
h0 = 1.0
h1 = 0.5
lam0 = 1.0
lam1 = 1.0
lt0 = 0.1
lt1 = 0.1
ht0 = 0.01
ht1 = 0.01
K = 1.0
lam = 1.0
n_nodes = 17
T = 1.0
dt = 0.01
checks = sandwich
"""

MMS_BASE = """\
h0 = 1.0
h1 = 0.5
lam0 = 1.0
lam1 = 1.0
lt0 = 0.1
lt1 = 0.1
ht0 = 0.01
ht1 = 0.01
K = 1.0
lam = 1.0
n_nodes = 9
T = 1.0
dt = 0.02
forcing = manufactured
manufactured = decaying_cosine
"""


FORCED_RUN = SMALL_RUN + "forcing = boundary_exp\nforcing_rate = 0.5\n"
# the package's ``integrate`` attribute is the function of that name
integrate_module = importlib.import_module("twopointwave.integrate")


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_reference_config_parses(self):
        scn = parse_scenario(REFERENCE_CFG)
        assert scn.n_nodes == 65
        assert scn.T == 10.0
        assert scn.dt == 1e-3
        assert scn.checks == ("sandwich", "differential", "decay_fit")
        assert scn.params.h1 == 0.5

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# leading comment\n\n" + SMALL_RUN + "seed = 3   # trailing\n"
        scn = parse_scenario(write_config(tmp_path, text))
        assert scn.seed == 3

    def test_missing_required_key(self, tmp_path):
        broken = SMALL_RUN.replace("K = 1.0\n", "")
        with pytest.raises(ConfigError, match="K"):
            parse_scenario(write_config(tmp_path, broken))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(write_config(tmp_path, SMALL_RUN + "typo_key = 1\n"))

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a number"):
            parse_scenario(write_config(tmp_path, SMALL_RUN.replace("T = 1.0", "T = fast")))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(write_config(tmp_path, SMALL_RUN + "h0 = 2.0\n"))

    def test_unknown_check_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown check"):
            parse_scenario(write_config(tmp_path, SMALL_RUN.replace(
                "checks = sandwich", "checks = sandwich, entropy")))

    def test_ladder_requires_manufactured(self, tmp_path):
        with pytest.raises(ConfigError, match="ladder"):
            parse_scenario(write_config(tmp_path, SMALL_RUN.replace(
                "checks = sandwich", "checks = ladder")))

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("Yes", True), ("1", True),
        ("FALSE", False), ("no", False), ("0", False),
    ])
    def test_write_solution_synonyms(self, tmp_path, value, expected):
        scn = parse_scenario(write_config(tmp_path, SMALL_RUN + f"write_solution = {value}\n"))
        assert scn.write_solution is expected

    def test_bad_write_solution_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="write_solution: expected true/false"):
            parse_scenario(write_config(tmp_path, SMALL_RUN + "write_solution = maybe\n"))

    def test_bad_write_solution_names_the_config(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN + "write_solution = maybe\n")
        assert main(["run", str(config), "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == (
            f"config error: {config}: write_solution: expected true/false, got 'maybe'\n")

    @pytest.mark.parametrize("value", ["2.5", "inf"])
    def test_non_integer_for_integer_key_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match=f"n_nodes: expected an integer, got {value}"):
            parse_scenario(write_config(tmp_path, SMALL_RUN.replace(
                "n_nodes = 17", f"n_nodes = {value}")))

    @pytest.mark.parametrize("key, value", [
        ("initial_data", "Cosine"), ("forcing", "wind"), ("manufactured", "nope"),
    ])
    def test_unknown_choice_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"unknown {key}.*'{value}'"):
            parse_scenario(write_config(tmp_path, SMALL_RUN + f"{key} = {value}\n"))

    def test_required_keys_alone_take_the_field_defaults(self, tmp_path):
        text = SMALL_RUN.replace("checks = sandwich\n", "")
        assert parse_scenario(write_config(tmp_path, text)) == Scenario(
            params=ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=1.0, ht0=0.01, ht1=0.01,
                                 lt0=0.1, lt1=0.1, K=1.0, lam=1.0),
            n_nodes=17, T=1.0, dt=0.01)


class TestRunScenario:
    def test_small_run_passes_and_writes_artifacts(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_scenario(config, outdir=out) == 0
        assert (out / "energy.csv").exists()
        assert (out / "report.txt").exists()
        report = (out / "report.txt").read_text()
        assert "overall: PASS" in report
        # re-running is deterministic: same exit code, identical artifacts
        first = (out / "energy.csv").read_text()
        assert run_scenario(config, outdir=out) == 0
        assert (out / "energy.csv").read_text() == first

    def test_energy_csv_round_trip_reproduces_counts(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_scenario(config, outdir=out) == 0
        scn = parse_scenario(config)
        dc = derive_constants(scn.params)
        records = read_energy_csv(out / "energy.csv")
        report = check_sandwich(records, dc)
        assert report.violations == 0
        # full-precision floats survive the round trip exactly
        assert records.t[1] == 0.01
        assert len(records) == 101

    def test_csv_writer_writes_the_bytes_of_savetxt(self, tmp_path):
        # more rows than one formatting block, zeros, magnitudes 1e-20..1e5,
        # both signs and the NaN that convergence.csv's first orders hold
        rng = np.random.default_rng(3)
        rows = scenario.CSV_BLOCK_VALUES // 3 + 7
        data = rng.choice([-1.0, 1.0], (rows, 3)) * 10.0 ** rng.uniform(-20, 5, (rows, 3))
        data[::5, 1] = 0.0
        data[0, 2] = np.nan
        scenario._write_csv(tmp_path / "new.csv", ["t", "a", "b"], list(data.T))
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            np.savetxt(fh, data, fmt="%.17g", delimiter=",", header="t,a,b", comments="",
                       newline="\r\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_config_error_exits_2(self, tmp_path):
        config = write_config(tmp_path, "h0 = broken\n")
        assert run_scenario(config, outdir=tmp_path / "o") == 2

    def test_inadmissible_decay_checks_exit_3(self, tmp_path, capsys):
        bad = SMALL_RUN.replace("lt0 = 0.1", "lt0 = 1.0").replace("lt1 = 0.1", "lt1 = 1.0")
        config = write_config(tmp_path, bad)
        assert run_scenario(config, outdir=tmp_path / "o") == 3
        assert "|lt0 + lt1| < 2*sqrt(lam0*lam1)" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    def test_inadmissible_without_decay_checks_runs(self, tmp_path):
        # conservation-style config: no interior/boundary damping at all
        text = SMALL_RUN.replace("lam0 = 1.0", "lam0 = 0.0") \
                        .replace("lam1 = 1.0", "lam1 = 0.0") \
                        .replace("K = 1.0", "K = 0.0") \
                        .replace("lam = 1.0", "lam = 0.0") \
                        .replace("checks = sandwich\n", "")
        config = write_config(tmp_path, text)
        assert run_scenario(config, outdir=tmp_path / "o") == 0

    def test_growing_solution_fails_decay_fit_with_exit_1(self, tmp_path):
        text = MMS_BASE.replace("manufactured = decaying_cosine",
                                "manufactured = polynomial")
        text += "checks = decay_fit\nn_nodes = 17\ndt = 0.01\nT = 4.0\n"
        text = text.replace("n_nodes = 9\n", "").replace("dt = 0.02\n", "") \
                   .replace("T = 1.0\n", "")
        config = write_config(tmp_path, text)
        assert run_scenario(config, outdir=tmp_path / "o") == 1

    def test_solution_snapshots_on_request(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN + "write_solution = true\n")
        out = tmp_path / "out"
        assert run_scenario(config, outdir=out) == 0
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["t", "u_0"]


class TestConvergence:
    def test_orders_on_manufactured_cosine(self, tmp_path):
        scn = parse_scenario(write_config(tmp_path, MMS_BASE))
        rows = convergence_study(scn, levels=3)
        assert rows[-1].l2_order >= 1.8
        assert rows[-1].h1_order >= 0.9

    def test_affine_form_is_time_error_limited(self, tmp_path):
        # hats represent affine functions exactly; halving dt quarters the error
        scn = parse_scenario(write_config(
            tmp_path, MMS_BASE.replace("decaying_cosine", "decaying_affine")))
        rows = convergence_study(scn, levels=3)
        assert rows[-1].l2_order == pytest.approx(2.0, abs=0.2)

    def test_zero_solution_reports_unusable_orders(self, tmp_path):
        scn = parse_scenario(write_config(
            tmp_path, MMS_BASE.replace("decaying_cosine", "zero")))
        rows = convergence_study(scn, levels=3)
        for row in rows:
            assert row.l2_error == 0.0
            assert row.h1_error == 0.0
        assert np.isnan(rows[-1].l2_order)
        assert np.isnan(rows[-1].h1_order)

    def test_run_solves_the_problem_of_level_0(self, tmp_path):
        text = (REFERENCE_CFG.parent / "manufactured_cosine.cfg").read_text()
        config = write_config(tmp_path, text + "write_solution = true\n")
        out = tmp_path / "o"
        assert run_scenario(config, outdir=out) == 0
        last = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[-1]
        scn = parse_scenario(config)
        ms = manufacture(scn.manufactured, scn.params, scn.alpha)
        sys = assemble(uniform_mesh(scn.n_nodes), scn.params)
        assert last[0] == scn.T
        l2, h1 = error_norms(sys, last[1:], lambda x: ms.u(x, scn.T), lambda x: ms.ux(x, scn.T))
        row = convergence_study(scn, levels=3)[0]
        assert (l2, h1) == (row.l2_error, row.h1_error)

    def test_needs_manufactured_scenario(self, tmp_path):
        scn = parse_scenario(write_config(tmp_path, SMALL_RUN))
        with pytest.raises(ConfigError):
            convergence_study(scn, levels=3)

    def test_needs_three_levels(self, tmp_path):
        scn = parse_scenario(write_config(tmp_path, MMS_BASE))
        with pytest.raises(ConfigError):
            convergence_study(scn, levels=2)


class TestPythonBuiltScenario:
    """execute and convergence_study validate a Scenario built in Python as
    parse_scenario validates a config."""

    BAD = [
        (dict(n_nodes=1), "need T > 0, dt > 0 and n_nodes >= 2"),
        (dict(T=1.0, dt=0.3), "T=1.0 is not an integral multiple of dt=0.3"),
        (dict(checks=("bogus",)), "unknown check 'bogus'; known: "),
        (dict(checks=("sandwich", "sandwich")), "duplicate check 'sandwich'"),
        (dict(initial_data="bogus"), "unknown initial_data 'bogus'"),
    ]

    @pytest.mark.parametrize("changes, message", BAD)
    def test_execute_exits_2_with_one_line(self, tmp_path, capfd, changes, message):
        scn = replace(Scenario(REFERENCE, n_nodes=9, T=0.1, dt=0.01), **changes)
        assert scenario.execute(scn, tmp_path) == 2
        printed = capfd.readouterr()
        assert printed.err == ""
        assert printed.out.startswith(f"config error: scenario: {message}")
        assert printed.out.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_execute_makes_its_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir"
        assert scenario.execute(Scenario(REFERENCE, n_nodes=9, T=0.1, dt=0.01), out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["energy.csv", "report.txt"]
        assert capsys.readouterr().out == f"artifacts in {out}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_convergence_study_raises_on_non_finite_errors(self, tmp_path):
        # the exact solution exp(900 t) cos(pi x) overflows before T = 1; the
        # guard raises under the caller's float error state
        scn = parse_scenario(write_config(tmp_path, MMS_BASE + "alpha = -900\n"))
        with pytest.raises(FloatingPointError, match="non-finite state"):
            convergence_study(scn, levels=3)

    @pytest.mark.parametrize("changes, message", BAD)
    def test_convergence_study_raises_a_config_error(self, changes, message):
        scn = replace(Scenario(REFERENCE, n_nodes=9, T=1.0, dt=0.02, forcing="manufactured",
                               manufactured="decaying_cosine"), **changes)
        with pytest.raises(ConfigError, match=f"^scenario: {re.escape(message)}"):
            convergence_study(scn, levels=3)


class TestSweepColumns:
    """Sweep points that share params, n_nodes, T and dt are integrated
    together, at most MAX_COLUMNS at a time, and give the artifacts of
    separate runs."""

    @staticmethod
    def count_factorisations(monkeypatch):
        built = []

        class CountingStepper(integrate_module.MidpointStepper):
            def __init__(self, sys, dt):
                built.append(dt)
                super().__init__(sys, dt)

        monkeypatch.setattr(integrate_module, "MidpointStepper", CountingStepper)
        return built

    @staticmethod
    def assert_same_as_a_run(tmp_path, subdir, key, value, text=FORCED_RUN):
        alone = tmp_path / f"alone_{value:g}"
        config = write_config(tmp_path, text + f"{key} = {value!r}\n", name=f"{value:g}.cfg")
        assert run_scenario(config, outdir=alone) == 0
        for name in ("energy.csv", "report.txt"):
            assert (subdir / name).read_bytes() == (alone / name).read_bytes()

    @pytest.mark.parametrize("n_values", [3, 2 * MAX_COLUMNS + 1])
    def test_points_sharing_the_operator_factor_once_per_batch(self, tmp_path, monkeypatch,
                                                                n_values):
        built = self.count_factorisations(monkeypatch)
        values = [0.5 * (i + 1) for i in range(n_values)]
        config = write_config(tmp_path, FORCED_RUN)
        assert sweep_scenario(config, "forcing_amplitude", values,
                              outdir=tmp_path / "sweep") == 0
        assert len(built) == math.ceil(n_values / MAX_COLUMNS)

    def test_points_with_their_own_operator_factor_once_each(self, tmp_path, monkeypatch):
        built = self.count_factorisations(monkeypatch)
        config = write_config(tmp_path, FORCED_RUN)
        assert sweep_scenario(config, "ht0", [0.0, 0.02, 0.05], outdir=tmp_path / "sweep") == 0
        assert len(built) == 3

    def test_columns_write_the_artifacts_of_separate_runs(self, tmp_path):
        config = write_config(tmp_path, FORCED_RUN)
        out = tmp_path / "sweep"
        assert sweep_scenario(config, "forcing_amplitude", [0.5, 2.0], outdir=out) == 0
        for value in (0.5, 2.0):
            self.assert_same_as_a_run(tmp_path, out / f"forcing_amplitude_{value:g}",
                                      "forcing_amplitude", value)

    def test_a_non_finite_point_exits_4_alone(self, tmp_path, capsys):
        # u0 = amplitude * (1 + x) overflows to inf at x = 1
        text = FORCED_RUN + "initial_data = affine\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "sweep"
        assert sweep_scenario(config, "initial_amplitude", [1.0, 1.7e308, 2.0],
                              outdir=out) == 4
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(("sweep", "solver"))]
        assert printed[0] == "sweep initial_amplitude=1: exit 0"
        assert printed[1].startswith("solver error: non-finite state: ")
        assert printed[2:] == ["sweep initial_amplitude=1.7e+308: exit 4",
                               "sweep initial_amplitude=2: exit 0"]
        for value in (1.0, 2.0):
            self.assert_same_as_a_run(tmp_path, out / f"initial_amplitude_{value:g}",
                                      "initial_amplitude", value, text)

    def test_a_failing_batch_reports_each_point_in_its_place(self, tmp_path, capsys):
        # exp(1000 t) overflows in the middle point's forcing, which fails the
        # whole batch; each point then integrates alone
        config = write_config(tmp_path, FORCED_RUN)
        out = tmp_path / "sweep"
        assert sweep_scenario(config, "forcing_rate", [0.5, -1000.0, 1.0], outdir=out) == 4
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(("sweep", "solver"))]
        assert printed == ["sweep forcing_rate=0.5: exit 0", "solver error: math range error",
                           "sweep forcing_rate=-1000: exit 4", "sweep forcing_rate=1: exit 0"]
        for value in (0.5, 1.0):
            self.assert_same_as_a_run(tmp_path, out / f"forcing_rate_{value:g}",
                                      "forcing_rate", value,
                                      SMALL_RUN + "forcing = boundary_exp\n")


class TestCli:
    def test_run_subcommand(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        assert main(["run", str(config), "--outdir", str(tmp_path / "o")]) == 0

    def test_converge_subcommand_writes_csv(self, tmp_path):
        config = write_config(tmp_path, MMS_BASE)
        out = tmp_path / "conv"
        assert main(["converge", str(config), "--levels", "3",
                     "--outdir", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("n_nodes,dt,L2_error,H1_error")
        assert len(lines) == 4

    def test_props_subcommand(self):
        assert main(["props", "--seed", "11", "--samples", "400"]) == 0

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["--samples", "0"], 2,
                     re.escape("config error: --samples must be at least 1, got 0"), id="0"),
        pytest.param(["--samples", "-3"], 2,
                     re.escape("config error: --samples must be at least 1, got -3"), id="-3"),
        pytest.param(["--seed", "-1"], 2,
                     re.escape("config error: --seed must be at least 0, got -1"), id="seed"),
        # numpy refuses the first suite's 291 TiB block before allocating any of it
        pytest.param(["--samples", "1000000000000000"], 4,
                     r"solver error: Unable to allocate [^\n]*", id="unallocatable"),
    ])
    def test_props_without_samples_exits_2(self, capfd, argv, code, line):
        assert main(["props", *argv]) == code
        printed = capfd.readouterr()
        assert printed.err == ""
        assert re.fullmatch(line + "\n", printed.out)

    def test_sweep_subcommand(self, tmp_path):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        code = sweep_scenario(config, "ht0", [0.0, 0.02], outdir=out)
        assert code == 0
        assert (out / "ht0_0" / "energy.csv").exists()
        assert (out / "ht0_0.02" / "energy.csv").exists()

    @pytest.mark.parametrize("param, value, extra", [
        ("ht0", 0.02, ""),
        ("n_nodes", 9.0, ""),
        ("ht0", 0.02, "eps1 = 0.22275\n"),
        ("initial_amplitude", 0.1 + 0.2, ""),
    ])
    def test_sweep_config_reproduces_the_run(self, tmp_path, monkeypatch, param, value, extra):
        # every sweep point, integrated alone or as a column, runs through _execute
        ran = []

        def recording_execute(scn, dc, outdir, run=None):
            ran.append(scn)
            return execute(scn, dc, outdir, run)

        execute = scenario._execute
        monkeypatch.setattr(scenario, "_execute", recording_execute)
        config = write_config(tmp_path, SMALL_RUN + extra)
        out = tmp_path / "sweep"
        values = [value, 2 * value]  # two columns of one run for initial_amplitude
        assert sweep_scenario(config, param, values, outdir=out) == 0
        assert len(ran) == len(values)
        for v, patched in zip(values, ran):
            assert parse_scenario(out / f"{param}_{v:g}" / "scenario.cfg") == patched
            target = patched.params if param == "ht0" else patched
            assert getattr(target, param) == v
            assert patched.eps1 == (0.22275 if extra else None)

    def test_sweep_rejects_invalid_values_with_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        code = sweep_scenario(config, "n_nodes", [1.0, 9.0], outdir=tmp_path / "sweep")
        assert code == 2
        out = capsys.readouterr().out
        assert "config error: n_nodes=1: need T > 0, dt > 0 and n_nodes >= 2" in out
        assert "sweep n_nodes=9: exit 0" in out

    def test_sweep_rejects_a_fractional_integer_value(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "n_nodes", "--values", "9.5", "9",
                     "--outdir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "config error: n_nodes=9.5: n_nodes: expected an integer, got 9.5" in printed
        assert "sweep n_nodes=9.5: exit 2" in printed
        assert "sweep n_nodes=9: exit 0" in printed
        assert not (out / "n_nodes_9.5").exists()
        assert (out / "n_nodes_9" / "energy.csv").exists()

    @pytest.mark.parametrize("taken", ["ht0_0", "ht0_0/scenario.cfg"])
    def test_sweep_point_with_an_unwritable_path(self, tmp_path, capfd, taken):
        # a file where the point's subdirectory goes, or a directory where its
        # scenario.cfg goes, fails that point alone
        out = tmp_path / "sweep"
        if taken == "ht0_0":
            out.mkdir()
            (out / taken).write_text("")
        else:
            (out / taken).mkdir(parents=True)
        config = write_config(tmp_path, SMALL_RUN)
        assert main(["sweep", str(config), "--param", "ht0", "--values", "0", "0.01",
                     "--outdir", str(out)]) == 2
        printed = capfd.readouterr()
        assert printed.err == ""
        lines = [line for line in printed.out.splitlines()
                 if line.startswith(("sweep", "config error"))]
        assert lines[1:] == ["sweep ht0=0: exit 2", "sweep ht0=0.01: exit 0"]
        assert lines[0].startswith("config error: ") and str(out / taken) in lines[0]
        assert (out / "ht0_0.01" / "energy.csv").exists()

    def test_sweep_in_which_no_point_runs_makes_no_directory(self, tmp_path, capsys):
        # delta = 0.3 is out of range at lam = 0.2 (exit 2), and lam = -0.5
        # fails the decay hypotheses the sandwich check needs (exit 3)
        config = write_config(tmp_path, SMALL_RUN + "delta = 0.3\n")
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "lam", "--values", "0.2", "-0.5",
                     "--outdir", str(out)]) == 3
        printed = capsys.readouterr().out
        assert "sweep lam=0.2: exit 2" in printed and "sweep lam=-0.5: exit 3" in printed
        assert not out.exists()

    @pytest.mark.parametrize("rate", [-1000.0, -36.0])
    def test_forcing_overflow_exits_4(self, tmp_path, capsys, rate):
        # -1000 overflows math.exp inside the load vector, -36 overflows
        # g0(t)**2 in the forcing magnitude sigma
        text = REFERENCE_CFG.read_text().replace(
            "forcing = none", f"forcing = boundary_exp\nforcing_rate = {rate}")
        config = write_config(tmp_path, text)
        assert main(["run", str(config), "--outdir", str(tmp_path / "o")]) == 4
        assert "solver error" in capsys.readouterr().out

    @pytest.mark.parametrize("checks", ["", "checks = sandwich, differential, decay_fit\n"])
    def test_non_finite_energy_exits_4(self, tmp_path, capsys, checks):
        # E = c'Ac overflows from the first sample while the state stays finite
        text = REFERENCE_CFG.read_text().replace("initial_amplitude = 1.0",
                                                 "initial_amplitude = 1e200")
        text = text.replace("checks = sandwich, differential, decay_fit\n", checks)
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(config), "--outdir", str(out)]) == 4
        printed = capsys.readouterr().out
        assert "solver error: non-finite state" in printed
        assert "PASS" not in printed and "FAIL" not in printed
        assert not (out / "energy.csv").exists()

    def test_converge_with_non_finite_errors_exits_4(self, tmp_path, capsys):
        # the exact solution exp(900 t) cos(pi x) overflows before T = 1
        config = write_config(tmp_path, MMS_BASE + "alpha = -900\n")
        out = tmp_path / "o"
        assert main(["converge", str(config), "--levels", "3", "--outdir", str(out)]) == 4
        assert "solver error: non-finite state" in capsys.readouterr().out
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("command, text, outdir, code", [
        ("run", SMALL_RUN, "o", 0),
        ("run", REFERENCE_CFG.read_text().replace("initial_amplitude = 1.0",
                                                  "initial_amplitude = 1e200"), "o", 4),
        ("converge", MMS_BASE + "alpha = -900\n", "o", 4),
        ("run", b"h0 = 1.0\xff\n", "o", 2),
        ("converge", b"h0 = 1.0\xff\n", "o", 2),
        ("sweep", b"h0 = 1.0\xff\n", "o", 2),
        ("run", SMALL_RUN, "file", 2),
        ("sweep", SMALL_RUN, "file/o", 2),
        ("run", SMALL_RUN, "taken", 2),
        ("converge", MMS_BASE, "taken", 2),
    ], ids=["healthy_run", "overflowing_run", "overflowing_converge", "non_utf8_run",
            "non_utf8_converge", "non_utf8_sweep", "outdir_is_a_file", "outdir_under_a_file",
            "energy_csv_is_a_directory", "convergence_csv_is_a_directory"])
    def test_stderr_stays_empty(self, tmp_path, capfd, command, text, outdir, code):
        # the non-finite guard is the one report: no RuntimeWarning before it;
        # an unreadable config or an output path that cannot be made or
        # written is one line
        config = tmp_path / "scenario.cfg"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        (tmp_path / "file").write_text("")
        for name in ("energy.csv", "convergence.csv"):
            (tmp_path / "taken" / name).mkdir(parents=True)
        argv = [command, str(config), "--outdir", str(tmp_path / outdir)]
        argv += {"converge": ["--levels", "3"], "sweep": ["--param", "ht0", "--values", "0"],
                 "run": []}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert [str(w.message) for w in caught] == []
        printed = capfd.readouterr()
        assert printed.err == ""
        if code == 2:
            assert re.fullmatch(r"config error: [^\n]*\n", printed.out)

    def test_horizon_not_a_multiple_of_dt_exits_2(self, tmp_path, capsys):
        text = SMALL_RUN.replace("T = 1.0", "T = 1.05").replace("dt = 0.01", "dt = 0.1")
        config = write_config(tmp_path, text)
        assert main(["run", str(config), "--outdir", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().out

    def test_sweep_over_dt_rejects_a_non_dividing_step(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        assert main(["sweep", str(config), "--param", "dt", "--values", "0.3", "0.1",
                     "--outdir", str(tmp_path / "sweep")]) == 2
        out = capsys.readouterr().out
        assert "T=1.0 is not an integral multiple of dt=0.3" in out
        assert "sweep dt=0.3: exit 2" in out
        assert "sweep dt=0.1: exit 0" in out

    @pytest.mark.parametrize("old, new", [("T = 10.0", "T = inf"), ("dt = 0.001", "dt = 1e-320")])
    def test_infinite_step_count_exits_2(self, tmp_path, capsys, old, new):
        config = write_config(tmp_path, REFERENCE_CFG.read_text().replace(old, new))
        out = tmp_path / "o"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert "give no finite step count" in capsys.readouterr().out
        assert not out.exists()

    def test_sweep_over_T_rejects_an_infinite_horizon(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "T", "--values", "0.1", "inf",
                     "--outdir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "config error: T=inf: T=inf and dt=0.01 give no finite step count" in printed
        assert "sweep T=0.1: exit 0" in printed
        assert "sweep T=inf: exit 2" in printed
        assert not (out / "T_inf").exists()

    @pytest.mark.parametrize("config, code", [
        ("reference", 2), ("conservation_control", 0), ("manufactured_cosine", 2),
        ("oracle_tiny", 0),
    ])
    def test_one_step_run_of_each_shipped_config(self, tmp_path, capfd, config, code):
        # T = dt: a check whose centered differences need three samples is a
        # config error, not a traceback
        shipped = REFERENCE_CFG.parent / f"{config}.cfg"
        dt = parse_scenario(shipped).dt
        text = re.sub(r"^T = .*$", f"T = {dt!r}", shipped.read_text(), flags=re.MULTILINE)
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, text)), "--outdir", str(out)]) == code
        printed = capfd.readouterr()
        assert printed.err == ""
        if code == 2:
            assert re.fullmatch(r"config error: .*: the \w+ check needs T/dt >= 2, got 1\n",
                                printed.out)
            assert not out.exists()

    def test_sweep_over_T_rejects_a_one_step_differential_check(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN.replace("sandwich", "differential"))
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "T", "--values", "0.01", "0.02",
                     "--outdir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "config error: T=0.01: the differential check needs T/dt >= 2, got 1" in printed
        assert "sweep T=0.02: exit 0" in printed
        assert not (out / "T_0.01").exists()

    def test_unfittable_decay_prints_plain_numbers(self, tmp_path, capsys):
        text = REFERENCE_CFG.read_text().replace("T = 10.0", "T = 0.001").replace(
            "sandwich, differential, decay_fit", "decay_fit")
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, text)), "--outdir", str(out)]) == 1
        printed = capsys.readouterr().out
        line = "decay_fit: FAIL (unfittable: only 1 usable samples in window [0.0005, 0.001])"
        assert line in printed and line in (out / "report.txt").read_text()
        assert "np.float64" not in printed

    def test_sweep_values_sharing_a_directory(self, tmp_path, capsys):
        # 1.0000001 and 1.0000002 both format as 1: the second value must not
        # overwrite the run of the first
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "initial_amplitude", "--values",
                     "1.0000001", "1.0000002", "2", "--outdir", str(out)]) == 2
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if line.startswith(("sweep", "config error"))] == [
            "sweep initial_amplitude=1: exit 0",
            "config error: initial_amplitude=1.0000002: initial_amplitude_1 is already used "
            "by initial_amplitude=1.0000001",
            "sweep initial_amplitude=1: exit 2",
            "sweep initial_amplitude=2: exit 0",
        ]
        assert parse_scenario(out / "initial_amplitude_1" / "scenario.cfg").initial_amplitude \
            == 1.0000001
        assert (out / "initial_amplitude_2" / "energy.csv").exists()

    def test_out_of_range_delta_exits_2_without_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN + "delta = 5.0\n")
        out = tmp_path / "o"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert "config error: delta must lie in" in capsys.readouterr().out
        assert not out.exists()

    def test_sweep_reports_inadmissible_delta_and_runs_the_rest(self, tmp_path, capsys):
        # delta = 0.3 needs lam - eps1/C0 > 0.3: true at lam = 1, false at
        # lam = 0.2; lam = -0.5 fails the decay hypotheses the sandwich check needs
        config = write_config(tmp_path, SMALL_RUN + "delta = 0.3\n")
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "lam", "--values", "0.2", "1.0", "-0.5",
                     "--outdir", str(out)]) == 3
        printed = capsys.readouterr().out
        assert "config error: delta must lie in" in printed
        assert "sweep lam=0.2: exit 2" in printed
        assert "sweep lam=1: exit 0" in printed
        assert "hypothesis violation: decay checks requested but params fail" in printed
        assert "sweep lam=-0.5: exit 3" in printed
        assert not (out / "lam_0.2").exists()
        assert not (out / "lam_-0.5").exists()
        assert (out / "lam_1" / "energy.csv").exists()

    def test_sweep_derives_the_constants_once_per_runnable_point(self, tmp_path, monkeypatch):
        calls = []

        def counting_derive_constants(*args, **kwargs):
            calls.append(args)
            return derive_constants(*args, **kwargs)

        monkeypatch.setattr(scenario, "derive_constants", counting_derive_constants)
        config = write_config(tmp_path, FORCED_RUN)
        assert sweep_scenario(config, "forcing_amplitude", [0.5, math.nan, 1.0, 2.0],
                              outdir=tmp_path / "sweep") == 2
        assert len(calls) == 3

    @pytest.mark.parametrize("key, value", [
        ("ht0", "inf"), ("lam", "nan"), ("initial_amplitude", "nan"),
        ("forcing_amplitude", "-inf"), ("forcing_rate", "nan"), ("alpha", "inf"),
    ])
    def test_non_finite_constant_exits_2(self, tmp_path, capsys, key, value):
        # rejected before the solver, whose error would not name the key
        text = re.sub(rf"^{key} = .*\n", "", SMALL_RUN, flags=re.MULTILINE)
        config = write_config(tmp_path, text + f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"config error: {config}: {key} must be finite, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("param", ["ht0", "initial_amplitude"])
    def test_sweep_rejects_a_non_finite_constant(self, tmp_path, capsys, param):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", param, "--values", "nan", "0.02",
                     "--outdir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert f"config error: {param}=nan: {param} must be finite, got nan" in printed
        assert f"sweep {param}=nan: exit 2" in printed
        assert f"sweep {param}=0.02: exit 0" in printed
        assert not (out / f"{param}_nan").exists()

    @pytest.mark.parametrize("command, extra", [
        ("run", []), ("converge", ["--levels", "3"]),
        ("sweep", ["--param", "alpha", "--values", "1", "2"]),
    ])
    @pytest.mark.parametrize("text", [
        MMS_BASE.replace("forcing = manufactured", "forcing = none"),
        MMS_BASE.replace("forcing = manufactured", "forcing = boundary_exp"),
        MMS_BASE.replace("manufactured = decaying_cosine\n", ""),
    ], ids=["key_unforced", "key_boundary_exp", "forcing_without_key"])
    def test_manufactured_key_and_forcing_go_together(self, tmp_path, capfd, command,
                                                     extra, text):
        # run and converge would otherwise pose different problems
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, str(config), "--outdir", str(out)] + extra) == 2
        printed = capfd.readouterr()
        assert printed.err == ""
        assert re.fullmatch(rf"config error: {re.escape(str(config))}: a 'manufactured' key "
                            rf"and forcing = manufactured go together, got .*\n", printed.out)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, code, line", [
        # the first array of each run needs more than the 2^47-byte address
        # space, so the allocation fails without touching memory
        ("n_nodes = 17", "n_nodes = 1e17", 4, "solver error: "),
        ("T = 1.0\ndt = 0.01", "T = 1e12\ndt = 0.001", 4, "solver error: "),
        ("n_nodes = 17", "n_nodes = 1e20", 2,
         f"config error: {{config}}: n_nodes: expected at most {np.iinfo(np.intp).max}, "
         "got 1e+20\n"),
    ], ids=["n_nodes_1e17", "T_1e12", "n_nodes_1e20"])
    def test_impossible_size_is_one_line(self, tmp_path, capfd, old, new, code, line):
        config = write_config(tmp_path, SMALL_RUN.replace(old, new))
        assert main(["run", str(config), "--outdir", str(tmp_path / "o")]) == code
        printed = capfd.readouterr()
        assert printed.err == ""
        assert printed.out.count("\n") == 1
        assert printed.out.startswith(line.format(config=config))

    def test_sweep_runs_on_past_an_impossible_size(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config), "--param", "n_nodes", "--values", "1e17", "1e20",
                     "9", "--outdir", str(out)]) == 4
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith(("sandwich", "artifacts"))]
        assert printed[0].startswith("solver error: ")
        assert printed[1:] == [
            "sweep n_nodes=1e+17: exit 4",
            f"config error: n_nodes=1e+20: n_nodes: expected at most {np.iinfo(np.intp).max}, "
            "got 1e+20",
            "sweep n_nodes=1e+20: exit 2",
            "sweep n_nodes=9: exit 0",
        ]
        assert not (out / "n_nodes_1e+20").exists()
        assert (out / "n_nodes_9" / "energy.csv").exists()

    def test_duplicate_check_exits_2(self, tmp_path, capsys):
        text = SMALL_RUN.replace("n_nodes = 17", "n_nodes = 2").replace(
            "checks = sandwich", "checks = oracle, oracle")
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert capsys.readouterr().out == f"config error: {config}: duplicate check 'oracle'\n"
        assert not out.exists()

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, SMALL_RUN)
        target = tmp_path / "env_out"
        monkeypatch.setenv("TWOPOINTWAVE_OUTDIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config)]) == 0
        assert (target / "energy.csv").exists()


class TestDifferentialRerun:
    """The differential check reruns the scenario at dt/2 only when a margin
    exceeds the 1e-8 floor or is not finite; the verdict is that of the rerun."""

    @staticmethod
    def run_checks(monkeypatch, records):
        calls = []
        refined = flat_records(2 * len(records) - 1, t=0.05 * np.arange(2 * len(records) - 1))

        def counting_integrate(sys, forcing, c0, v0, T, dt):
            calls.append((T, dt))
            return "refined trajectory"

        monkeypatch.setattr(scenario, "integrate", counting_integrate)
        monkeypatch.setattr(scenario, "record_trajectory", lambda traj, *args: refined)
        n = len(records)
        scn = Scenario(REFERENCE, n_nodes=2, T=0.1 * (n - 1), dt=0.1, checks=("differential",))
        traj = types.SimpleNamespace(coeffs=np.zeros((n, 2)), velocities=np.zeros((n, 2)))
        dc = derive_constants(REFERENCE)
        (result,), _ = scenario._run_checks(scn, None, dc, Forcing(), traj, records, None)
        return calls, result, refined, dc

    def test_margins_under_the_floor_skip_the_rerun(self, monkeypatch):
        records = flat_records(7)
        calls, result, _, dc = self.run_checks(monkeypatch, records)
        assert calls == []
        assert result.passed
        assert result.detail.endswith("tolerance=1.000e-08")
        assert check_differential_inequality(records, dc).violations == 0

    @pytest.mark.parametrize("gamma_4", [1e-6, math.nan], ids=["above_floor", "nan"])
    def test_a_margin_over_the_floor_runs_the_rerun_once(self, monkeypatch, gamma_4):
        # Gamma[4] = 1e-6 gives the centered margin 5e-6 at sample 3
        gamma = np.zeros(7)
        gamma[4] = gamma_4
        records = flat_records(7, Gamma=gamma)
        calls, result, refined, dc = self.run_checks(monkeypatch, records)
        assert calls == [(pytest.approx(0.6), 0.05)]
        assert check_differential_inequality(records, dc).violations > 0
        # the verdict is the rerun's: its tolerance covers 5e-6, but not a NaN
        rep = check_differential_inequality(records, dc, refined)
        assert result.passed == (gamma_4 == 1e-6) == (rep.violations == 0)
        assert result.detail == (f"violations={rep.violations} "
                                 f"worst_margin={rep.worst_margin:.3e} "
                                 f"tolerance={rep.tolerance:.3e}")

    @pytest.mark.parametrize("text", [
        REFERENCE_CFG.read_text(),
        REFERENCE_CFG.read_text().replace("n_nodes = 65", "n_nodes = 33")
        .replace("T = 10.0", "T = 5.0").replace(
            "forcing = none",
            "forcing = boundary_exp\nforcing_amplitude = 2.0\nforcing_rate = 0.25"),
        REFERENCE_CFG.read_text().replace("T = 10.0", "T = 2.0").replace(
            "forcing = none", "forcing = manufactured\nmanufactured = decaying_cosine"),
    ], ids=["reference", "boundary_exp", "decaying_cosine"])
    def test_verdict_equals_the_forced_rerun(self, tmp_path, monkeypatch, text):
        seen = {}
        run_checks = scenario._run_checks

        def spying_run_checks(scn, sys, dc, forcing, traj, records, ms):
            seen.update(scn=scn, sys=sys, dc=dc, forcing=forcing, traj=traj, records=records)
            return run_checks(scn, sys, dc, forcing, traj, records, ms)

        monkeypatch.setattr(scenario, "_run_checks", spying_run_checks)
        out = tmp_path / "o"
        assert run_scenario(write_config(tmp_path, text), outdir=out) == 0
        scn, sys, dc, forcing, traj = (seen[k] for k in ("scn", "sys", "dc", "forcing", "traj"))
        refined = scenario.integrate(sys, forcing, traj.coeffs[0], traj.velocities[0],
                                     scn.T, scn.dt / 2.0)
        forced = check_differential_inequality(
            seen["records"], dc,
            scenario.record_trajectory(refined, sys, scn.params, dc, forcing))
        (line,) = [ln for ln in (out / "report.txt").read_text().splitlines()
                   if "differential:" in ln]
        assert forced.violations == 0
        assert line == (f"  differential: PASS (violations=0 "
                        f"worst_margin={forced.worst_margin:.3e} tolerance=1.000e-08)")


def test_reference_scenario_end_to_end(tmp_path):
    """The shipped default: exit 0 and a fitted rate beating 0.95*delta."""
    out = tmp_path / "ref_out"
    assert run_scenario(REFERENCE_CFG, outdir=out) == 0
    report = (out / "report.txt").read_text()
    assert "decay_fit: PASS" in report
    scn = parse_scenario(REFERENCE_CFG)
    dc = derive_constants(scn.params)
    fitted = float(report.split("fitted_rate=")[1].split()[0])
    assert fitted >= 0.95 * dc.delta
