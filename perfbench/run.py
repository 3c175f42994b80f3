"""Benchmark of the twopointwave solve-and-verify pipeline.

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 20 --trace 0

Runs one workload closed loop with one caller: the next operation starts
when the previous one has returned, until ``--seconds`` have passed.  Every
operation passes through the correctness gate.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced twin run
alternately with the untraced operation.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibrate import DEPENDENCY_IMPORT, NOMINAL_IMPORT_S, NOMINAL_S, Kernel
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
MIN_ATTRIBUTED_FRAC = 0.95

PER_LAYER_UNITS = {
    "scenario.parse_s": "s",
    "scenario.sweep_roundtrip_s": "s",
    "scenario.csv_write_s": "s",
    "scenario.csv_bytes": "bytes",
    "scenario.self_s": "s",
    "scenario.errors": "count",
    "params.derive_s": "s",
    "params.errors": "count",
    "galerkin.assemble_s": "s",
    "galerkin.system_bytes": "bytes",
    "galerkin.load_vector_s": "s",
    "galerkin.load_vector_calls": "count",
    "galerkin.self_s": "s",
    "galerkin.errors": "count",
    "integrate.factor_s": "s",
    "integrate.integrate_s": "s",
    "integrate.steps": "count",
    "integrate.us_per_step": "us",
    "integrate.us_per_step.n65": "us",
    "integrate.us_per_step.n129": "us",
    "integrate.us_per_step.n257": "us",
    "integrate.us_per_step.n513": "us",
    "integrate.trajectory_bytes": "bytes",
    "integrate.oracle_s": "s",
    "integrate.oracle_steps": "count",
    "integrate.self_s": "s",
    "integrate.errors": "count",
    "diagnostics.record_s": "s",
    "diagnostics.record_rows": "count",
    "diagnostics.differential.rerun_integrate_s": "s",
    "diagnostics.differential.rerun_record_s": "s",
    "diagnostics.differential_s": "s",
    "diagnostics.sandwich_s": "s",
    "diagnostics.decay_fit_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.errors": "count",
    "trace.op_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "1",
}

PACKAGE_IMPORT = "import twopointwave; print(twopointwave.__file__)"


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def _fresh_import(statement: str, cwd: Path, env: dict) -> tuple[float, str]:
    """Seconds ``statement`` takes in a fresh interpreter, and what it printed."""
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    *printed, seconds = proc.stdout.split("\n")[:-1]
    return float(seconds), "\n".join(printed)


def measure_setup(cwd: Path) -> tuple[float, float]:
    """Time to import twopointwave in a fresh interpreter: the raw median,
    and the median of each import scaled to the nominal host speed by the
    fresh imports of its dependencies just before and after it.

    One extra import of each runs first and is not counted: it pays for
    byte-code compilation, which an installed package has already done.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    _fresh_import(DEPENDENCY_IMPORT, cwd, env)
    before, _ = _fresh_import(DEPENDENCY_IMPORT, cwd, env)
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        seconds, module_file = _fresh_import(PACKAGE_IMPORT, cwd, env)
        if not _under_src(module_file):
            raise RuntimeError(f"imported twopointwave from {module_file}, not {SRC}")
        if i:
            after, _ = _fresh_import(DEPENDENCY_IMPORT, cwd, env)
            raw.append(seconds)
            scaled.append(seconds * 2.0 * NOMINAL_IMPORT_S / (before + after))
            before = after
    return statistics.median(raw), statistics.median(scaled)


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    counts = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("lib*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    counts[f"{mod.__name__}:{lib.name}"] = fn()
                    break
    return counts


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """What a result depends on besides the workload: code, libraries, machine."""
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _per_step(row: dict) -> None:
    """Microseconds per integrate step, overall and per mesh size."""
    for suffix in ("", ".n65", ".n129", ".n257", ".n513"):
        steps = row.get("integrate.steps" + suffix, 0)
        seconds = row.get("integrate.integrate" + suffix + "_s", 0.0)
        row["integrate.us_per_step" + suffix] = 1e6 * seconds / steps if steps else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def run(workload, seconds: float, trace: bool, workdir: Path, kernel) -> dict:
    """Closed loop over the workload's operation until ``seconds`` pass.

    Untraced: a kernel run precedes the first operation and follows each
    one, and wall_s is the mean operation time scaled by NOMINAL_S over the
    mean kernel time; across the host's speed drift the ratio of the two
    means was steadier than any per-operation ratio or median.  Traced:
    untraced and traced operations alternate, and the traced one is compared
    with the untraced one before it.
    """
    from workloads import run_probes  # imports the package, so only after main's checks

    walls, kernel_times, traced_walls, errs, layer_rows = [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    previous = None
    if not trace:
        kernel_times.append(kernel())
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        outdir = workdir / f"op{i}"
        outdir.mkdir()
        attempted += 1
        try:
            if traced:
                tr = Tracer()
                probes = []
                with tr.span("op"):
                    outcome = workload.traced_op(tr, probes, outdir)
                run_probes(tr, probes)
                metrics = tr.metrics("op")
                _per_step(metrics)
                traced_walls.append(metrics["trace.op_wall_s"])
                layer_rows.append(metrics)
            else:
                start = time.perf_counter()
                try:
                    outcome = workload.op(outdir)
                finally:
                    walls.append(time.perf_counter() - start)
                    if not trace:
                        kernel_times.append(kernel())
            failures, err = workload.check(outcome)
            if traced:
                if (outcome.code, outcome.verdicts) != (previous.code, previous.verdicts):
                    failures.append(f"traced verdicts {outcome.code} {outcome.verdicts} differ "
                                    f"from untraced {previous.code} {previous.verdicts}")
                if metrics["trace.attributed_frac"] < MIN_ATTRIBUTED_FRAC:
                    failures.append(f"layer self times cover only "
                                    f"{metrics['trace.attributed_frac']:.3f} of the op")
            previous = outcome
        except Exception:  # an operation that raises counts as failed
            failures, err = [traceback.format_exc()], math.inf
        shutil.rmtree(outdir)
        if failures:
            failed += 1
            problems.extend(failures)
        else:
            errs.append(err)
        i += 1
        if time.perf_counter() >= deadline and (not trace or i >= 2):
            break

    for p in problems[:10]:
        print(f"FAILED: {p}", file=sys.stderr)
    if len(problems) > 10:
        print(f"... and {len(problems) - 10} more failures", file=sys.stderr)
    print(f"{workload.name}: {attempted} ops, {failed} failed")
    print(f"  raw wall time      median={statistics.median(walls):.6g} s  {_quartiles(walls)}")
    print(f"  failed_frac        {failed / attempted:.6g}")
    if trace:
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            values = [row.get(name, 0.0) for row in layer_rows] or [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        untraced = statistics.median(walls)
        metrics["trace.untraced_wall_s"]["value"] = untraced
        metrics["trace.overhead_s"]["value"] = statistics.median(traced_walls or [0.0]) - untraced
    else:
        scale = NOMINAL_S / statistics.fmean(kernel_times)
        metrics = {
            "wall_s": {"value": statistics.fmean(walls) * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "result_err": {"value": statistics.median(errs) if errs else math.inf, "unit": "1"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "1"},
        }
        print(f"  kernel time        median={statistics.median(kernel_times):.6g} s  "
              f"{_quartiles(kernel_times)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    workload_names = ("reference_run", "converge_ladder", "oracle_tiny", "sweep_forced")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twopointwave" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # Artifacts go to an explicit outdir under a temporary directory; the
    # environment's output-directory override must not redirect them.
    os.environ.pop("TWOPOINTWAVE_OUTDIR", None)
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if not args.trace:
            raw_setup_s, setup_s = measure_setup(workdir)
        import twopointwave

        if not _under_src(twopointwave.__file__):
            print(f"error: imported twopointwave from {twopointwave.__file__}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        env = environment()
        print(f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        workload = WORKLOADS[args.workload](args.seed, workdir)
        kernel = None if args.trace else Kernel(workload.streaming)
        result = run(workload, args.seconds, bool(args.trace), workdir, kernel)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"  raw setup time     median={raw_setup_s:.6g} s over {SETUP_RUNS} interpreters")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
