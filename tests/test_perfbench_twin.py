"""The benchmark's traced twin of each workload, run once next to the
operation it shadows: both must pass the workload's correctness gate and
give the same exit code and verdicts, so a twin that drifts from the
program fails here before it fails a benchmark run.  There is no timing
assertion."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules reference and tracing by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["reference_run", "converge_ladder", "oracle_tiny",
                                  "sweep_forced"])
def test_traced_twin_matches_the_operation(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    plain = workload.op(tmp_path / "plain")
    (tmp_path / "traced").mkdir()
    traced = workload.traced_op(workloads.Tracer(), [], tmp_path / "traced")
    assert workload.check(plain)[0] == []
    assert workload.check(traced)[0] == []
    assert (traced.code, traced.verdicts) == (plain.code, plain.verdicts)
