"""Each shipped config's and the forced sweep's stdout, exit code and (for
oracle_tiny) report.txt against the references that tests/golden_outputs.py
wrote, byte for byte, and their decimated energy.csv to roundoff."""

import io

import numpy as np
import pytest

from golden_outputs import CONFIGS, GOLDEN, SWEEP, outputs

# Each energy.csv column may move by this much relative to its largest value:
# ten times the largest roundoff change measured on these outputs, 6.1e-13
# (reference's X, when unforced runs first advanced by blocks of
# increments).  Advancing every dense run by lockstep blocks moved them by
# at most 3.3e-13 (reference's E).
ENERGY_RTOL = 10 * 6.1e-13


def assert_columns_close(got: str, want: str, file_name: str) -> None:
    assert got.splitlines()[0] == want.splitlines()[0], file_name
    got, want = (np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
                 for text in (got, want))
    assert got.shape == want.shape, file_name
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= ENERGY_RTOL * scale), file_name


@pytest.mark.parametrize("name", CONFIGS + (SWEEP,))
def test_outputs_equal_the_references(name, tmp_path):
    for file_name, text in outputs(name, tmp_path / name).items():
        want = (GOLDEN / file_name).read_text()
        if file_name.endswith(".energy.csv"):
            assert_columns_close(text, want, file_name)
        else:
            assert text == want, file_name
