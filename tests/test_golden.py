"""Each shipped config's stdout, exit code and (for oracle_tiny) report.txt
against the references that tests/golden_outputs.py wrote, byte for byte."""

import pytest

from golden_outputs import CONFIGS, GOLDEN, outputs


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_equal_the_references(name, tmp_path):
    for file_name, text in outputs(name, tmp_path / name).items():
        assert text == (GOLDEN / file_name).read_text(), file_name
