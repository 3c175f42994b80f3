"""Golden outputs of the shipped configs and of a forced sweep.

``PYTHONPATH=src python tests/golden_outputs.py`` rewrites the references in
tests/golden/, and tests/test_golden.py compares fresh runs with them.  For
each config in configs/, and for the three-point ``boundary_exp`` sweep of
tests/golden/sweep_boundary_exp.cfg over SWEEP_VALUES, the references are:

- the stdout of the command less its ``artifacts in`` lines, followed by a
  line ``exit <code>``, compared byte for byte;
- for the configs in REPORTS their report.txt, byte for byte;
- energy.csv of the run (of each sweep point) decimated to every DECIMATE-th
  data row plus the last, compared column by column relative to the
  column's largest value (``ENERGY_RTOL``).

Rewriting a reference changes test data: say which outputs moved, and why.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from twopointwave.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("reference", "conservation_control", "manufactured_cosine", "oracle_tiny")
REPORTS = ("oracle_tiny",)
SWEEP = "sweep_boundary_exp"
SWEEP_VALUES = ("0.5", "1", "2")
DECIMATE = 100


def _decimated(csv: Path) -> str:
    """The header and every DECIMATE-th data row of ``csv``, plus its last."""
    header, *rows = csv.read_text().splitlines(keepends=True)
    kept = rows[::DECIMATE]
    if (len(rows) - 1) % DECIMATE:
        kept.append(rows[-1])
    return header + "".join(kept)


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    lines = [line for line in buf.getvalue().splitlines(keepends=True)
             if not line.startswith("artifacts in ")]
    return "".join(lines) + f"exit {code}\n"


def outputs(name: str, outdir: Path) -> dict[str, str]:
    """The reference files of config ``name`` (or of the sweep, SWEEP), by
    file name, from one command that writes its artifacts to ``outdir``."""
    if name == SWEEP:
        text = _stdout(["sweep", str(GOLDEN / f"{SWEEP}.cfg"), "--param", "forcing_amplitude",
                        "--values", *SWEEP_VALUES, "--outdir", str(outdir)])
        files = {f"{SWEEP}.stdout": text}
        for value in SWEEP_VALUES:
            point = f"forcing_amplitude_{value}"
            files[f"{SWEEP}.{point}.energy.csv"] = _decimated(outdir / point / "energy.csv")
        return files
    text = _stdout(["run", str(ROOT / "configs" / f"{name}.cfg"), "--outdir", str(outdir)])
    files = {f"{name}.stdout": text, f"{name}.energy.csv": _decimated(outdir / "energy.csv")}
    if name in REPORTS:
        files[f"{name}.report.txt"] = (outdir / "report.txt").read_text()
    return files


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS + (SWEEP,):
            for file_name, text in outputs(config, Path(tmp) / config).items():
                (GOLDEN / file_name).write_text(text)
