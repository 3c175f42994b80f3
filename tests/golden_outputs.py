"""Golden outputs of the shipped configs.

``PYTHONPATH=src python tests/golden_outputs.py`` rewrites the references in
tests/golden/, and tests/test_golden.py compares fresh runs with them byte
for byte.  For each config in configs/ the reference is the stdout of
``twopointwave run`` less its ``artifacts in`` line, followed by a line
``exit <code>``; for the configs in REPORTS it is also their report.txt.
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


def outputs(name: str, outdir: Path) -> dict[str, str]:
    """The reference files of config ``name``, by file name, from one run
    that writes its artifacts to ``outdir``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["run", str(ROOT / "configs" / f"{name}.cfg"), "--outdir", str(outdir)])
    lines = [line for line in buf.getvalue().splitlines(keepends=True)
             if not line.startswith("artifacts in ")]
    files = {f"{name}.stdout": "".join(lines) + f"exit {code}\n"}
    if name in REPORTS:
        files[f"{name}.report.txt"] = (outdir / "report.txt").read_text()
    return files


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            for file_name, text in outputs(config, Path(tmp) / config).items():
                (GOLDEN / file_name).write_text(text)
