"""The package runs on the standard library alone: importing it and running a
full verify, exact and float, loads no module from outside it. Importing it
loads no standard-library module that no verdict needs: not dataclasses (nor
the inspect it loads), nor csv, which only ``--format csv`` imports."""

import subprocess
import sys
from pathlib import Path

import jordan_osc

SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)  # whatever site and the interpreter loaded first
import jordan_osc, jordan_osc.cli
for argv in (["verify", "--suites", "all", "--nmax", "4"],
             ["verify", "--mode", "float", "--suites", "all", "--nmax", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert jordan_osc.cli.main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"jordan_osc"})))
"""

STARTUP = """
import contextlib, io, sys
before = set(sys.modules)  # whatever site and the interpreter loaded first
import jordan_osc, jordan_osc.cli
print(" ".join(sorted({"dataclasses", "inspect", "csv"} & (set(sys.modules) - before))))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert jordan_osc.cli.main(["verify", "--format", "csv", "--nmax", "2"]) == 0
print(out.getvalue(), end="")
"""


def _run(script: str) -> list[str]:
    src = Path(jordan_osc.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={"PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_verify_loads_only_the_standard_library():
    assert _run(SCRIPT)[0].split() == []


def test_import_loads_no_dataclasses_inspect_or_csv():
    unneeded, header, *rows = _run(STARTUP)
    assert unneeded == ""
    # the CSV writer, imported on first use, still writes a row per check
    assert header == "id,anchor,status,residual,ms" and len(rows) == 202
    assert all(row.split(",")[0] for row in rows) and rows[-1].startswith("integrals.oracle,")
