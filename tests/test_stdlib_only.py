"""The package runs on the standard library alone: importing it and running a
full verify, exact and float, loads no module from outside it."""

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


def test_verify_loads_only_the_standard_library():
    src = Path(jordan_osc.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                            env={"PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
