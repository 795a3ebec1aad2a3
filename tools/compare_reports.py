#!/usr/bin/env python3
"""Compare the verify reports of two source checkouts at a fixed list of points.

At each point of POINTS it runs `python3 -m jordan_osc.cli verify ...
--format json` once with each checkout's src/ on PYTHONPATH, and prints the
lines of tools/diff_reports.py's diff of the two reports, each prefixed by the
point's flags. The exit codes are diff_reports.py's, over all points: 1 if
an id or a status differs somewhere (with --strict, if any line is printed),
0 otherwise. A verify that exits 1 (a check failed) still writes its report;
any other nonzero exit, or an output that is no report, is one `error:` line,
and exit 2.

The points: exact (1, 1/2) at nmax 16 and 24, exact (3/2, 2/3) at nmax 12,
float (0.79, 0.23), (1, 0.25), (3, 1) and (100, 1) at nmax 24, float
(1e-10, 1e-11) at nmax 12, all suites; the irrep suite alone at exact (1, 1/2)
nmax 16, float (0.79, 0.23) nmax 24 and exact (3/2, 2/3) nmax 12, and the
actions suite alone at exact (3/2, 2/3) nmax 12 and float (0.79, 0.23) nmax
24, selections where the raising, lowering and mirrored irrep verdicts decide
alone; and the exact-sweep benchmark's 12 seed-5 points (perfbench/run.py)
with its suites and cutoff.

Run from anywhere:  python tools/compare_reports.py [--strict] OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_reports = _load("diff_reports", REPO / "tools" / "diff_reports.py")
bench = _load("perfbench_run", REPO / "perfbench" / "run.py")


def _exact(p: str, q: str, nmax: int, suites: str = "all") -> list[str]:
    return ["--mode", "exact", "--p", p, "--q", q, "--nmax", str(nmax), "--suites", suites]


def _float(a: str, b: str, nmax: int, suites: str = "all") -> list[str]:
    return ["--mode", "float", "--a", a, "--b", b, "--nmax", str(nmax), "--suites", suites]


#: the verify flags of each point, apart from --format
POINTS = [
    _exact("1", "1/2", 16), _exact("1", "1/2", 24), _exact("3/2", "2/3", 12),
    *(_float(a, b, 24) for a, b in (("0.79", "0.23"), ("1", "0.25"), ("3", "1"), ("100", "1"))),
    _float("1e-10", "1e-11", 12),
    _exact("1", "1/2", 16, "irrep"), _float("0.79", "0.23", 24, "irrep"), _exact("3/2", "2/3", 12, "irrep"),
    _exact("3/2", "2/3", 12, "actions"), _float("0.79", "0.23", 24, "actions"),
    *(_exact(point["p"], point["q"], bench.SWEEP_NMAX, ",".join(bench.SWEEP_SUITES))
      for point in bench.sweep_points(5, bench.SWEEP_POINTS)),
]


def verify(root: pathlib.Path, flags: list[str]) -> dict[str, dict] | str:
    """id -> report entry of the checkout's verify at ``flags``, or why there is no report."""
    proc = subprocess.run([sys.executable, "-m", "jordan_osc.cli", "verify", *flags, "--format", "json"],
                          cwd=root, env={"PYTHONPATH": str(root / "src")}, capture_output=True, text=True)
    why = f"verify in {root} exited {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    if proc.returncode not in (0, 1):
        return why
    try:
        return {entry["id"]: entry for entry in json.loads(proc.stdout)["suites"]}
    except (ValueError, KeyError, TypeError):  # no report, as where the checkout has no package
        return why


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    strict = args[:1] == ["--strict"]
    args = args[strict:]
    if len(args) != 2:
        print("usage: compare_reports.py [--strict] OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    roots = [pathlib.Path(arg).resolve() for arg in args]
    differ = False
    for flags in POINTS:
        label = " ".join(flags)
        reports = [verify(root, flags) for root in roots]
        for report in reports:
            if isinstance(report, str):
                print(f"error: {label}: {report}", file=sys.stderr)
                return 2
        lines, verdicts_differ = diff_reports.diff(*reports)
        for line in lines:
            print(f"{label}: {line}")
        differ |= verdicts_differ or (strict and bool(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
