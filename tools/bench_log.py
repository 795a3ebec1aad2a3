#!/usr/bin/env python3
"""Run the benchmark once and append its outcome to BENCH_<workload>.json.

Deletes the bytecode caches (__pycache__) under the src/ of a source
checkout (--root, default this repository) and runs the checkout's own
perfbench/run.py there with PYTHONDONTWRITEBYTECODE=1, passing every other
argument through: every timed process then compiles the package, as in a
fresh checkout, so its setup_s includes compiling. It appends
one entry {"commit", "info", "result"} to BENCH_<workload>.json at the root
of this repository: "info" and "result" are run.py's last two output lines,
and "commit" is the checkout's commit as run.py reads it, marked when the
checkout's src/ holds uncommitted changes. The file is a JSON list, one entry
per line in run order, so it keeps the performance trajectory across commits.
The file is rewritten through a sibling temporary file, replaced in one step,
so a write that stops half way leaves the log as it was.
It prints the run's metrics with its attempted operations and executions.
A failed run appends nothing and exits with run.py's code.

Run from anywhere:
    python tools/bench_log.py [--root DIR] --workload exact-n16 --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
OUT = REPO  # where the BENCH_<workload>.json files live


def uncommitted(root: pathlib.Path) -> bool:
    """Whether the git checkout at root has changes under src/ that no commit holds."""
    if not (root / ".git").exists():
        return False
    out = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True, text=True)
    return bool(out.stdout.strip())


def summary(info: dict, result: dict) -> str:
    """The run's metrics, then its attempted operations and executions: the
    harness's own memory grows with those counts, so an RSS move that only
    follows them shows beside it."""
    metrics = [f"{name}={m['value']}" for name, m in result["metrics"].items()]
    return " ".join([*metrics, f"attempted={result['attempted']}", f"executions={info['executions']}"])


def write_whole(path: pathlib.Path, text: str) -> None:
    """Write text to path through a sibling temporary file and os.replace, so that
    path holds either its old content or text, never a part of it."""
    temporary = path.with_name(f".{path.name}.partial")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO, help="the source checkout to measure")
    parser.add_argument("--workload", required=True)
    args, passed = parser.parse_known_args(sys.argv[1:] if argv is None else argv)
    root = args.root.resolve()
    for cache in list((root / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload, *passed],
                          cwd=root, capture_output=True, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    *_, info_line, result_line = proc.stdout.splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    commit = info["commit"] + (" (with uncommitted changes)" if uncommitted(root) else "")
    path = OUT / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append({"commit": commit, "info": info, "result": result})
    write_whole(path, "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"appended run {len(entries)} of {args.workload} at {commit} to {path}: {summary(info, result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
