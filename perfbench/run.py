"""Benchmark of the jordan-osc verifier.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact-n16 --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller that waits for each verdict; every
execution is a fresh process, so the program's caches start cold, as they do
for each ``jordan-osc verify`` a user runs):

* ``exact-n16``   -- ``jordan-osc verify --mode exact --p 1 --q 1/2 --nmax 16
  --suites all --format json``: per-(n, m) operator application dominates.
* ``float-n24``   -- ``jordan-osc verify --mode float --a 0.79 --b 0.23
  --nmax 24 --suites all --format json``: the float path at the largest
  cutoff the CLI accepts, at a point where float verdicts are known to be
  wrong, so that fixing them shows.
* ``exact-sweep`` -- one process calls ``run_suites`` for the structure,
  pseudo and integrals suites at nmax 8 over distinct random admissible exact
  points drawn from ``--seed``: pairing, catalog composition and cache growth.

With ``--trace 0`` the run prints the end-to-end metrics, measured with no
tracing. Executions repeat while the next one is expected to end within
``--seconds`` (at least one); ``verify_s`` is their median, in seconds of a
reference core (see worker.py). ``setup_s`` is the median over several
import-only processes of their set-up time divided by the start-up time of a
reference process run right after each (``REFERENCE_STARTUP``), times
``REFERENCE_STARTUP_S``. With ``--trace 1`` it makes one untraced and one
traced execution and prints the per-layer metrics listed in BENCHMARK.json.
Either way it runs the negative controls at every parameter point, checks
that repeated and traced executions give the same verdicts, prints one
``{"info": ...}`` line (versions, commit, seed, points, raw samples) and then
the result object as its last line.

``--tiny`` shrinks every workload to nmax 2 and one sweep point, for the
self-test in ``test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every run must end well within 180 s
SWEEP_POINTS = 12
SWEEP_NMAX = 8
SWEEP_SUITES = ["structure", "pseudo", "integrals"]

# Set-up time is measured against a reference start-up, paired probe by probe:
# a process that imports what the package imported when this benchmark was
# written (the standard-library modules it uses, and numpy) but none of its
# own modules. Cold-import speed on a shared host drifts by tens of percent
# over minutes, and the hot loop that scales verify_s does not follow it.
REFERENCE_STARTUP = (
    "import argparse, csv, dataclasses, fractions, functools, importlib.resources, io, json, math, re, typing, numpy"
)
REFERENCE_STARTUP_S = 0.15

REFERENCE_POINT = {"mode": "exact", "p": "1", "q": "1/2"}
FLOAT_POINT = {"mode": "float", "a": "0.79", "b": "0.23"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sweep_points(seed: int, count: int) -> list[dict]:
    """Distinct admissible exact points, p = randint(3,12)/randint(2,5) and
    q = p * randint(1,3)/randint(4,7), so that a = p^2 > b = q^2 > 0."""
    rng = random.Random(seed)
    points: list[dict] = []
    while len(points) < count:
        p = Fraction(rng.randint(3, 12), rng.randint(2, 5))
        q = p * Fraction(rng.randint(1, 3), rng.randint(4, 7))
        point = {"mode": "exact", "p": str(p), "q": str(q)}
        if point not in points:
            points.append(point)
    return points


def cli_job(point: dict, nmax: int) -> dict:
    flags = ["--p", point["p"], "--q", point["q"]] if point["mode"] == "exact" else ["--a", point["a"], "--b", point["b"]]
    argv = ["verify", "--mode", point["mode"], *flags, "--nmax", str(nmax), "--suites", "all", "--format", "json"]
    return {"kind": "cli", "argv": argv, "points": [point], "probe_point": point}


def make_job(workload: str, seed: int, tiny: bool) -> dict:
    if workload == "exact-n16":
        return cli_job(REFERENCE_POINT, 2 if tiny else 16)
    if workload == "float-n24":
        return cli_job(FLOAT_POINT, 2 if tiny else 24)
    return {
        "kind": "sweep",
        "points": sweep_points(seed, 1 if tiny else SWEEP_POINTS),
        "suites": SWEEP_SUITES,
        "nmax": 2 if tiny else SWEEP_NMAX,
        "probe_point": REFERENCE_POINT,
    }


WORKLOADS = ("exact-n16", "float-n24", "exact-sweep")


class WorkerError(RuntimeError):
    pass


def spawn(root: Path, job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    timeout = deadline - clock()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    job = dict(job, spawned=clock())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no result:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from exc


def reference_startup(deadline: float) -> float:
    """Wall time of one REFERENCE_STARTUP process, spawn to exit."""
    start = clock()
    try:
        subprocess.run([sys.executable, "-c", REFERENCE_STARTUP], capture_output=True, check=True, timeout=deadline - start)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise WorkerError(f"reference start-up failed: {exc}") from exc
    return clock() - start


def call_integrity(job: dict, result: dict) -> list[str]:
    """Problems with the shape of one execution's reports (empty report,
    duplicate ids, a CLI exit code that disagrees with the verdicts)."""
    problems = []
    for verdicts in result["calls"]:
        ids = [rid for rid, _ in verdicts]
        if not ids:
            problems.append("empty report")
        if len(ids) != len(set(ids)):
            problems.append("duplicate check ids")
    if job["kind"] == "cli":
        want = [0 if all(ok for _, ok in verdicts) else 1 for verdicts in result["calls"]]
        if result["exit_codes"] != want:
            problems.append(f"exit codes {result['exit_codes']} disagree with verdicts")
    if len(result["calls"]) != len(job["points"]):
        problems.append("one report per point expected")
    return problems


def verdict_counts(result: dict) -> tuple[int, int, int]:
    """(checks reported, wrong verdicts, all verdicts) of one execution.

    Every catalog claim is true, so a positive check that fails is a wrong
    verdict, and so is a negative control that passes."""
    checks = sum(len(verdicts) for verdicts in result["calls"])
    wrong = sum(1 for verdicts in result["calls"] for _, ok in verdicts if not ok)
    wrong += sum(len(missed) for missed in result["control_misses"])
    total = checks + result["controls"] * len(result["control_misses"])
    return checks, wrong, total


def slope(ys: list[float]) -> float:
    """Least-squares slope of ys against their index; 0 for fewer than 2."""
    n = len(ys)
    if n < 2:
        return 0.0
    mx = (n - 1) / 2
    my = sum(ys) / n
    return sum((i - mx) * (y - my) for i, y in enumerate(ys)) / sum((i - mx) ** 2 for i in range(n))


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(root: Path, job: dict, seconds: int, trace: bool) -> dict:
    """Run the executions of one benchmark run and return the raw results."""
    deadline = clock() + RUN_LIMIT_S
    probes, references = [], []
    for _ in range(SETUP_PROBES):
        probes.append(spawn(root, {"kind": "probe"}, deadline)["setup_s"])
        references.append(reference_startup(deadline))
    plain = []
    start = clock()
    while True:
        plain.append(spawn(root, dict(job, trace=False), deadline))
        elapsed = clock() - start
        if trace or elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    traced = spawn(root, dict(job, trace=True), deadline) if trace else None
    return {"probes": probes, "references": references, "plain": plain, "traced": traced}


def summarize(job: dict, raw: dict, units: dict[str, str]) -> tuple[dict, dict]:
    """Result object (correct/attempted/failed/metrics) and the info record."""
    plain, traced = raw["plain"], raw["traced"]
    executions = plain + ([traced] if traced else [])
    reference = plain[0]["calls"]
    found = [call_integrity(job, result) for result in executions]
    problems = sorted({p for each in found for p in each})
    differing = sum(1 for result in executions if result["calls"] != reference)
    misses = sorted({rid for result in executions for missed in result["control_misses"] for rid in missed})
    checks, wrong, total = verdict_counts(plain[0])

    attempted = sum(len(r["calls"]) + r["controls"] * len(r["control_misses"]) for r in executions)
    failed = sum(len(result["calls"]) for result, each in zip(executions, found) if each)
    correct = not problems and not differing and not misses

    def samples(key: str, results: list[dict]) -> list[float]:
        return [result[key] for result in results]

    verify = samples("verify_s", plain)
    if traced is None:
        ratios = [probe / ref for probe, ref in zip(raw["probes"], raw["references"])]
        values = {
            "setup_s": statistics.median(ratios) * REFERENCE_STARTUP_S,
            "verify_s": statistics.median(verify),
            "peak_rss_mb": statistics.median(samples("peak_rss_mb", plain)),
            "verdicts_right_frac": 1 - wrong / total,
            "checks_run": checks / len(reference),
        }
    else:
        values = dict(traced["layers"])
        values["process.rss_growth_mb_per_point"] = statistics.median(
            slope(result["rss_after_point_mb"]) for result in plain
        )
        values["trace.overhead_frac"] = traced["verify_s"] / statistics.median(verify) - 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    info = {
        "executions": len(plain),
        "samples": {
            "setup_probe_s": raw["probes"],
            "reference_startup_s": raw["references"],
            "execution_setup_s": samples("setup_s", plain),
            "verify_s": verify,
            "verify_wall_s": samples("verify_wall_s", plain),
            "speed_samples": samples("speed_samples", plain),
            "peak_rss_mb": samples("peak_rss_mb", plain),
        },
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "wrong_verdicts": sorted({rid for verdicts in reference for rid, ok in verdicts if not ok}),
        "negative_controls_passed": misses,
        "integrity_problems": problems,
        "executions_with_other_verdicts": differing,
        "absent_boundaries": traced["absent"] if traced else [],
    }
    if traced is not None:
        info["traced_verify_wall_s"] = traced["verify_wall_s"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="nmax 2 and one sweep point (self-test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jordan_osc" / "__init__.py").is_file():
        print(f"error: {root} holds no jordan-osc source tree (src/jordan_osc)", file=sys.stderr)
        return 2
    job = make_job(args.workload, args.seed, args.tiny)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        raw = measure(root, job, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, info = summarize(job, raw, units)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "points": job["points"],
        **info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
