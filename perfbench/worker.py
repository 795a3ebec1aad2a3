"""One workload execution in a fresh process.

Usage: python3 perfbench/worker.py '<job json>'

The parent (run.py) builds the job and passes the CLOCK_MONOTONIC time at
which it spawned this process, so set-up time covers interpreter start and
the package import. The worker prints one JSON object on its last stdout line.

Job kinds:

* ``probe``  -- import the package and stop (a set-up sample),
* ``cli``    -- one ``jordan-osc`` command line, run in-process through
  ``jordan_osc.cli.main`` with stdout captured,
* ``sweep``  -- ``run_suites`` at each listed exact point, one after another
  in this process, with the peak RSS after each point.

After the timed part the worker runs the negative controls at every point,
and a traced job also times the fixed coefficient-multiply probe.

Machine speed: on a shared virtual machine the speed of a core can drift by
tens of percent within seconds, and CPU time drifts with wall time, so raw
wall times of identical runs spread too widely to compare commits. During the timed part a SIGALRM
handler runs a fixed pure-Python loop (``calibrate``) every
``SAMPLE_INTERVAL_S``; ``verify_s`` is the wall time, minus the time spent in
the loop, scaled to a core on which the loop takes ``CALIB_REF_S``
(``reference_seconds``). The raw
wall time is reported as ``verify_wall_s``. Set-up time is raw wall time: it
is mostly imports, whose speed follows the loop's only loosely.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import timeit
from fractions import Fraction

CALIB_ITERATIONS = 200
CALIB_REF_S = 0.001
SAMPLE_INTERVAL_S = 0.05
FALLBACK_CALIBRATIONS = 5  # when the timed part ends before the first sample


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Duration of a fixed loop of exact-rational and dict work, the same
    kind of work the verifier does."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        x = Fraction(3, 7)
        acc = Fraction(0)
        table = {}
        for i in range(CALIB_ITERATIONS):
            acc += x * Fraction(i + 1, i + 2)
            table[i % 97] = acc
        return clock() - start
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedSampler:
    """Runs ``calibrate`` every SAMPLE_INTERVAL_S of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate())


def reference_seconds(wall: float, samples: list[float]) -> float:
    """Time the same work takes on the reference core. The samples are evenly
    spaced in wall time and the work done in each interval is proportional to
    the speed 1/sample, hence the mean of the inverses."""
    return wall * CALIB_REF_S * statistics.fmean(1 / c for c in samples)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def make_params(jordan_osc, point: dict):
    if point["mode"] == "exact":
        return jordan_osc.Params.exact(Fraction(point["p"]), Fraction(point["q"]))
    return jordan_osc.Params.from_ab(float(point["a"]), float(point["b"]))


def negative_control_misses(jordan_osc, params, specs) -> list[str]:
    """Ids of negative controls that the verifier fails to reject at params."""
    return [spec.rel_id for spec in specs if jordan_osc.check_relation(params, spec).passed]


def coeff_mul_ns(jordan_osc, params) -> float:
    """Median time of one product of two stored coefficients of psi_{16,8}."""
    terms = jordan_osc.build_psi(params, 16, 8).poly.terms
    keys = sorted(terms)
    timer = timeit.Timer("x * y", globals={"x": terms[keys[0]], "y": terms[keys[-1]]})
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(repeat=7, number=number)) / number * 1e9


def run_cli(cli, argv: list[str]) -> tuple[list[list], int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    return [[entry["id"], entry["status"] == "pass"] for entry in report["suites"]], code


def main() -> int:
    job = json.loads(sys.argv[1])

    import jordan_osc
    import jordan_osc.cli

    setup_s = clock() - job["spawned"]
    if job["kind"] == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    points = [make_params(jordan_osc, pt) for pt in job["points"]]
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []  # one entry per verify call: list of [id, passed]
    codes = []
    rss_after_point = []
    with SpeedSampler() as sampler:
        start = clock()
        if job["kind"] == "cli":
            verdicts, code = run_cli(jordan_osc.cli, job["argv"])
            calls.append(verdicts)
            codes.append(code)
        else:
            for params in points:
                reports = jordan_osc.run_suites(params, job["suites"], job["nmax"])
                calls.append([[r.relation_id, r.passed] for r in reports])
                rss_after_point.append(peak_rss_mb())
        done = clock()
    peak = peak_rss_mb()
    samples = sampler.samples or [calibrate() for _ in range(FALLBACK_CALIBRATIONS)]
    verify_wall = done - start

    if tracer is not None:
        tracer.uninstall()
    specs = jordan_osc.load_negative_controls()
    misses = [negative_control_misses(jordan_osc, params, specs) for params in points]

    result = {
        "setup_s": setup_s,
        "verify_s": reference_seconds(verify_wall - sum(sampler.samples), samples),
        "verify_wall_s": verify_wall,
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": peak,
        "calls": calls,
        "exit_codes": codes,
        "controls": len(specs),
        "control_misses": misses,
        "rss_after_point_mb": rss_after_point,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else "absent",
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["weyl.coeff_mul_ns"] = coeff_mul_ns(jordan_osc, make_params(jordan_osc, job["probe_point"]))
        result["layers"] = layers
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
