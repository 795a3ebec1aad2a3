"""The shipped relation catalogs are exactly what tools/gen_relations.py writes,
every call boundary the benchmark traces still exists, the benchmark's
coefficient metrics see coefficients, tools/count_lines.py counts every
module of the package, tools/diff_reports.py flags what moved between two
reports, tools/compare_reports.py between two checkouts, tools/bench_log.py appends a benchmark run to its log and prints
its counts beside its metrics, and the README's library tour runs."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from jordan_osc import Params, model

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "tools" / "gen_relations.py"
COUNTER = ROOT / "tools" / "count_lines.py"
DIFF_REPORTS = ROOT / "tools" / "diff_reports.py"
COMPARE_REPORTS = ROOT / "tools" / "compare_reports.py"
BENCH_LOG = ROOT / "tools" / "bench_log.py"
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["relations_v1.txt", "negative_controls_v1.txt"])
def test_generator_reproduces_shipped_catalog(tmp_path, monkeypatch, capsys, name):
    gen = _load("gen_relations", GENERATOR)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    shipped = resources.files("jordan_osc").joinpath("data", name).read_bytes()
    assert (tmp_path / name).read_bytes() == shipped


def test_benchmark_traces_only_existing_boundaries():
    # a boundary the code no longer has reads 0 in the benchmark instead of failing it
    tracing = _load("perfbench_tracing", TRACING)
    build_psi = model.build_psi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert model.build_psi is not build_psi
    finally:
        tracer.uninstall()
    assert model.build_psi is build_psi


def test_benchmark_coefficient_metrics_read_coefficients():
    # the traced image size and coefficient bits, and the coefficient-multiply
    # probe, read .terms: it must keep yielding Fractions, or they read 0
    tracing = _load("perfbench_tracing", TRACING)
    P = Params.exact(1, Fraction(1, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model.apply(P, model.make_operator(P, "H"), model.build_psi(P, 3, 1))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["weyl.image_terms_max"] > 0 and metrics["weyl.coeff_bits_max"] > 0
    terms = model.build_psi(P, 16, 8).poly.terms
    assert terms and all(type(c) is Fraction for c in terms.values())


def test_line_count_totals_every_module():
    out = subprocess.run([sys.executable, str(COUNTER)], capture_output=True, text=True, check=True).stdout
    *modules, total = [line.rsplit(" ", 1) for line in out.splitlines()]
    package = ROOT / "src" / "jordan_osc"
    assert [name for name, _ in modules] == sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py"))
    assert all(int(n) > 0 for _, n in modules)
    assert total == ["total", str(sum(int(n) for _, n in modules))]


def test_diff_reports_flags_ids_and_statuses(tmp_path):
    def entry(rid, status="pass", residual="0", anchor="x", ms=1.0):
        return {"id": rid, "anchor": anchor, "status": status, "residual": residual, "ms": ms}

    def run(old, new, *flags):
        paths = []
        for name, entries in (("old.json", old), ("new.json", new)):
            (tmp_path / name).write_text(json.dumps({"mode": "exact", "suites": entries}))
            paths.append(str(tmp_path / name))
        proc = subprocess.run([sys.executable, str(DIFF_REPORTS), *flags, *paths], capture_output=True, text=True)
        return proc.returncode, proc.stdout.splitlines()

    old = [entry("a"), entry("b", residual="1e-16")]
    # only the timings moved: identical, even under --strict
    timed = [entry("a", ms=9.0), entry("b", residual="1e-16", ms=0.1)]
    assert run(old, timed) == run(old, timed, "--strict") == (0, [])
    # a residual and an anchor moved, no verdict did; --strict fails on either
    moved = ["a: anchor 'x' -> 'y'", "b: residual '1e-16' -> '2e-16'"]
    assert run(old, [entry("a", anchor="y"), entry("b", residual="2e-16")]) == (0, moved)
    assert run(old, [entry("a", anchor="y"), entry("b", residual="2e-16")], "--strict") == (1, moved)
    assert run(old, [entry("a"), entry("b", residual="2e-16")], "--strict") == (1, moved[1:])
    assert run(old, [entry("a", anchor="y"), entry("b", residual="1e-16")], "--strict") == (1, moved[:1])
    # a verdict flipped
    assert run(old, [entry("a"), entry("b", status="fail", residual="1e-16")]) == (
        1, ["b: status 'pass' -> 'fail'"])
    # a check vanished and another appeared
    assert run(old, [entry("a"), entry("c", residual="1e-16")]) == (1, ["b: only in old", "c: only in new"])
    # the same ids in another order: no verdict changed, so only --strict fails
    reordered = ["the same ids in a different order"]
    assert run(old, old[::-1]) == (0, reordered)
    assert run(old, old[::-1], "--strict") == (1, reordered)


def test_diff_reports_compares_how_where_both_reports_carry_it(tmp_path):
    def run(old, new):
        paths = []
        for name, entries in (("old.json", old), ("new.json", new)):
            (tmp_path / name).write_text(json.dumps({"mode": "exact", "suites": entries}))
            paths.append(str(tmp_path / name))
        proc = subprocess.run([sys.executable, str(DIFF_REPORTS), "--strict", *paths], capture_output=True, text=True)
        return proc.returncode, proc.stdout.splitlines()

    entry = {"id": "irrep.J+.sq", "anchor": "x", "status": "pass", "residual": "0", "ms": 1.0}
    # a report from before the field compares with one that carries it
    assert run([entry], [{**entry, "how": "proven"}]) == (0, [])
    # a changed how is no verdict: only --strict fails on it
    assert run([{**entry, "how": "read"}], [{**entry, "how": "proven"}]) == (
        1, ["irrep.J+.sq: how 'read' -> 'proven'"])


@pytest.mark.parametrize("content", [None, "", "not json", '{"mode": "exact"}', "[1, 2]"],
                         ids=["missing", "empty", "not-json", "no-suites", "not-a-report"])
def test_diff_reports_exits_two_on_unreadable_report(tmp_path, content):
    # exit 1 would read as "verdicts differ"; a float-range exit 2 of verify
    # leaves an empty --out file
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"mode": "exact", "suites": []}))
    if content is not None:
        bad.write_text(content)
    for paths in ((good, bad), (bad, good)):
        proc = subprocess.run([sys.executable, str(DIFF_REPORTS), "--strict", *map(str, paths)],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read report {bad}") and proc.stderr.count("\n") == 1


def test_compare_reports_runs_each_checkout(tmp_path, monkeypatch, capsys):
    compare = _load("compare_reports", COMPARE_REPORTS)
    point = ["--mode", "exact", "--p", "3/2", "--q", "2/3", "--nmax", "3", "--suites", "actions"]
    monkeypatch.setattr(compare, "POINTS", [point])
    assert compare.main(["--strict", str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == ""
    # a copy whose J+ rule has its literal doubled: the verdict moves, and the
    # rule is refuted, read where it was derived
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "src" / "jordan_osc" / "verifier.py"
    text = module.read_text(encoding="utf-8")
    assert text.count('"J+ psi = 1 (n-m)') == 1
    module.write_text(text.replace('"J+ psi = 1 (n-m)', '"J+ psi = 2 (n-m)'), encoding="utf-8")
    assert compare.main([str(ROOT), str(copy)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith(" ".join(point) + ": action.J+: ") for line in lines)
    assert lines[1].endswith("status 'pass' -> 'fail'") and lines[2].endswith("residual '0' -> '1/2'")
    assert lines[3].endswith("how 'derived' -> 'refuted'")
    # a checkout with no package writes no report
    assert compare.main([str(ROOT), str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {' '.join(point)}: verify in {tmp_path} exited 1") and err.count("\n") == 1


def test_bench_log_appends_one_run(tmp_path, monkeypatch, capsys):
    bench_log = _load("bench_log", BENCH_LOG)
    monkeypatch.setattr(bench_log, "OUT", tmp_path)
    log = tmp_path / "BENCH_exact-n16.json"
    log.write_text('[\n{"commit": "earlier", "info": {}, "result": {}}\n]\n')
    argv = ["--workload", "exact-n16", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"]
    assert bench_log.main(argv) == 0
    earlier, entry = json.loads(log.read_text())
    assert earlier["commit"] == "earlier" and list(entry) == ["commit", "info", "result"]
    assert entry["commit"].startswith(entry["info"]["commit"]) and entry["info"]["workload"] == "exact-n16"
    assert entry["result"]["correct"] and entry["result"]["metrics"]["checks_run"]["value"] == 202
    # a run that fails appends nothing and passes its exit code on
    assert bench_log.main(["--workload", "exact-n16", "--seed", "one"]) == 2
    assert len(json.loads(log.read_text())) == 2


def test_bench_log_keeps_the_log_when_a_write_fails(tmp_path, monkeypatch):
    # a write that stops half way, as a full disk or a kill leaves it, fails
    # the run and leaves the whole earlier log, with no temporary file beside it
    bench_log = _load("bench_log", BENCH_LOG)
    monkeypatch.setattr(bench_log, "OUT", tmp_path)
    log = tmp_path / "BENCH_exact-n16.json"
    earlier = '[\n{"commit": "earlier", "info": {}, "result": {}}\n]\n'
    log.write_text(earlier)
    write_text = Path.write_text

    def interrupted(self, text, *args, **kwargs):
        write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", interrupted)
    with pytest.raises(OSError, match="No space left"):
        bench_log.main(["--workload", "exact-n16", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"])
    assert log.read_text() == earlier and list(tmp_path.iterdir()) == [log]


def test_bench_log_prints_attempted_and_executions(tmp_path, monkeypatch, capsys):
    # the harness's memory follows the execution count, so the printed line
    # names the counts beside the metrics, as the appended entry holds them
    bench_log = _load("bench_log", BENCH_LOG)
    monkeypatch.setattr(bench_log, "OUT", tmp_path)
    argv = ["--workload", "exact-sweep", "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny"]
    assert bench_log.main(argv) == 0
    [entry] = json.loads((tmp_path / "BENCH_exact-sweep.json").read_text())
    line = capsys.readouterr().out.strip()
    assert line.endswith(f" attempted={entry['result']['attempted']} executions={entry['info']['executions']}")
    assert f" peak_rss_mb={entry['result']['metrics']['peak_rss_mb']['value']} " in line
    assert entry["result"]["attempted"] >= entry["info"]["executions"] >= 1


def test_bench_log_measures_the_checkout_uncompiled(tmp_path, monkeypatch):
    # a checkout's bytecode caches are deleted, and with bytecode writes left
    # on here, no timed process writes one: each compiles the package anew
    bench_log = _load("bench_log", BENCH_LOG)
    monkeypatch.setattr(bench_log, "OUT", tmp_path)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    root = tmp_path / "checkout"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    assert list((root / "src").rglob("*.pyc"))
    assert bench_log.main(["--root", str(root), "--workload", "exact-n16", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--tiny"]) == 0
    assert not list(root.rglob("__pycache__"))


def test_readme_library_tour_runs():
    # the python block under "## Library tour", run as written
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].split("\n## ", 1)[0]
    [tour] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(tour, str(README), "exec"), {})
