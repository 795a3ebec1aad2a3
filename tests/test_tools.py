"""The shipped relation catalogs are exactly what tools/gen_relations.py writes,
every call boundary the benchmark traces still exists, the benchmark's
coefficient metrics see coefficients, tools/count_lines.py counts every
module of the package, and the README's library tour runs."""

import importlib.util
import re
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


def test_readme_library_tour_runs():
    # the python block under "## Library tour", run as written
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].split("\n## ", 1)[0]
    [tour] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(tour, str(README), "exec"), {})
