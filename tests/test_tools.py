"""The shipped relation catalogs are exactly what tools/gen_relations.py writes."""

import importlib.util
from importlib import resources
from pathlib import Path

import pytest

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "gen_relations.py"


@pytest.mark.parametrize("name", ["relations_v1.txt", "negative_controls_v1.txt"])
def test_generator_reproduces_shipped_catalog(tmp_path, monkeypatch, capsys, name):
    spec = importlib.util.spec_from_file_location("gen_relations", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    shipped = resources.files("jordan_osc").joinpath("data", name).read_bytes()
    assert (tmp_path / name).read_bytes() == shipped
