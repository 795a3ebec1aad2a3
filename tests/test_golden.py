"""Reports against recorded ones: a refactor of the verifier must leave every
id, anchor, status and residual as it was (only the timings may move).

The golden_*.json files under tests/data hold `jordan-osc verify --suites all
--nmax 6 --format json` with "ms" dropped, at the exact reference point p = 1,
q = 1/2 and in float mode at a = 0.79, b = 0.23; float residuals are compared
as recorded, so a rewrite of a float kernel must round as the old one did. The golden_*.txt files hold the exact `basis` and `matrices` output
at the default point, and `basis --p 3/2 --q 2/3 --n 6 --m 3`, where a and b
have different denominators. golden_catalog_p3_2_q2_3.json holds every catalog
operator and its conjugation through the envelope at that point, exact terms
in sorted order: the `explicit.*` checks build both of their sides with the
same `+` and `*`, so only a recorded value catches a wrong sum or product.
"""

import json
from pathlib import Path

import pytest

from jordan_osc import model
from jordan_osc.cli import main

DATA = Path(__file__).parent / "data"


def _run(capsys, argv):
    """The report of a verify run with the given point flags, "ms" dropped."""
    assert main(["verify", "--suites", "all", "--nmax", "6", "--format", "json"] + argv) == 0
    payload = json.loads(capsys.readouterr().out)
    for entry in payload["suites"]:
        assert entry.pop("ms") >= 0
    return payload


def test_exact_report_matches_recorded(capsys):
    recorded = json.loads((DATA / "golden_exact_n6.json").read_text())
    assert _run(capsys, ["--p", "1", "--q", "1/2"]) == recorded


def test_float_statuses_match_recorded(capsys):
    # ids, anchors, statuses and every residual string
    recorded = json.loads((DATA / "golden_float_n6.json").read_text())
    assert _run(capsys, ["--mode", "float", "--a", "0.79", "--b", "0.23"]) == recorded


@pytest.mark.parametrize("argv, recorded", [
    (["basis", "--n", "5", "--m", "2"], "golden_basis_n5_m2.txt"),
    (["matrices", "--n", "3"], "golden_matrices_n3.txt"),
    (["basis", "--p", "3/2", "--q", "2/3", "--n", "6", "--m", "3"], "golden_basis_p3_2_q2_3_n6_m3.txt"),
])
def test_cli_text_matches_recorded(capsys, argv, recorded):
    # exact coefficients print as before, byte for byte
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / recorded).read_text()


def test_catalog_operators_match_recorded():
    recorded = json.loads((DATA / "golden_catalog_p3_2_q2_3.json").read_text())
    params = model.Params.exact("3/2", "2/3")

    def rows(op):
        return {" ".join(map(str, key)): str(c) for key, c in op.sorted_terms()}

    assert list(recorded) == list(model.CATALOG_NAMES)
    for name, entry in recorded.items():
        op = model.make_operator(params, name)
        assert rows(op) == entry["operator"], name
        assert rows(model.conjugate_through_envelope(params, op)) == entry["conjugated"], name
