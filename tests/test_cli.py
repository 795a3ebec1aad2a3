"""Command line behavior: exit codes, formats, round-trips, env defaults."""

import json
import math
import re
from fractions import Fraction

import pytest

import jordan_osc
from jordan_osc import DiffOp, cli, model, verifier
from jordan_osc.cli import (
    RunConfig,
    RunResult,
    emit_csv,
    emit_json,
    emit_text,
    main,
    parse_json,
)
from jordan_osc.verifier import Report, load_relations

F = Fraction


class TestRunConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        assert config.params().a == 1

    def test_exported_tolerance_is_the_tol_default(self):
        # one default tolerance: the package's is the one a float verdict uses
        assert jordan_osc.DEFAULT_TOL == RunConfig().tol == cli.build_parser().parse_args(["verify"]).tol == 1e-10

    def test_nmax_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(n_max=0)
        with pytest.raises(ValueError):
            RunConfig(n_max=25)
        RunConfig(n_max=24)

    def test_tol_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(tol=1e-3)
        RunConfig(tol=1e-4)

    def test_suites_validated(self):
        with pytest.raises(ValueError):
            RunConfig(suites=("structure", "nope"))
        with pytest.raises(ValueError):
            RunConfig(suites=())
        with pytest.raises(ValueError, match="twice"):
            RunConfig(suites=("structure", "pseudo", "structure"))

    def test_mode_needs_matching_params(self):
        with pytest.raises(ValueError):
            RunConfig(mode="float")  # no a, b given
        RunConfig(mode="float", a=1.0, b=0.25)

    def test_float_params(self):
        config = RunConfig(mode="float", a=2.0, b=0.5)
        assert config.params().mode == "float"
        assert config.params_repr() == {"a": 2.0, "b": 0.5, "p": math.sqrt(2.0), "q": math.sqrt(0.5)}


class TestVerifyCommand:
    def test_float_report_names_the_point_it_ran_at(self, capsys):
        # the run reads a and b as p = sqrt(a), q = sqrt(b), and p^2 need not be a
        argv = ["verify", "--mode", "float", "--a", "3", "--b", "1", "--suites", "pseudo"]
        assert main(argv + ["--format", "json"]) == 0
        point = json.loads(capsys.readouterr().out)["params"]
        assert point == {"a": 3.0, "b": 1.0, "p": 1.7320508075688772, "q": 1.0}
        assert point["p"] ** 2 == 2.9999999999999996
        assert main(argv) == 0
        assert "params={'a': 3.0, 'b': 1.0, 'p': 1.7320508075688772, 'q': 1.0}" in capsys.readouterr().out

    def test_exit_zero_on_pass(self, capsys):
        code = main(["verify", "--suites", "pseudo", "--nmax", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_exit_one_on_corrupted_catalog(self, tmp_path, capsys):
        specs = load_relations()[:5]
        lines = []
        for s in specs:
            rhs = "smul 8*a A+" if s.rel_id == "shape.H-Aplus" else s.rhs
            lines.append(f"{s.rel_id} | {s.kind} | {s.lhs} | {rhs}")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--suites", "structure", "--catalog", str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "shape.H-Aplus" in out

    def test_catalog_file_parsed_once(self, tmp_path, capsys, monkeypatch):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("shape.H-Aplus | commutator | comm H A+ | smul 4*a A+\n")
        calls = []
        parse = verifier.parse_relations
        monkeypatch.setattr(verifier, "parse_relations", lambda text: calls.append(text) or parse(text))
        assert main(["verify", "--suites", "structure", "--catalog", str(catalog)]) == 0
        assert len(calls) == 1
        assert "PASS  shape.H-Aplus" in capsys.readouterr().out

    def test_exit_two_on_bad_nmax(self, capsys):
        assert main(["verify", "--nmax", "0", "--suites", "pseudo"]) == 2
        assert "n_max" in capsys.readouterr().err

    def test_exit_two_on_bad_tol(self, capsys):
        assert main(["verify", "--tol", "1", "--suites", "pseudo"]) == 2

    def test_exit_two_on_bad_suite(self, capsys):
        assert main(["verify", "--suites", "bogus"]) == 2

    def test_exit_two_on_missing_catalog(self, capsys):
        assert main(["verify", "--catalog", "/nonexistent/x.txt"]) == 2

    def test_exit_two_on_repeated_suite(self, capsys):
        # each id of the suite would be reported twice
        assert main(["verify", "--suites", "pseudo,pseudo"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'pseudo'" in captured.err

    @pytest.mark.parametrize("rel_id", ["explicit.H", "pseudo.H", "action.K", "irrep.J0", "integrals.gram"])
    def test_exit_two_on_catalog_id_of_a_builtin_check(self, tmp_path, capsys, rel_id):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"shape.ok | identity | H | H\n{rel_id} | identity | H | H\n")
        assert main(["verify", "--suites", "structure", "--catalog", str(catalog)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert rel_id in captured.err

    @pytest.mark.parametrize("lhs, rhs, why", [
        ("comm A+ Foo", "0", "unknown operator 'Foo'"),
        ("comm A+ A- B+", "0", "trailing tokens"),
        ("0", "smul 1/0 A+", "nonzero denominator"),
    ])
    def test_exit_two_on_malformed_catalog_expression(self, tmp_path, capsys, lhs, rhs, why):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"shape.ok | identity | H | H\nshape.bad | commutator | {lhs} | {rhs}\n")
        assert main(["verify", "--suites", "structure", "--catalog", str(catalog)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: catalog line 2: ") and captured.err.count("\n") == 1
        assert why in captured.err

    def test_exit_two_on_unknown_catalog_kind(self, tmp_path, capsys):
        # a true relation under a kind outside the grammar is still rejected
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("shape.ok | identity | H | H\nx.one | bogus-kind | comm H A+ | smul 4*a A+\n")
        assert main(["verify", "--suites", "structure", "--catalog", str(catalog)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: catalog line 2: unknown kind 'bogus-kind'")
        assert captured.err.count("\n") == 1

    def test_exit_two_on_unwritable_out_before_any_suite_runs(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_suites", lambda *args: runs.append(args) or [])
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", "--nmax", "2", "--suites", "pseudo", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert runs == [] and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out.parent.exists()

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--suites", "pseudo", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"params", "mode", "n_max", "tol", "cutoffs", "suites"}
        assert payload["params"] == {"p": "1", "q": "1/2"}
        entry = payload["suites"][0]
        assert set(entry) == {"id", "anchor", "status", "residual", "how", "ms"}
        assert entry["status"] == "pass"
        assert isinstance(entry["residual"], str)

    def test_json_round_trip(self, capsys):
        code = main(["verify", "--suites", "pseudo", "--format", "json"])
        assert code == 0
        result = parse_json(capsys.readouterr().out)
        assert parse_json(emit_json(result)) == result

    def test_how_round_trips_and_prints_in_json_alone(self, capsys):
        argv = ["verify", "--suites", "structure,actions,pseudo", "--nmax", "3"]
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        hows = {entry["id"]: entry["how"] for entry in json.loads(out)["suites"]}
        assert (hows["gl2.J0-Jplus"], hows["action.J+"], hows["action.a1+"], hows["pseudo.H"]) == (
            "proven", "derived", "read", "read")
        result = parse_json(out)
        assert [r.how for r in result.reports] == list(hows.values()) and emit_json(result) == out
        # a report from before the field reads as read
        payload = json.loads(out)
        for entry in payload["suites"]:
            del entry["how"]
        assert {r.how for r in parse_json(json.dumps(payload)).reports} == {"read"}
        # text and CSV print no such field
        for fmt in ("text", "csv"):
            assert main(argv + ["--format", fmt]) == 0
            printed = capsys.readouterr().out
            assert "proven" not in printed and "derived" not in printed

    def test_a_refuted_entry_round_trips(self, capsys, monkeypatch):
        # J+ with literal -1 is refuted on the Fock module: its entries fail
        # with how "refuted", and read back as they were written
        monkeypatch.setattr(verifier, "ACTION_RULES", tuple(
            verifier.ActionRule(r.rule_id, r.anchor.replace("= 1 ", "= -1 "), r.irrep) if r.rule_id == "action.J+"
            else r for r in verifier.ACTION_RULES))
        assert main(["verify", "--suites", "actions,irrep", "--nmax", "2", "--format", "json"]) == 1
        out = capsys.readouterr().out
        entries = {entry["id"]: entry for entry in json.loads(out)["suites"] if entry["how"] == "refuted"}
        assert entries.keys() == {"action.J+", "irrep.J+.sq", "irrep.J+.float"}
        assert {entry["status"] for entry in entries.values()} == {"fail"}
        result = parse_json(out)
        assert {r.relation_id for r in result.reports if r.how == "refuted"} == entries.keys()
        assert emit_json(result) == out

    def test_cutoffs_reported_and_round_trip(self, capsys):
        argv = ["verify", "--suites", "pseudo,integrals", "--nmax", "16"]
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["n_max"] == 16
        assert payload["cutoffs"] == {"pseudo": None, "integrals": 8, "integrals.resolution": 5}
        assert payload["suites"][0]["id"] == "pseudo.H"
        result = parse_json(out)
        assert result.cutoffs == payload["cutoffs"] and emit_json(result) == out
        assert main(argv + ["--format", "text"]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert header == "cutoffs: pseudo=none integrals=8 integrals.resolution=5"

    def test_csv_format(self, capsys):
        code = main(["verify", "--suites", "pseudo", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,anchor,status,residual,ms"
        assert lines[1].startswith("pseudo.H,")

    def test_env_var_default_nmax(self, capsys, monkeypatch):
        monkeypatch.setenv("JORDAN_OSC_NMAX", "3")
        code = main(["verify", "--suites", "pseudo", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_max"] == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JORDAN_OSC_NMAX", "3")
        code = main(["verify", "--suites", "pseudo", "--nmax", "5", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_max"] == 5

    def test_invalid_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("JORDAN_OSC_NMAX", "many")
        assert main(["verify", "--suites", "pseudo"]) == 2
        err = capsys.readouterr().err
        assert err == "error: JORDAN_OSC_NMAX must be an integer in [1, 24], got 'many'\n"

    def test_float_mode_run(self, capsys):
        code = main(["verify", "--mode", "float", "--a", "1.0", "--b", "0.25",
                     "--suites", "pseudo", "--nmax", "2"])
        assert code == 0


class TestBasisCommand:
    def test_ground_state(self, capsys):
        assert main(["basis", "--n", "0", "--m", "0"]) == 0
        out = capsys.readouterr().out
        assert "kappa" in out and "exp(-a*z*zbar - b*zbar^2)" in out
        assert "z^0 zbar^0: 1" in out

    def test_chain_top(self, capsys):
        assert main(["basis", "--n", "1", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "z^1 zbar^0: 1" in out and "z^0 zbar^1: 1/4" in out

    def test_bad_index(self, capsys):
        assert main(["basis", "--n", "2", "--m", "5"]) == 2
        assert "0 <= m <= n" in capsys.readouterr().err

    def test_float_coefficients_print_as_floats(self, capsys):
        assert main(["basis", "--mode", "float", "--n", "1", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "z^1 zbar^0: 1.0" in out and "z^0 zbar^1: 0.25" in out
        assert "j)" not in out


class TestMatricesCommand:
    def test_level_one(self, capsys):
        assert main(["matrices", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "[0, 1]" in out and "[1, 0]" in out  # pairing block
        assert "[8, 1]" in out and "[0, 8]" in out  # Jordan block at E_1 = 8

    def test_float_level_one(self, capsys):
        assert main(["matrices", "--mode", "float", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "[0.0, 1.0]" in out and "[1.0, 0.0]" in out
        assert "[8.0, 1.0]" in out and "[0.0, 8.0]" in out
        assert "j)" not in out

    def test_out_of_range(self, capsys):
        assert main(["matrices", "--n", "25"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "float", "--a", "inf", "--b", "0.25", "--nmax", "3"],
    ["verify", "--mode", "float", "--a", "inf", "--b", "0.25", "--nmax", "3",
     "--suites", "integrals,pseudo"],
    ["verify", "--mode", "float", "--a", "1.0", "--b", "inf", "--nmax", "3"],
    ["basis", "--mode", "float", "--a", "inf", "--n", "1", "--m", "1"],
    ["matrices", "--mode", "float", "--a", "inf", "--n", "1"],
])
def test_non_finite_parameters_rejected(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameters must be finite")


@pytest.mark.parametrize("argv, flags", [
    (["verify", "--a", "3", "--b", "1", "--nmax", "1"], "--a, --b"),
    (["basis", "--mode", "float", "--p", "5", "--n", "1", "--m", "1"], "--p"),
    (["matrices", "--q", "1/3", "--mode", "float", "--a", "2.0", "--n", "1"], "--q"),
])
def test_parameter_flag_of_the_other_mode_rejected(capsys, argv, flags):
    # the flag is named, never silently dropped for the default point
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    mode = "float" if "float" in argv else "exact"
    assert line.startswith(f"error: {flags} not valid in {mode} mode, which takes ")


class TestSkippedChecks:
    # a = 1/4 < b = 1: the quadrature cross-check cannot run
    ARGV = ["verify", "--p", "1/2", "--q", "1", "--suites", "integrals", "--nmax", "2"]

    def test_json_reports_skip_and_round_trips(self, capsys):
        assert main(self.ARGV + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        statuses = {e["id"]: e["status"] for e in json.loads(out)["suites"]}
        assert statuses["integrals.oracle"] == "skip"
        assert {s for rid, s in statuses.items() if rid != "integrals.oracle"} == {"pass"}
        result = parse_json(out)
        assert result.passed and emit_json(result) == out
        oracle = next(r for r in result.reports if r.relation_id == "integrals.oracle")
        assert oracle.skipped and not oracle.passed

    def test_csv_and_text_show_skip(self, capsys):
        assert main(self.ARGV + ["--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert next(r for r in rows if r.startswith("integrals.oracle,")).split(",")[2] == "skip"
        assert main(self.ARGV + ["--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "SKIP  integrals.oracle" in text and "0 failed, 1 skipped" in text

    def test_skip_does_not_hide_a_failure(self):
        skip = Report("s", "s", "exact", False, "n/a", 0.0, skipped=True)
        fail = Report("f", "f", "exact", False, "1", 0.0)
        assert RunResult({}, "exact", 2, 1e-10, (skip,)).passed
        assert not RunResult({}, "exact", 2, 1e-10, (skip, fail)).passed


class TestEmitters:
    def test_text_summarizes(self):
        result = RunResult({"p": "1", "q": "1/2"}, "exact", 4, 1e-10, ())
        text = emit_text(result)
        assert "0 failed" in text

    def test_csv_and_json_agree_on_status(self, capsys):
        main(["verify", "--suites", "pseudo", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        result = parse_json(json.dumps(payload))
        csv_text = emit_csv(result)
        assert csv_text.count("pass") == len(payload["suites"])

    def test_long_residuals_print_rounded_in_text_and_csv(self, tmp_path, capsys):
        # at this point the twin's exact residual of a failing control is a
        # 523-character Fraction near 1.25e400, beyond the float range: JSON keeps
        # it, text and CSV print it to 6 significant digits
        catalog = tmp_path / "control.txt"
        catalog.write_text("".join(f"{s.rel_id} | {s.kind} | {s.lhs} | {s.rhs}\n"
                                   for s in verifier.load_negative_controls() if s.rel_id == "neg.gl2.Jplus-Jminus"))
        argv = ["verify", "--mode", "float", "--a", "1e-200", "--b", "1e-201", "--suites", "structure",
                "--catalog", str(catalog)]
        outputs = {}
        for fmt in ("json", "csv", "text"):
            assert main([*argv, "--format", fmt]) == 1
            outputs[fmt] = capsys.readouterr().out
        residuals = {e["id"]: e["residual"] for e in json.loads(outputs["json"])["suites"]}
        exact = F(residuals["neg.gl2.Jplus-Jminus"])
        assert len(residuals["neg.gl2.Jplus-Jminus"]) == 523 and F("1.249995e400") <= exact < F("1.250005e400")
        assert ",fail,1.25000e+400," in outputs["csv"]
        assert "FAIL  neg.gl2.Jplus-Jminus  residual=1.25000e+400  (" in outputs["text"]
        # every shorter residual, here the 0 of each explicit form, prints as it stands
        assert outputs["text"].count("residual=0  (") == len(residuals) - 1 == 14


@pytest.mark.parametrize("argv", [
    ["basis", "--mode", "float", "--a", "1e200", "--b", "1e199", "--n", "3", "--m", "1"],
    ["matrices", "--mode", "float", "--a", "1e200", "--b", "1e199", "--n", "3"],
    # the structure suite alone passes here, the full run still overflows
    ["verify", "--mode", "float", "--a", "1e120", "--b", "1e119", "--nmax", "2"],
])
def test_float_overflow_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: float arithmetic leaves the float range at {'a': ")
    # a plain reason, never the errno tuple a float pow raises with
    assert not re.search(r"\(\d+, '", line)
    assert line.endswith("(a value overflows, or underflows to a zero divisor)")


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "float", "--a", "1e-20", "--b", "1e-21", "--nmax", "24", "--suites", "actions"],
    ["verify", "--mode", "float", "--a", "1e-200", "--b", "1e-201", "--nmax", "3"],
    ["basis", "--mode", "float", "--a", "1e-200", "--b", "1e-201", "--n", "3", "--m", "1"],
    ["basis", "--mode", "float", "--a", "1e-20", "--b", "1e-21", "--n", "24", "--m", "1"],
    ["matrices", "--mode", "float", "--a", "1e-200", "--b", "1e-201", "--n", "3"],
])
def test_float_underflow_exits_two(capsys, argv):
    # the leading factor (2pq)^(n-2m)/m! of a basis function overflows or
    # underflows, a power of b in its (z, zbar) form underflows, or a product
    # such as 16ab underflows to a zero divisor: the overflow contract, not a
    # crash with exit 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: float arithmetic leaves the float range at {{'a': {float(argv[4])!r}, 'b': ")
    assert line.endswith("(a value overflows, or underflows to a zero divisor)")


@pytest.mark.parametrize("a, b, nmax", [("1e120", "1e119", "2"), ("1e-200", "1e-201", "3"), ("1e300", "1e299", "2")])
@pytest.mark.parametrize("suites", ["structure", "structure,pseudo"])
def test_float_operator_identities_pass_where_the_basis_leaves_the_float_range(capsys, a, b, nmax, suites):
    # the structure suite, the explicit forms and pseudo.H are decided
    # exactly at the point's dyadic twin, so no operator is built in floats
    # and none overflows or underflows
    argv = ["verify", "--mode", "float", "--a", a, "--b", b, "--nmax", nmax, "--suites", suites, "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    entries = json.loads(captured.out)["suites"]
    assert len(entries) == 147 + ("pseudo" in suites)
    assert all(e["status"] == "pass" and e["residual"] == "0" for e in entries)


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_exact_zero_division_is_not_caught(monkeypatch, error):
    # exact arithmetic never underflows or overflows, so either error there is
    # a bug, not a point beyond the float range
    def broken(params, n, m):
        raise error("from exact arithmetic")

    monkeypatch.setattr(cli, "build_psi", broken)
    with pytest.raises(error):
        main(["basis", "--n", "3", "--m", "1"])


def test_exact_run_skips_float_checks_that_underflow(capsys):
    # a float run at this point fails irrep.J0 and irrep.K on the absolute
    # residuals of its basis, whose coefficients reach (2pq)^-6/6!, about
    # 2e121; the exact run reads its own basis in floats, where the smallest
    # values only lose digits, so every float cross-check runs
    argv = ["verify", "--p", "1/10000000000", "--q", "1/100000000000", "--nmax", "6", "--suites", "irrep"]
    assert main(argv + ["--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["suites"]
    assert {r["status"] for r in reports} == {"pass"}
    assert max(float(r["residual"]) for r in reports if r["id"].endswith(".float")) <= 1e-15


@pytest.mark.parametrize("argv, skipped", [
    (["verify", "--p", "1e100", "--q", "1", "--nmax", "2", "--suites", "irrep"], set()),
    (["verify", "--p", "1e200", "--q", "1", "--suites", "integrals"], {"integrals.oracle"}),
])
def test_exact_run_skips_float_checks_that_overflow(capsys, argv, skipped):
    # exact arithmetic cannot overflow: only the float cross-checks read the
    # run's exact objects in floats; those whose reading overflows skip, and
    # the rest pass. The .float bounds read no float of the point, so at
    # p = 1e100 D+22 passes too, though its target psi[4,0] = (4 p q)^4 zbar^4
    # overflows in floats
    assert main(argv + ["--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["suites"]
    assert {r["id"] for r in reports if r["status"] == "skip"} == skipped
    assert {r["status"] for r in reports if r["id"] not in skipped} == {"pass"}
    ran = [float(r["residual"]) for r in reports if r["id"].endswith(".float") and r["id"] not in skipped]
    assert all(residual <= 1e-15 for residual in ran)
    assert all(r["anchor"] == "float cross-check skipped: the point leaves the float range"
               for r in reports if r["id"] in skipped)


@pytest.mark.parametrize("p, q, anchor", [
    # the oracle reads the point at p q / 4^j near 1, where a = 1e400 / 4^j is
    # still about 1e200, and psi_{3,m}'s coefficient a^3 leaves the float range
    ("1e200", "1", "float cross-check skipped: the point leaves the float range"),
    ("1", "1", "quadrature cross-check skipped: needs a > b"),
])
def test_oracle_skip_names_its_reason(capsys, p, q, anchor):
    argv = ["verify", "--p", p, "--q", q, "--nmax", "2", "--suites", "integrals", "--format", "json"]
    assert main(argv) == 0
    reports = {r["id"]: r for r in json.loads(capsys.readouterr().out)["suites"]}
    assert (reports["integrals.oracle"]["status"], reports["integrals.oracle"]["anchor"]) == ("skip", anchor)
    assert {r["status"] for rid, r in reports.items() if rid != "integrals.oracle"} == {"pass"}


_EXTREME_FLOAT = ["verify", "--mode", "float", "--a", "1e200", "--b", "1e-200", "--nmax", "12", "--format", "json"]


def test_nan_residuals_never_pass(capsys, monkeypatch):
    # a NaN coefficient in the stored float conjugations of J0, D-12 and a1+
    # meets every image of those operators: each report that reads one fails
    # with a NaN residual, and no other report sees it. a1+'s boson rule then
    # fails, so no rule is taken as derived, and J0 and D-12 are read
    conjugated = model.conjugated

    def with_nan(P, name):
        op = conjugated(P, name)
        return (DiffOp._normalized(op.mode, {**op.nums, (0, 0, 0, 0): math.nan}, op.den)
                if name in ("J0", "D-12", "a1+") else op)

    monkeypatch.setattr(model, "conjugated", with_nan)
    assert main(_EXTREME_FLOAT + ["--suites", "irrep"]) == 1
    reports = json.loads(capsys.readouterr().out)["suites"]
    assert len(reports) == 14
    nan = {r["id"] for r in reports if r["residual"] == "nan"}
    assert nan == {"irrep.J0", "irrep.D-12.float", "irrep.a1+.float"}
    assert {r["status"] for r in reports if r["id"] in nan} == {"fail"}


def test_extreme_float_point_passes_the_irrep_suite(capsys):
    # its conjugations are rounded from the exact ones, so no inf - inf leaves
    # a NaN in them (built in floats, irrep.J0 and irrep.D-12.float read NaN here)
    assert main(_EXTREME_FLOAT + ["--suites", "irrep"]) == 0
    reports = json.loads(capsys.readouterr().out)["suites"]
    assert len(reports) == 14 and {r["status"] for r in reports} == {"pass"}
