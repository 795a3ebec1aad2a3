"""Relation catalog, expression grammar, and the five verification suites."""

from fractions import Fraction

import pytest

from jordan_osc import (
    ACTION_RULES,
    LADDER_RULES,
    DiffOp,
    Params,
    RelationSpec,
    adjoint,
    check_actions,
    check_explicit_forms,
    check_integrals,
    check_irrep,
    check_pseudo_hermiticity,
    check_relation,
    check_structure,
    eval_expression,
    load_negative_controls,
    load_relations,
    make_operator,
    parse_relations,
    run_suites,
    swap_vars,
)

F = Fraction


class TestCatalogParsing:
    def test_shipped_catalog_loads(self):
        specs = load_relations()
        assert len(specs) >= 45
        ids = {s.rel_id for s in specs}
        assert len(ids) == len(specs)
        assert all(s.kind in ("commutator", "anticommutator", "identity") for s in specs)

    def test_negative_controls_load(self):
        controls = load_negative_controls()
        assert len(controls) == 5

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_relations("broken | only | three")

    def test_rejects_duplicate_ids(self):
        text = "x | identity | H | H\nx | identity | K | K\n"
        with pytest.raises(ValueError):
            parse_relations(text)

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nx | identity | H | H\n"
        assert len(parse_relations(text)) == 1


class TestExpressionGrammar:
    def test_operator_lookup(self, params):
        assert eval_expression("H", params) == make_operator(params, "H")

    def test_prefix_arithmetic(self, params):
        got = eval_expression("add A+ neg A-", params)
        want = make_operator(params, "A+") - make_operator(params, "A-")
        assert got == want

    def test_commutator_token(self, params):
        got = eval_expression("comm A- A+", params)
        ap, am = make_operator(params, "A+"), make_operator(params, "A-")
        assert got == am * ap - ap * am

    def test_scalar_literals(self, params):
        # 4*a = 4, -1/2, 8*ab = 2 at the reference point
        assert eval_expression("4*a", params) == DiffOp.constant(F(4))
        assert eval_expression("-1/2", params) == DiffOp.constant(F(-1, 2))
        assert eval_expression("8*ab", params) == DiffOp.constant(F(2))

    def test_smul(self, params):
        got = eval_expression("smul -4*b J0", params)
        assert got == make_operator(params, "J0").scale(F(-1))

    def test_trailing_tokens_rejected(self, params):
        with pytest.raises(ValueError):
            eval_expression("H K", params)

    def test_truncated_expression_rejected(self, params):
        with pytest.raises(ValueError):
            eval_expression("add H", params)

    def test_unknown_name_rejected(self, params):
        with pytest.raises(ValueError):
            eval_expression("bogus", params)


class TestStructureSuite:
    def test_all_relations_pass_exact(self, params):
        reports = check_structure(params)
        assert all(r.passed for r in reports)
        assert all(r.residual == "0" for r in reports)

    def test_all_relations_pass_float(self, fparams):
        reports = check_structure(fparams, tol=1e-10)
        assert all(r.passed for r in reports)

    def test_second_admissible_point(self):
        P = Params.exact(F(5, 4), F(1, 3))
        assert all(r.passed for r in check_structure(P))

    def test_negative_controls_all_detected(self, params):
        for spec in load_negative_controls():
            report = check_relation(params, spec)
            assert not report.passed, spec.rel_id
            assert report.relation_id == spec.rel_id

    def test_corrupted_relation_named_in_report(self, params):
        bad = RelationSpec("bad.id", "commutator", "comm H A+", "smul -4*a A+")
        report = check_relation(params, bad)
        assert not report.passed
        assert report.relation_id == "bad.id"
        assert report.residual != "0"


class TestExplicitForms:
    def test_all_fourteen_pass(self, params):
        reports = check_explicit_forms(params)
        assert len(reports) == 14
        assert all(r.passed and r.residual == "0" for r in reports)


class TestActionSuite:
    def test_all_rules_pass(self, params):
        reports = check_actions(params, n_max=6)
        assert len(reports) == len(ACTION_RULES) == 23
        assert all(r.passed for r in reports)

    def test_covers_whole_catalog_action_set(self):
        names = {rule.op_name for rule in ACTION_RULES}
        assert {"H", "A+", "A-", "B+", "B-", "R", "S", "T", "U",
                "J0", "J+", "J-", "K", "a1+", "a1-", "a2+", "a2-",
                "D+11", "D+12", "D+22", "D-11", "D-12", "D-22"} == names

    def test_float_mode(self, fparams):
        reports = check_actions(fparams, n_max=4, tol=1e-9)
        assert all(r.passed for r in reports)

    def test_detects_wrong_formula(self, params, monkeypatch):
        # rerun with a single corrupted rule: sign flipped on the A+ action
        import jordan_osc.verifier as v

        bad = v.ActionRule(
            "action.bad", "A+", "deliberately wrong",
            lambda P, n, m: [(n + 1, m, P.sqrt_a_over_b)],
        )
        monkeypatch.setattr(v, "ACTION_RULES", (bad,))
        reports = v.check_actions(params, n_max=2)
        assert len(reports) == 1 and not reports[0].passed


class TestIrrepSuite:
    def test_exact_squared_and_float_direct(self, params):
        reports = check_irrep(params, n_max=6)
        assert all(r.passed for r in reports), [r.relation_id for r in reports if not r.passed]
        sq = [r for r in reports if r.relation_id.endswith(".sq")]
        fl = [r for r in reports if r.relation_id.endswith(".float")]
        assert len(sq) == len(LADDER_RULES) == 12
        assert len(fl) == 12

    def test_float_params_skip_exact_path(self, fparams):
        reports = check_irrep(fparams, n_max=4, tol=1e-9)
        assert not any(r.relation_id.endswith(".sq") for r in reports)
        assert all(r.passed for r in reports)


class TestPseudoHermiticity:
    def test_passes(self, params):
        report = check_pseudo_hermiticity(params)
        assert report.passed and report.residual == "0"

    def test_detects_imaginary_defect(self, fparams):
        # H + i z zbar is no longer swap-Hermitian (exact coefficients are
        # rational, so the imaginary defect needs float mode) ...
        ham = make_operator(fparams, "H") + DiffOp.monomial((1, 1, 0, 0), 1j)
        assert not (swap_vars(ham) - adjoint(ham)).is_zero()
        assert (swap_vars(ham) - adjoint(ham)).max_magnitude() == pytest.approx(2.0)

    def test_real_defect_stays_invisible(self, params):
        # ... while H + z is: the property constrains phases, not realness
        ham = make_operator(params, "H") + DiffOp.z("exact")
        assert (swap_vars(ham) - adjoint(ham)).is_zero()


class TestIntegralSuite:
    def test_all_pass(self, params):
        reports = check_integrals(params, n_max=5)
        assert all(r.passed for r in reports), [r.relation_id for r in reports if not r.passed]
        ids = {r.relation_id for r in reports}
        assert ids == {"integrals.gram", "integrals.jordan", "integrals.norms",
                       "integrals.resolution", "integrals.oracle"}

    def test_oracle_skipped_when_b_dominates(self):
        P = Params.exact(F(1, 2), 1)  # a = 1/4 < b = 1
        reports = check_integrals(P, n_max=2)
        oracle = next(r for r in reports if r.relation_id == "integrals.oracle")
        assert oracle.passed and "skip" in oracle.anchor


class TestRunSuites:
    def test_full_run(self, params):
        reports = run_suites(params, ("structure", "actions", "irrep", "pseudo", "integrals"),
                             n_max=4)
        assert all(r.passed for r in reports)
        assert len(reports) > 180

    def test_unknown_suite_rejected(self, params):
        with pytest.raises(ValueError):
            run_suites(params, ("nonsense",))

    def test_reports_deterministic_modulo_timing(self, params):
        first = run_suites(params, ("pseudo",))
        second = run_suites(params, ("pseudo",))
        strip = lambda r: (r.relation_id, r.anchor, r.mode, r.passed, r.residual)  # noqa: E731
        assert [strip(r) for r in first] == [strip(r) for r in second]
