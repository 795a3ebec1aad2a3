"""Relation catalog, expression grammar, and the five verification suites."""

import importlib.util
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import factorial, isnan, sqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jordan_osc import (
    ACTION_RULES,
    DIAGONAL_RULES,
    EXPLICIT_NAMES,
    FLOAT,
    LADDER_RULES,
    DiffOp,
    Params,
    Poly2,
    RelationSpec,
    Report,
    adjoint,
    chain_psi,
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
from jordan_osc import gaussint, model, verifier, weyl
from jordan_osc.weyl import lift, to_ints
from jordan_osc.verifier import SUITES, suite_cutoffs

import reference_pass
from reference_forms import phi_scale_sq

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
        text = "".join(f"{rel_id} | identity | H | H\n" for rel_id in ["y", "x", "z", "x", "y", "x"])
        with pytest.raises(ValueError, match=r"^duplicate relation ids in catalog: y, x$"):
            parse_relations(text)

    @pytest.mark.parametrize("rel_id", ["explicit.a1+", "pseudo.H", "action.B-", "irrep.K.sq", "integrals.norms"])
    def test_rejects_ids_of_builtin_checks(self, rel_id):
        with pytest.raises(ValueError, match="built-in"):
            parse_relations(f"x | identity | H | H\n{rel_id} | identity | K | K\n")

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nx | identity | H | H\n"
        assert len(parse_relations(text)) == 1

    def test_shipped_catalog_parsed_once_returned_fresh(self):
        first = load_relations()
        n = len(first)
        first.pop()
        first[0] = None
        second = load_relations()
        assert len(second) == n and isinstance(second[0], RelationSpec) and second is not first
        controls = load_negative_controls()
        controls.clear()
        assert len(load_negative_controls()) == 5
        # a side is parsed once and its tree, nested tuples, is shared
        side = second[1].lhs
        assert verifier.parse_expression(side) is verifier.parse_expression(side)
        assert isinstance(verifier.parse_expression(side), tuple)

    def test_catalog_file_read_on_every_call(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("x | identity | H | H\n")
        assert [s.rel_id for s in load_relations(str(path))] == ["x"]
        path.write_text("y | identity | K | K\nz | identity | H | H\n")
        assert [s.rel_id for s in load_relations(str(path))] == ["y", "z"]


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

    @pytest.mark.parametrize("token, value, weight", [
        ("4*a", 9, (2, 0)),
        ("-1/16*a^-1*b^-1", F(-1, 16), (-2, -2)),
        ("2*q*p^-1", F(8, 9), (-1, 1)),
        ("1*ab", 1, (2, 2)),
        ("0*a^-3", 0, "any"),
    ])
    def test_scalar_literal_table(self, token, value, weight):
        # at p = 3/2, q = 2/3: a = 9/4, b = 4/9
        P = Params.exact(F(3, 2), F(2, 3))
        assert eval_expression(token, P) == DiffOp.constant(F(value))
        assert eval_expression(f"smul {token} H", P) == make_operator(P, "H").scale(F(value))
        assert model._weight(token) == weight

    @pytest.mark.parametrize("token", ["1*a^", "1*c", "1/0*a", "1*p^1/2"])
    def test_malformed_literal_rejected(self, token):
        for expr in (token, f"smul {token} H"):
            with pytest.raises(ValueError):
                model.parse_expression(expr)

    @pytest.mark.parametrize("point", [Params.from_ab(0.79, 0.23), Params.from_ab(3.0, 1.0), Params.from_ab(1.0, 0.25)],
                             ids=["0.79-0.23", "3-1", "1-0.25"])
    def test_catalog_literals_keep_their_float_bits(self, point):
        # every literal of the shipped catalogs, and of the form c*ab they do
        # not use, is read as the grammar before c*f^k*... read c, c*a, c*b and
        # c*ab: c, times a^i, times b^j
        tokens = {tok for spec in load_relations() + load_negative_controls()
                  for side in (spec.lhs, spec.rhs) for tok in side.split() if model._SCALAR_TOKEN.fullmatch(tok)}
        tokens |= {"8*ab", "-3/7*ab"}
        assert {tok.partition("*")[2] for tok in tokens} == {"", "a", "b", "ab"}
        for tok in tokens:
            c, _, unit = tok.partition("*")
            want = point.s(F(c)) * point.a ** unit.count("a") * point.b ** unit.count("b")
            assert model._scalar(tok, point).hex() == want.hex(), tok


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


def _sweep_points(seed: int) -> list[Params]:
    """The exact points of the benchmark's exact-sweep workload for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return [Params.exact(F(pt["p"]), F(pt["q"])) for pt in bench.sweep_points(seed, bench.SWEEP_POINTS)]


def _direct(params, spec) -> tuple:
    """(anchor, passed, residual) of a relation with both sides evaluated at params."""
    residual = (eval_expression(spec.lhs, params) - eval_expression(spec.rhs, params)).max_magnitude()
    return f"{spec.lhs} == {spec.rhs}", residual == 0, str(residual)


def _verdicts(reports) -> list[tuple]:
    return [(r.relation_id, r.anchor, r.passed, r.residual) for r in reports]


INHOMOGENEOUS = RelationSpec("x.inhomogeneous", "commutator", "comm A+ B-", "2*b")  # 2a == 2b: only at a = b

#: the weight of each catalog operator as once declared by hand and checked
#: at every point, before weights were derived: reference data for them
DECLARED_WEIGHTS = {
    **dict.fromkeys(("H", "T", "U", "J-", "E21", "D+22", "D-11"), (2, 0)),
    **dict.fromkeys(("A+", "A-"), (2, -1)),
    **dict.fromkeys(("B+", "B-"), (0, 1)),
    "R": (4, -2),
    "S": (0, 2),
    **dict.fromkeys(("J0", "K", "E11", "E22", "D+12", "D-12"), (0, 0)),
    **dict.fromkeys(("J+", "E12", "D+11", "D-22"), (-2, 0)),
    **dict.fromkeys(("a1+", "a2-"), (-1, 0)),
    **dict.fromkeys(("a1-", "a2+"), (1, 0)),
}


@pytest.fixture
def fresh_process(monkeypatch):
    """No relation proven, no weight derived and no point store yet, as in a
    new process; what the test proves, derives or builds is dropped after it,
    so a definition the test changes leaves nothing behind."""
    verifier._proven.cache_clear()
    model._token_weight.cache_clear()
    monkeypatch.setattr(model, "_POINTS", {})
    yield
    verifier._proven.cache_clear()
    model._token_weight.cache_clear()


CORRUPTED_BY_S = {"block.S-T", "gl2.J0-Jplus", "gl2.embed-Jplus", "sp4.acomm-a2m-a1p"}


def _count_products(monkeypatch) -> Counter:
    """Count every weyl._TermMap._product from now on, under "product", and
    every evaluation of an expression tree, under "evaluate"."""
    counts = Counter()
    product, evaluate = weyl._TermMap._product, model._evaluate

    def counted(self, *args):
        counts["product"] += 1
        return product(self, *args)

    def counted_evaluate(*args):
        counts["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(weyl._TermMap, "_product", counted)
    monkeypatch.setattr(model, "_evaluate", counted_evaluate)
    return counts


def _catalog_names(tree) -> set:
    """The canonical names of the catalog operators a tree names."""
    if isinstance(tree, tuple):
        return set().union(*map(_catalog_names, tree[1:]))
    if tree in model.GENERATORS or model._SCALAR_TOKEN.fullmatch(tree):
        return set()
    return {model.canonical_name(tree)}


def _sigma_rescales(P, name) -> bool:
    """sigma_P(X at P) = p^alpha q^beta (X at p = q = 1), term by term, with
    (alpha, beta) the derived weight of X: each term of X at P is the term of
    X at p = q = 1 times p^(alpha + 2(i-k)) q^(beta - i + k + j - l)."""
    op, unit = make_operator(P, name), make_operator(verifier._UNIT, name)
    alpha, beta = model._weight(name)
    return op.terms.keys() == unit.terms.keys() and all(
        c == unit.terms[i, j, k, l] * P.p ** (alpha + 2 * (i - k)) * P.q ** (beta - i + k + j - l)
        for (i, j, k, l), c in op.terms.items())


def _assert_s_relations_fail(P) -> None:
    """S shifted by a constant fails exactly CORRUPTED_BY_S and explicit.J+ at
    P, each with the residual of direct evaluation."""
    reports = check_structure(P)
    assert {r.relation_id for r in reports if not r.passed} == CORRUPTED_BY_S
    assert _verdicts(reports) == [(s.rel_id, *_direct(P, s)) for s in load_relations()]
    explicit = check_explicit_forms(P)
    assert [r.relation_id for r in explicit if not r.passed] == ["explicit.J+"]
    direct = (make_operator(P, "J+") - model.explicit_form(P, "J+")).max_magnitude()
    assert explicit[EXPLICIT_NAMES.index("J+")].residual == str(direct) != "0"


class TestReferencePoint:
    """Each relation is proven at p = q = 1 when it is homogeneous, its
    operators' definitions included; every other case is evaluated directly,
    so every report is what direct evaluation gives."""

    def test_weights_cover_the_catalog(self):
        assert {name: model._weight(name) for name in model.CATALOG_NAMES} == DECLARED_WEIGHTS

    @pytest.mark.parametrize("expr, undeclared, weight, leaves", [
        ("add 0 H", None, (2, 0), {"H"}),
        ("sub S 0*a", None, (0, 2), {"S"}),
        ("mul 0 H", None, "any", {"H"}),
        ("smul 0 K", None, "any", {"K"}),
        ("add 0 0*ab", None, "any", set()),
        ("neg A+", None, (2, -1), {"A+"}),
        ("2*a", None, (2, 0), set()),
        ("-1/2*b", None, (0, 2), set()),
        ("3*ab", None, (2, 2), set()),
        ("comm D+21 D-12", None, (0, 0), {"D+12", "D-12"}),
        ("comm R S", "R", None, {"R", "S"}),
        ("add H S", None, None, {"H", "S"}),
    ])
    def test_weight(self, fresh_process, monkeypatch, expr, undeclared, weight, leaves):
        # ``undeclared`` names an operator whose definition loses its weight
        if undeclared:
            monkeypatch.setitem(model.DEFINITIONS, undeclared, f"add {model.DEFINITIONS[undeclared]} 1")
        tree = model.parse_expression(expr)
        assert model._weight(tree) == weight
        assert _catalog_names(tree) == leaves

    @pytest.mark.parametrize("expr, weight", [
        ("z", (-2, 1)), ("zbar", (0, -1)), ("dz", (2, -1)), ("dzbar", (0, 1)),
        ("comm dz z", (0, 0)), ("comm dzbar zbar", (0, 0)), ("comm dz zbar", (2, -2)),
    ])
    def test_generator_weights(self, expr, weight):
        # [dz, z] = [dzbar, zbar] = 1 have weight (0, 0), as 1 does: what
        # makes sigma_P an automorphism of the Weyl algebra
        assert model._weight(model.parse_expression(expr)) == weight

    @pytest.mark.parametrize("P", [Params.exact(2, 3), Params.exact(F(7, 3), F(7, 6)), Params.exact(1, 1)],
                             ids=["2-3", "7/3-7/6", "a=b"])
    def test_every_declared_weight_passes_the_leaf_check(self, fresh_process, P):
        # the declared weights of the generators and factors, carried through
        # every definition, are those of sigma_P
        assert all(_sigma_rescales(P, name) for name in model.CATALOG_NAMES)

    def test_inhomogeneous_relation_is_evaluated_at_each_point(self, fresh_process):
        assert check_relation(Params.exact(1, 1), INHOMOGENEOUS).passed  # a = b
        assert not verifier._proven(INHOMOGENEOUS.lhs, INHOMOGENEOUS.rhs)
        report = check_relation(Params.exact(2, 1), INHOMOGENEOUS)
        assert not report.passed and report.residual == "6"

    def test_a_corrupted_operator_fails_its_relations(self, fresh_process, monkeypatch):
        # S + 1 has no weight, so no relation that names S is proven
        monkeypatch.setitem(model.DEFINITIONS, "S", "add mul B+ B- 1")
        assert model._weight("S") is None
        _assert_s_relations_fail(Params.exact(F(3, 2), F(2, 3)))

    def test_a_wrong_homogeneous_definition_fails_its_relations(self, fresh_process, monkeypatch):
        # B- B+ = S - 4b has the weight of S, and fails where S + 1 does, at p = q = 1 too
        monkeypatch.setitem(model.DEFINITIONS, "S", "mul B- B+")
        assert model._weight("S") == DECLARED_WEIGHTS["S"]
        _assert_s_relations_fail(Params.exact(F(3, 2), F(2, 3)))

    def test_no_verdict_depends_on_the_first_point(self, fresh_process):
        points = _sweep_points(5)
        forward = [_verdicts(check_structure(P) + check_explicit_forms(P)) for P in points]
        verifier._proven.cache_clear()
        backward = [_verdicts(check_structure(P) + check_explicit_forms(P)) for P in reversed(points)]
        assert forward == backward[::-1]

    def test_negative_controls_fail_at_every_sweep_point(self, fresh_process):
        for P in _sweep_points(5):
            assert all(r.passed for r in check_structure(P))
            for spec in load_negative_controls():
                report = check_relation(P, spec)
                assert not report.passed and report.residual != "0", (spec.rel_id, P)
        assert all(verifier._proven(s.lhs, s.rhs) for s in load_relations())

    def test_each_unit_operator_built_once(self, fresh_process):
        # the proofs build the operators at p = q = 1 once; no other point of
        # the sweep, more than a store holds, builds or stores anything
        points = _sweep_points(5)
        assert len(points) > model._POINTS_MAX
        for P in points:
            check_structure(P)
            check_explicit_forms(P)
        assert list(model._POINTS) == [verifier._UNIT]
        built = [key[1] for key in model.point_cache(verifier._UNIT) if key[0] is model.make_operator.__wrapped__]
        assert sorted(built) == sorted(model.CATALOG_NAMES)

    def test_no_product_at_a_second_point(self, fresh_process, monkeypatch):
        check_structure(Params.exact(1, F(1, 2)))
        check_explicit_forms(Params.exact(1, F(1, 2)))
        P = Params.exact(F(5, 4), F(1, 3))
        counts = _count_products(monkeypatch)
        assert all(r.passed and r.residual == "0" for r in check_structure(P) + check_explicit_forms(P))
        assert counts == {} and P not in model._POINTS

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(p=st.fractions(min_value=F(1, 4), max_value=6, max_denominator=7),
           ratio=st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9))
    def test_reports_equal_direct_evaluation(self, fresh_process, p, ratio):
        P = Params.exact(p, p * ratio)
        specs = load_relations() + load_negative_controls() + [INHOMOGENEOUS]
        reports = [check_relation(P, spec) for spec in specs]
        assert _verdicts(reports) == [(s.rel_id, *_direct(P, s)) for s in specs]


class TestExplicitForms:
    def test_all_fourteen_pass(self, params):
        reports = check_explicit_forms(params)
        assert len(reports) == 14
        assert all(r.passed and r.residual == "0" for r in reports)

    def test_no_form_names_a_catalog_operator(self):
        # a form is written in the generators only, so it is no restatement of
        # the catalog's definitions
        assert tuple(model.EXPLICIT_FORMS) == EXPLICIT_NAMES
        for name, form in model.EXPLICIT_FORMS.items():
            assert _catalog_names(model.parse_expression(form)) == set(), name


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


def _failing(reports):
    return {r.relation_id for r in reports if not r.passed}


def _replace_rule(rules, rule_id, **changes):
    assert any(r.rule_id == rule_id for r in rules)
    return tuple(replace(r, **changes) if r.rule_id == rule_id else r for r in rules)


def _at(rule, n, m):
    """An irrep rule's claimed value at psi_{n,m}: its coeff_sq or eigenvalue
    at j = n/2, mu = m - n/2."""
    claim = rule.eigenvalue if isinstance(rule, verifier.DiagonalRule) else rule.coeff_sq
    return F(claim(F(n, 2), F(2 * m - n, 2)))


def _four_pass_residual(params, rule, n, m, image):
    """The direct irrep residual as term-map passes: read the image and the
    run's own target psi in floats, scale each, subtract (the oracle of the
    one-pass residual)."""
    got = image.to_float().scale(sqrt(phi_scale_sq(n, m)))
    c2 = _at(rule, n, m)
    n2, m2 = n + rule.dn, m + rule.dm
    if not (0 <= m2 <= n2):
        return verifier.max_or_nan(abs(float(c2)), got.max_magnitude())
    want = model.chain_psi(params, n2, m2).to_float().scale(sqrt(c2) * sqrt(phi_scale_sq(n2, m2)))
    return (got - want).max_magnitude() / verifier.max_or_nan(1.0, want.max_magnitude())


def _stacked_direct_readings(point, rule, n, basis):
    """The direct readings of one ladder rule at every step of level n, as the
    pass reads them: off its operator's images of the stacked level."""
    level = verifier._level(point.mode, [basis(n, m) for m in range(n + 1)])
    parts = verifier._charge_parts(model.conjugated(point, rule.op_name))
    images = {shift: part.apply_to(level, {}) for shift, part in parts.items()}
    targets = [verifier._direct_target(rule, n, m, _at(rule, n, m)) for m in range(n + 1)]
    factors = [model.su2_factor(n, m) for m in range(n + 1)]
    return verifier._step_residuals(FLOAT, n, images, targets, basis, factors)


class TestFloatLadderResidual:
    @pytest.mark.parametrize("point", [
        Params.from_ab(0.79, 0.23), Params.from_ab(3.0, 1.0),
        Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3)),
    ], ids=["float-0.79-0.23", "float-3-1", "exact-1-1/2", "exact-3/2-2/3"])
    def test_one_pass_equals_four_passes_bit_for_bit(self, point):
        # the reading off the stacked level, normalized, against the image of
        # each step built alone and read by term-map passes
        basis = partial(model.chain_psi, point)

        def sizes(n, m):
            return float(basis(n, m).max_magnitude())

        outside = 0
        for rule in LADDER_RULES:
            for n in range(7):
                readings = _stacked_direct_readings(point, rule, n, basis)
                for m in range(n + 1):
                    image = model.apply(point, rule.op_name, model.chain_psi(point, n, m))
                    got = verifier._float_ladder_residual(point, rule, n, m, _at(rule, n, m), None, readings[m], None,
                                                          sizes=sizes)
                    want = _four_pass_residual(point, rule, n, m, image)
                    assert type(got) is float and got.hex() == want.hex(), (rule.rule_id, n, m)
                    outside += not (0 <= m + rule.dm <= n + rule.dn)
        assert outside > 0  # out-of-grid targets were compared too


def _fraction_squared_ladder_residual(params, rule, n, m, terms, image_residual):
    """The squared-value residual in Fractions throughout (the oracle of the
    integer decision)."""
    c2 = _at(rule, n, m)
    n2, m2 = n + rule.dn, m + rule.dm
    coeff = sum((c for t_n, t_m, c in terms if (t_n, t_m) == (n2, m2)), 0)
    stray = verifier.max_or_nan(0, *(abs(c) for t_n, t_m, c in terms if (t_n, t_m) != (n2, m2)))
    if not (0 <= m2 <= n2):
        return verifier.max_or_nan(image_residual, stray, abs(c2))
    if coeff < 0:
        return verifier.max_or_nan(image_residual, stray, abs(coeff))
    ratio = phi_scale_sq(n, m) / phi_scale_sq(n2, m2)
    return verifier.max_or_nan(image_residual, stray, abs(coeff * coeff * ratio - c2))


_ACTION_OF = {rule.op_name: rule for rule in ACTION_RULES}


class TestSquaredLadderResidual:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LADDER_RULES), st.integers(0, 9).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.sampled_from([1, 1, -1, F(2), F(1, 3), F(-5, 4), 0]),
           st.sampled_from([None, (0, 0), (1, 1), (30, 0), (2, 5)]),
           st.sampled_from([F(0), F(1, 7)]),
           st.sampled_from([Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3))]))
    def test_integer_decision_equals_the_fraction_expression(self, rule, nm, factor, stray_at, image_residual,
                                                             point):
        # the true action terms, their coefficients scaled (negated, zeroed),
        # and a term at another target, possibly off the grid
        n, m = nm
        terms = [(t_n, t_m, c * factor) for t_n, t_m, c in _ACTION_OF[rule.op_name].terms(point, n, m)]
        if stray_at is not None:
            terms.append((*stray_at, F(3, 2)))
        got = verifier._squared_ladder_residual(point, rule, n, m, _at(rule, n, m), terms, None, image_residual)
        want = _fraction_squared_ladder_residual(point, rule, n, m, terms, image_residual)
        assert got == want and str(got) == str(want)
        if factor == 1 and stray_at is None and not image_residual:
            assert got == 0  # the true coefficients pass


class TestDerivedChecksCanFail:
    """irrep.*.sq, irrep.*.float, irrep.J0 and irrep.K reuse the action images;
    each still fails when its own claim, or the image it reads, is wrong."""

    def test_wrong_ladder_coefficient_fails_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        # doubled, so still zero at the top of each chain: only in-grid values are wrong
        monkeypatch.setattr(v, "LADDER_RULES", _replace_rule(
            v.LADDER_RULES, "irrep.J+", coeff_sq=lambda j, mu: 2 * (j - mu) * (j + mu + 1)))
        assert _failing(v.check_irrep(params, n_max=3)) == {"irrep.J+.sq", "irrep.J+.float"}

    def test_wrong_action_coefficient_fails_action_and_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(
            v.ACTION_RULES, "action.a1+", terms=lambda P, n, m: [(n + 1, m + 1, P.s(m + 2))]))
        failing = _failing(v.run_suites(params, ("actions", "irrep"), n_max=3))
        # the float direct report reads the image, not the action rule
        assert failing == {"action.a1+", "irrep.a1+.sq"}

    def test_wrong_image_fails_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        # the image pass applies each operator by name, through its stored conjugation
        conjugated = model.conjugated
        monkeypatch.setattr(model, "conjugated", lambda P, name: (
            conjugated(P, name).scale(P.s(2)) if name == "a1+" else conjugated(P, name)))
        failing = _failing(v.run_suites(params, ("actions", "irrep"), n_max=3))
        assert failing == {"action.a1+", "irrep.a1+.sq", "irrep.a1+.float"}

    def test_wrong_float_basis_fails_float_in_exact_run(self, params, monkeypatch):
        import jordan_osc.verifier as v

        # the float basis phi is the exact psi times its su(2) factor: a wrong
        # factor at (2, 1)
        factor = v.su2_factor

        def perturbed(n, m):
            return factor(n, m) * (sqrt(1.000001) if (n, m) == (2, 1) else 1)

        monkeypatch.setattr(v, "su2_factor", perturbed)
        failing = _failing(v.run_suites(params, ("actions", "irrep"), n_max=3))
        # exactly the .float reports that read phi[2,1] with a nonzero
        # coefficient: as the target, from (2,0), (2,2), (1,0), (3,2), (1,1),
        # (3,1) and (0,0), and as op phi[2,1], under every rule but D-11 and
        # D-22, which take phi[2,1] off the grid with coefficient 0
        assert failing == {f"irrep.{op}.float" for op in ("J+", "J-", "a1+", "a1-", "a2+", "a2-",
                                                           "D+11", "D+12", "D-12", "D+22")}

    # (which generator, which of its terms to drop, the key index that marks an
    # operator term using that generator: z^i zbar^j dz^k dzbar^l)
    @pytest.mark.parametrize("generator, dropped, uses", [
        (2, (0, 0, 1, 0), 3),  # dzbar -> b dw + dzbar - w - b zbar, without b dw
        (1, (0, 1, 0, 0), 2),  # dz -> a (dw - zbar), without -a zbar
        (0, (0, 1, 0, 0), 0),  # z -> (w - b zbar)/a, without -b zbar/a
    ], ids=["dzbar-without-b-dw", "dz-without-zbar", "z-without-zbar"])
    def test_broken_coordinate_map_fails_actions(self, params, monkeypatch, generator, dropped, uses):
        # a wrong image of one generator in the chain variables fails the action
        # report of every operator that uses that generator, and only those
        images = model._chain_generators

        def broken(P):
            out = list(images(P))
            out[generator] = DiffOp._normalized(P.mode, {key: v for key, v in out[generator].nums.items()
                                                         if key != dropped}, out[generator].den)
            assert out[generator] != images(P)
            return tuple(out)

        monkeypatch.setattr(model, "_POINTS", {})  # and with them the stored conjugations
        monkeypatch.setattr(model, "_chain_generators", broken)
        users = {rule.rule_id for rule in ACTION_RULES
                 if any(key[uses] for key in make_operator(params, rule.op_name).nums)}
        assert len(users) > 5
        assert _failing(check_actions(params, n_max=3)) == users

    def test_wrong_eigenvalue_fails_diagonal(self, params, monkeypatch):
        import jordan_osc.verifier as v

        monkeypatch.setattr(v, "DIAGONAL_RULES", _replace_rule(
            v.DIAGONAL_RULES, "irrep.J0", eigenvalue=lambda j, mu: mu + 1))
        assert _failing(v.run_suites(params, ("actions", "irrep"), n_max=3)) == {"irrep.J0"}


class TestImagePass:
    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_suites_agree_however_requested(self, point, request):
        P = request.getfixturevalue(point)
        strip = lambda r: (r.relation_id, r.anchor, r.mode, r.status, r.residual)  # noqa: E731
        together = [strip(r) for r in run_suites(P, ("actions", "irrep"), n_max=4)]
        apart = [strip(r) for r in check_actions(P, n_max=4) + check_irrep(P, n_max=4)]
        irrep_alone = [strip(r) for r in run_suites(P, ("irrep",), n_max=4)]
        assert together == apart
        n_actions = len(ACTION_RULES)
        assert together[n_actions:] == irrep_alone
        assert all(rid.startswith("irrep.") for rid, *_ in irrep_alone)

    # in both modes the irrep suite reads the action images: one conjugation
    # per operator, one image per (level, operator, charge part), and no
    # float rebuild
    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_one_image_per_level_operator_and_charge_part(self, point, request, image_counts):
        P = request.getfixturevalue(point)
        run_suites(P, ("actions", "irrep"), n_max=4)
        counts = dict(image_counts)
        parts = [verifier._charge_parts(model.conjugated(P, rule.op_name)) for rule in ACTION_RULES]
        assert sum(map(len, parts)) == 29
        assert counts == {"conjugate": 23, "apply_to": 29 * 5}

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_one_derivative_table_per_level(self, point, request, image_counts, monkeypatch):
        # level-outer: every image of level n reads one table, built for the
        # level sum_m psi_{n,m}, which no store keeps once the pass is over
        P = request.getfixturevalue(point)
        tables = {}  # id -> (table, the polynomial it was read for); holding both keeps each id unique
        apply_to = DiffOp.apply_to  # image_counts' counting wrapper

        def recorded(self, poly, derivatives=None):
            assert derivatives is not None
            assert tables.setdefault(id(derivatives), (derivatives, poly))[1] is poly
            return apply_to(self, poly, derivatives)

        monkeypatch.setattr(DiffOp, "apply_to", recorded)
        run_suites(P, ("actions", "irrep"), n_max=4)
        assert len(tables) == 5 and image_counts["apply_to"] == 29 * 5
        levels = [poly for _, poly in tables.values()]
        psis = [[chain_psi(P, n, m) for m in range(n + 1)] for n in range(5)]
        assert levels == [weyl.linear_combination(P.mode, [(1, psi) for psi in level]) for level in psis]
        # no two psi of a level share a monomial: each lies on its own charge
        assert [len(level.nums) for level in levels] == [sum(len(psi.nums) for psi in level) for level in psis]
        stored = model.point_cache(P).values()  # the conjugations too
        assert not any(value is table for value in stored for table, _ in tables.values())

    def test_charge_parts_sum_to_the_operator(self, params):
        # each part of an operator shifts the charge by one amount; together
        # they are the operator
        for rule in ACTION_RULES:
            op = model.conjugated(params, rule.op_name)
            parts = verifier._charge_parts(op)
            assert sum(parts.values(), DiffOp.zero(op.mode)) == op
            for shift, part in parts.items():
                assert {i - j - k + l for i, j, k, l in part.nums} == {shift}

    @pytest.mark.parametrize("point, n_max", [
        (Params.exact(1, F(1, 2)), 8), (Params.exact(F(3, 2), F(2, 3)), 8),
        (Params.from_ab(0.79, 0.23), 10), (Params.from_ab(1.0, 0.25), 10), (Params.from_ab(3.0, 1.0), 10),
        (Params.from_ab(100.0, 1.0), 10), (Params.exact(F(10) ** 100, 1), 8),
    ], ids=["exact-1-1/2", "exact-3/2-2/3", "float-0.79-0.23", "float-1-0.25", "float-3-1", "float-100-1",
            "exact-1e100-1"])
    def test_reports_equal_the_per_step_reference(self, point, n_max):
        # the stacked pass reports what the per-(n, m) pass reports: ids,
        # anchors, statuses and residuals
        strip = lambda r: (r.relation_id, r.anchor, r.mode, r.status, r.residual)  # noqa: E731
        got = verifier._image_pass(point, ("actions", "irrep"), n_max, verifier.DEFAULT_TOL)
        want = reference_pass.image_pass(point, ("actions", "irrep"), n_max)
        assert [list(map(strip, reports)) for reports in got] == [list(map(strip, reports)) for reports in want]
        if point.p > 10**50:  # the float readings of the higher levels overflow
            assert {r.status for r in got[1] if r.relation_id.endswith(".float")} == {"skip"}

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_a_wrong_coefficient_fails_at_its_own_step(self, point, request, monkeypatch):
        # a stacked image carries every step of its level; a relative error of
        # 1e-3 in B-'s psi[n-1,m-1] coefficient at (5, 2) alone fails
        # action.B- there, as the per-(n, m) pass sees it, and nothing else
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        terms = next(r for r in v.ACTION_RULES if r.rule_id == "action.B-").terms

        def perturbed(P, n, m):
            return [(n2, m2, c * P.s(F(1001, 1000)) if (n, m, n2, m2) == (5, 2, 4, 1) else c)
                    for n2, m2, c in terms(P, n, m)]

        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(v.ACTION_RULES, "action.B-", terms=perturbed))
        reports = check_actions(P, n_max=7)
        assert _failing(reports) == {"action.B-"}
        assert next(r for r in reports if r.failed).anchor.endswith("[worst at n,m=(5, 2)]")
        strip = lambda r: (r.relation_id, r.anchor, r.status, r.residual)  # noqa: E731
        assert list(map(strip, reports)) == list(map(strip, reference_pass.image_pass(P, ("actions",), 7)[0]))

    def test_exact_run_builds_nothing_in_floats(self, monkeypatch):
        # the .float reports and the quadrature oracle read the run's own exact
        # objects in floats: no float point, so no float basis, and no phi
        built = Counter()
        post_init = Params.__post_init__

        def counted(self):
            built[self.mode] += 1
            post_init(self)

        def refused(*args):
            raise AssertionError("an exact run built phi")

        monkeypatch.setattr(Params, "__post_init__", counted)
        monkeypatch.setattr(model, "build_phi", refused)
        P = Params.exact(F(5, 3), F(2, 7))
        reports = run_suites(P, SUITES, n_max=4)
        assert built == {"exact": 1}
        assert all(r.passed for r in reports) and len(reports) == 202

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_coeff_sq_evaluated_once_per_step(self, point, request, monkeypatch):
        # the .sq and .float reports of a ladder rule share its coeff_sq at (n, m)
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        calls = Counter()

        def counted(rule):
            def coeff_sq(j, mu):
                calls[rule.rule_id, j, mu] += 1
                return rule.coeff_sq(j, mu)
            return replace(rule, coeff_sq=coeff_sq)

        monkeypatch.setattr(v, "LADDER_RULES", tuple(counted(rule) for rule in v.LADDER_RULES))
        assert all(r.passed for r in v.check_irrep(P, n_max=4))
        assert len(calls) == len(LADDER_RULES) * 15 and set(calls.values()) == {1}

    def test_no_basis_function_without_actions_or_irrep(self, monkeypatch):
        # structure alone reads no image, so the pass builds no psi at all
        monkeypatch.setattr(model, "_POINTS", {})
        P = Params.from_ab(49 / 16, 9 / 25)  # a float point: structure evaluates directly
        run_suites(P, ("structure",), n_max=24)
        keys = [key for key in model.point_cache(P) if isinstance(key, tuple)]
        assert keys and not any(key[0] is model.chain_psi.__wrapped__ for key in keys)

    def test_every_irrep_rule_has_an_action_rule(self):
        # the image pass reads each irrep rule off the images of its
        # operator's action rule
        assert {rule.op_name for rule in DIAGONAL_RULES + LADDER_RULES} <= {rule.op_name for rule in ACTION_RULES}

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_no_difference_polynomial_is_built(self, point, request, monkeypatch):
        # each residual is read off the image and its targets in one pass: with
        # the polynomial linear combination disabled the suites still pass. The
        # first run fills the point's store with psi; the image pass itself
        # combines nothing.
        P = request.getfixturevalue(point)
        before = check_actions(P, n_max=4) + check_irrep(P, n_max=4)

        def refused(*args, **kwargs):
            raise AssertionError("the image pass built a linear combination")

        for owner in (Poly2, weyl, verifier):  # the verifier too, should it import the name
            monkeypatch.setattr(owner, "linear_combination", refused, raising=False)
        after = check_actions(P, n_max=4) + check_irrep(P, n_max=4)
        assert all(r.passed for r in after)
        assert [(r.relation_id, r.residual) for r in after] == [(r.relation_id, r.residual) for r in before]

    def test_float_claims_are_the_rounded_exact_claims(self, monkeypatch):
        # a float run evaluates every claim on j = n/2, mu = m - n/2 in floats,
        # with no Fraction: equal floats are equal bits, but for the sign of a
        # zero (0.0 * -1.0 is -0.0), which no residual reads (abs, sqrt and a
        # falsy coefficient treat both alike)
        import jordan_osc.verifier as v

        seen = []

        def recorded(rule, field):
            claim = getattr(rule, field)

            def recording(j, mu):
                value = claim(j, mu)
                seen.append((claim, j, mu, value))
                return value
            return replace(rule, **{field: recording})

        monkeypatch.setattr(v, "DIAGONAL_RULES", tuple(recorded(r, "eigenvalue") for r in v.DIAGONAL_RULES))
        monkeypatch.setattr(v, "LADDER_RULES", tuple(recorded(r, "coeff_sq") for r in v.LADDER_RULES))
        v.check_irrep(Params.from_ab(0.79, 0.23), n_max=24)
        assert len(seen) == (len(DIAGONAL_RULES) + len(LADDER_RULES)) * 25 * 26 // 2
        for claim, j, mu, value in seen:
            assert type(j) is float and type(mu) is float and type(value) is float
            n, m = int(2 * j), int(mu + j)
            assert (j, mu) == (F(n, 2), F(2 * m - n, 2))
            assert value == float(F(claim(F(n, 2), F(2 * m - n, 2))))

    def test_float_point_3_1_passes_the_lowering_d_ladders(self):
        # with the conjugations rounded once from the dyadic twin; built in
        # floats, D-11 and D-12 failed here (residuals 3.5e-8 and 5.5e-9)
        reports = {r.relation_id: r for r in check_irrep(Params.from_ab(3.0, 1.0), n_max=16)}
        for rid in ("irrep.D-11.float", "irrep.D-12.float"):
            assert reports[rid].passed and float(reports[rid].residual) < 1e-15, rid

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_each_target_size_read_once(self, point, request, monkeypatch):
        # a psi is the target of up to 12 ladder rules, and the direct reports
        # read its largest coefficient once for all of them
        reads = Counter()
        max_magnitude = Poly2.max_magnitude

        def counted(self):
            reads[id(self)] += 1
            return max_magnitude(self)

        monkeypatch.setattr(Poly2, "max_magnitude", counted)
        check_irrep(request.getfixturevalue(point), n_max=6)
        assert len(reads) > 1 and set(reads.values()) == {1}

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_each_basis_function_read_once(self, point, request, monkeypatch):
        # each psi_{n,m} is the target of up to a dozen steps, and the pass
        # reads it from the point's store once
        reads = Counter()

        def counted(P, n, m):
            reads[n, m] += 1
            return model.chain_psi(P, n, m)

        monkeypatch.setattr(verifier, "chain_psi", counted)
        run_suites(request.getfixturevalue(point), ("actions", "irrep"), n_max=6)
        assert set(reads.values()) == {1} and len(reads) == 45  # up to level 6 + 2


class TestPseudoHermiticity:
    def test_passes(self, params):
        report = check_pseudo_hermiticity(params)
        assert report.passed and report.residual == "0"

    def test_detects_a_derivative_defect(self, params, monkeypatch):
        # H + z dz and H + dz are no longer swap-Hermitian: the adjoint sends
        # z dz to -(zbar dzbar + 1) and dz to -dzbar, so each leaves a
        # pseudo.H residual of exactly 2 ...
        for defect in (DiffOp.z("exact") * DiffOp.dz("exact"), DiffOp.dz("exact")):
            ham = make_operator(params, "H") + defect
            monkeypatch.setattr(verifier, "make_operator", lambda P, name: ham)
            report = check_pseudo_hermiticity(params)
            assert not report.passed and report.residual == "2"

    def test_real_defect_stays_invisible(self, params):
        # ... while H + z is not: a multiplication operator with real
        # coefficients is its own swapped adjoint
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
        assert oracle.skipped and oracle.status == "skip" and "skip" in oracle.anchor
        assert not oracle.passed and not oracle.failed
        assert oracle.residual == "n/a"

    def test_norms_read_the_gram_blocks(self, params, monkeypatch):
        # integrals.norms takes each <<psi_n0|psi_n0>> from the gram block of
        # level n; the suite pairs nothing itself but the oracle's exact values
        calls = Counter()
        pair = verifier.inner_product

        def counted(*args):
            calls["pair"] += 1
            return pair(*args)

        monkeypatch.setattr(verifier, "inner_product", counted)
        reports = check_integrals(params, n_max=8)
        assert all(r.passed for r in reports) and calls["pair"] == 5

    def test_wrong_chain_weight_cannot_pass(self, params, monkeypatch):
        # (s+1)!/2^s in place of s!/2^s: equal at s = 0 only
        def wrong_weights(mode, top):
            return to_ints(mode, [lift(F(factorial(s + 1), 2**s), mode) for s in range(top + 1)])

        monkeypatch.setattr(gaussint, "_chain_weights", wrong_weights)
        statuses = {r.relation_id: r.status for r in check_integrals(params, n_max=8)}
        assert statuses["integrals.gram"] == statuses["integrals.jordan"] == "fail"
        assert statuses["integrals.oracle"] == "fail"

    def test_corrupted_basis_coefficient_cannot_pass(self, monkeypatch):
        # one coefficient of chain_psi at one level n <= 8, seen by every caller;
        # a top-degree one, since a term of degree < n lies in the span of the
        # lower levels, which the within-level pairs do not read
        monkeypatch.setattr(model, "_POINTS", {})
        P = Params.exact(F(3, 2), F(2, 3))
        psi = chain_psi(P, 5, 2)
        key = max(psi.nums, key=sum)
        corrupted = Poly2._normalized(psi.mode, {**psi.nums, key: psi.nums[key] + 1}, psi.den)
        model.point_cache(P)[model.chain_psi.__wrapped__, 5, 2] = corrupted
        assert chain_psi(P, 5, 2) is corrupted
        statuses = {r.relation_id: r.status for r in check_integrals(P, n_max=8)}
        assert statuses["integrals.gram"] == statuses["integrals.jordan"] == "fail"

    def test_skipped_report_cannot_pass(self):
        with pytest.raises(ValueError):
            Report("x", "x", "exact", True, "0", 0.0, skipped=True)


class TestRunSuites:
    def test_full_run(self, params):
        reports = run_suites(params, ("structure", "actions", "irrep", "pseudo", "integrals"),
                             n_max=4)
        assert all(r.passed for r in reports)
        assert len(reports) > 180

    def test_cutoffs_name_what_each_suite_ran_at(self, params):
        assert suite_cutoffs(SUITES, 16) == {
            "structure": None, "actions": 16, "irrep": 16, "pseudo": None,
            "integrals": 8, "integrals.resolution": 5,
        }
        assert suite_cutoffs(("integrals", "actions"), 3) == {
            "integrals": 3, "integrals.resolution": 3, "actions": 3,
        }
        cutoffs = suite_cutoffs(("integrals",), 9)
        anchors = {r.relation_id: r.anchor for r in run_suites(params, ("integrals",), n_max=9)}
        assert anchors["integrals.gram"].endswith(f"n <= {cutoffs['integrals']}")
        assert f"degree <= {cutoffs['integrals.resolution']} " in anchors["integrals.resolution"]

    def test_unknown_suite_rejected(self, params):
        with pytest.raises(ValueError):
            run_suites(params, ("nonsense",))

    def test_repeated_suite_rejected(self, params):
        with pytest.raises(ValueError, match="'pseudo' is named twice"):
            run_suites(params, ("pseudo", "integrals", "pseudo"))

    def test_report_ids_are_unique_and_builtin_ones_reserved(self, params):
        # a catalog id cannot take a built-in check's id, since those lie in
        # namespaces parse_relations rejects
        reports = run_suites(params, SUITES, n_max=2)
        ids = [r.relation_id for r in reports]
        assert len(set(ids)) == len(ids)
        catalog_ids = {s.rel_id for s in load_relations()}
        builtin = [i for i in ids if i not in catalog_ids]
        assert len(builtin) == len(ids) - len(catalog_ids) > 0
        assert all(i.startswith(verifier.BUILTIN_ID_PREFIXES) for i in builtin)
        assert not any(i.startswith(verifier.BUILTIN_ID_PREFIXES) for i in catalog_ids)

    def test_reports_deterministic_modulo_timing(self, params):
        first = run_suites(params, ("pseudo",))
        second = run_suites(params, ("pseudo",))
        strip = lambda r: (r.relation_id, r.anchor, r.mode, r.passed, r.residual)  # noqa: E731
        assert [strip(r) for r in first] == [strip(r) for r in second]


class TestCheckAccumulator:
    """_Check builds every report: worst residual, its location, verdict."""

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_fails_a_float_report_in_any_order(self, position):
        from jordan_osc.verifier import _Check

        residuals = [1e-13, 1e-12]
        residuals.insert(position, float("nan"))
        check = _Check("x", "x", "float", 1e-10)
        for m, residual in enumerate(residuals):
            check.add(residual, (2, m))
        report = check.report()
        assert report.failed and report.residual == "nan"
        assert report.anchor == f"x [worst at n,m={(2, position)}]"

    @pytest.mark.parametrize("mode, worst", [("exact", F(1, 3)), ("float", 1e-13)])
    def test_a_zero_changes_nothing_and_a_nan_still_wins(self, mode, worst):
        from jordan_osc.verifier import _Check

        check = _Check("x", "x", mode, 1e-10)
        check.add(lift(0, mode), (1, 0))
        assert (check.worst, check.at) == (0, None)
        check.add(worst, (2, 1))
        for zero in (0, lift(0, mode), -0.0 if mode == "float" else F(0)):
            check.add(zero, (3, 0))
            assert check.worst is worst and check.at == (2, 1)
        if mode == "float":
            check.add(NAN, (4, 0))
            check.add(0.0, (5, 0))
            assert isnan(check.worst) and check.at == (4, 0)

    @pytest.mark.parametrize("mode, bad", [("exact", F(1, 3)), ("float", 1e-3), ("float", float("nan"))])
    def test_a_found_failure_beats_a_skip(self, mode, bad):
        from jordan_osc.verifier import _Check

        for first_skip in (True, False):
            check = _Check("x", "x", mode, 1e-10)
            if first_skip:
                check.skip("why")
            check.add(bad, (1, 0))
            check.skip("why")
            report = check.report()
            assert report.status == "fail" and report.residual == str(bad)
            assert report.anchor == "x [worst at n,m=(1, 0)]; why"
        check = _Check("x", "x", mode, 1e-10)
        check.add(lift(0, mode) if mode == "exact" else 1e-12, (1, 0))
        check.skip("why")
        assert (check.report().status, check.report().anchor, check.report().residual) == ("skip", "why", "n/a")

    def test_a_failure_below_an_overflow_is_reported(self, monkeypatch):
        # at p = 1e100 the float readings of the higher levels overflow, so the
        # .float reports skip; a wrong su(2) factor at (2, 1) fails each of them
        # that reads phi[2,1] before that
        import jordan_osc.verifier as v

        P = Params.exact(F(10) ** 100, 1)
        assert {r.status for r in v.check_irrep(P, n_max=8) if r.relation_id.endswith(".float")} == {"skip"}
        factor = v.su2_factor
        monkeypatch.setattr(v, "su2_factor", lambda n, m: factor(n, m) * (sqrt(1.000001) if (n, m) == (2, 1) else 1))
        reports = {r.relation_id: r for r in v.check_irrep(P, n_max=8) if r.relation_id.endswith(".float")}
        skipped = {rid for rid, r in reports.items() if r.skipped}
        assert skipped == {"irrep.D+11.float"}  # its only step at phi[2,1] targets psi[4,3], which overflows
        for rid, r in reports.items():
            if rid not in skipped:
                assert r.failed and 4e-7 < float(r.residual) < 6e-7, rid
                assert r.anchor.startswith(rid[len("irrep."):-len(".float")] + " phi = "), rid
                assert r.anchor.endswith(f"; {v.FLOAT_OVERFLOW}"), rid

    def test_verdict_by_mode(self):
        from jordan_osc.verifier import _Check

        exact, close = _Check("e", "e", "exact", 1e-10), _Check("f", "f", "float", 1e-10)
        exact.add(F(1, 10**20))
        close.add(1e-11)
        assert exact.report().failed and close.report().passed
        assert _Check("z", "z", "exact", 1e-10).report().residual == "0"


NAN = float("nan")


def _with_nan(values: list, position: int) -> list:
    return values[:position] + [NAN] + values[position:]


class TestResidualsKeepNaN:
    """A NaN in any part of one residual makes that residual NaN, whether it
    comes first, in the middle or last (a plain max keeps it only when first)."""

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_max_magnitude(self, position):
        coeffs = _with_nan([1.0, -2.0], position)
        assert isnan(Poly2(FLOAT, {(i, 0): c for i, c in enumerate(coeffs)}).max_magnitude())

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_split_terms(self, position):
        terms = [(n, 0, c) for n, c in enumerate(_with_nan([1.0, -2.0], position), start=1)]
        coeff, stray = verifier._split_terms(terms + [(0, 0, 3.0)], 0, 0)
        assert coeff == 3.0 and isnan(stray)

    @pytest.mark.parametrize("part", ["image", "stray", "coefficient"])
    def test_eigenvalue_residual(self, fparams, part):
        # J0 psi_{2,1} = 0: the parts are the image residual, the stray terms
        # and the coefficient's distance from the eigenvalue, in that order
        terms = [(2, 1, NAN if part == "coefficient" else 5.0), (2, 0, NAN if part == "stray" else 3.0)]
        image_residual = NAN if part == "image" else 1.0
        rule = DIAGONAL_RULES[0]
        assert isnan(verifier._eigenvalue_residual(fparams, rule, 2, 1, _at(rule, 2, 1), terms, None, image_residual))

    @pytest.mark.parametrize("part", ["image", "stray", "coefficient"])
    def test_squared_ladder_residual(self, params, part):
        # J+ psi_{2,0} targets psi_{2,1}
        terms = [(2, 1, NAN if part == "coefficient" else 1.0), (2, 0, NAN if part == "stray" else 3.0)]
        image_residual = NAN if part == "image" else F(1)
        rule = LADDER_RULES[0]
        assert isnan(verifier._squared_ladder_residual(params, rule, 2, 0, _at(rule, 2, 0), terms, None,
                                                       image_residual))

    def test_exact_float_reading_that_overflows_raises(self, params):
        # a scaled image beyond the float range: its int / int reading is an
        # infinity, so the residual is no number to compare
        big = Poly2("exact", {(1, 0): F(10**308)})
        rule = next(r for r in LADDER_RULES if r.rule_id == "irrep.J+")  # J+ phi_{1,0} = phi_{1,1}
        c2 = _at(rule, 1, 0)
        [(c, _, _)] = verifier._direct_target(rule, 1, 0, c2)
        [reading] = weyl.residual_magnitude(FLOAT, [(c, big)], big.scale(F(2)), {1: model.su2_factor(1, 0)}).values()
        assert reading == float("inf")
        with pytest.raises(OverflowError):
            verifier._float_ladder_residual(params, rule, 1, 0, c2, [], reading, None,
                                            sizes=lambda n, m: float(big.max_magnitude()))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_float_ladder_residual_off_the_grid(self, fparams, position):
        # J+ phi_{1,1} should vanish (its target lies off the grid), so the
        # residual is the image's largest magnitude
        coeffs = _with_nan([1e-20, 2e-20], position)
        image = Poly2(FLOAT, {(i, 1): c for i, c in enumerate(coeffs)})
        rule = LADDER_RULES[0]
        reading = verifier.max_or_nan(0.0, *weyl.residual_magnitude(FLOAT, [], image).values())
        assert isnan(verifier._float_ladder_residual(fparams, rule, 1, 1, _at(rule, 1, 1), [], reading, 0.0,
                                                     sizes=None))
