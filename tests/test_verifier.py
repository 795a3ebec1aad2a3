"""Relation catalog, expression grammar, and the five verification suites."""

import importlib.util
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from math import factorial, isnan, sqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jordan_osc import (
    ACTION_RULES,
    EXPLICIT_NAMES,
    FLOAT,
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

_ACTION_OF = {rule.op_name: rule for rule in ACTION_RULES}
#: the four boson rules, which tie the basis to the Fock module, and the 19
#: rules derived from them for every n
BOSON_RULES = {f"action.{op}" for op in verifier._BOSONS}
DERIVED = {rule.rule_id for rule in ACTION_RULES} - BOSON_RULES
#: the rules with an irrep claim whose action term moves (n, m)
LADDERS = tuple(rule for rule in ACTION_RULES if rule.claim is not None and rule.terms[0][:2] != (0, 0))

#: (a, b) of float points, from everyday to where a basis function or a float
#: operator leaves the float range; (p, q) of exact ones
FLOAT_POINTS = [(0.79, 0.23), (1.0, 0.25), (3.0, 1.0), (100.0, 1.0), (1e-10, 1e-11), (1e-200, 1e-201),
                (1e120, 1e119), (1e300, 1e299)]
EXACT_POINTS = [(1, F(1, 2)), (F(3, 2), F(2, 3)), (10**50, 1)]


def _term(point, rule, n, m):
    """The one action term (c, n', m') an irrep claim reads at psi_{n,m}."""
    [(dn, dm, literal, table)] = rule.terms
    return model._scalar(literal, point) * verifier._levels(table, n)[n][m], n + dn, m + dm


def _strip(report):
    return report.relation_id, report.anchor, report.mode, report.status, report.residual


def _assert_matches_the_reference(got, want):
    """(action reports, irrep reports) as the per-step reference gives them:
    ids, anchors, modes, statuses and residuals."""
    assert [list(map(_strip, reports)) for reports in got] == [list(map(_strip, reports)) for reports in want]


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


#: the 14 osp(1/4) generators, the four odd ones first
_ODD = ("a1+", "a1-", "a2+", "a2-")
_OSP = _ODD + ("E11", "E12", "E21", "E22", "D+11", "D+12", "D+22", "D-11", "D-12", "D-22")


def _graded_brackets(specs) -> Counter:
    """How many lines of ``specs`` hold each unordered pair of osp(1/4)
    generators under its graded bracket, on either side: acomm if both are
    odd, else comm (D+21 and D-21 read as D+12 and D-12)."""
    def brackets(tree) -> set:
        if isinstance(tree, str):
            return set()
        found = set().union(*map(brackets, tree[1:]))
        pair = frozenset(model._ALIASES.get(arg, arg) for arg in tree[1:])
        if pair <= set(_OSP) and tree[0] == ("acomm" if pair <= set(_ODD) else "comm"):
            found.add(pair)
        return found

    return Counter(pair for spec in specs
                   for pair in brackets(model.parse_expression(spec.lhs)) | brackets(model.parse_expression(spec.rhs)))


def test_every_osp_pair_has_one_graded_bracket():
    # 45 even-even, 40 odd-even and 10 odd-odd pairs, an odd generator with
    # itself included; dropping any of those lines is seen
    pairs = {frozenset((x, y)) for i, x in enumerate(_OSP) for y in _OSP[i:] if x != y or x in _ODD}
    assert len(pairs) == 95
    specs = load_relations()
    assert _graded_brackets(specs) == Counter(dict.fromkeys(pairs, 1))
    stated = [spec for spec in specs if _graded_brackets([spec])]
    assert len(stated) == 95
    for dropped in stated:
        assert _graded_brackets([spec for spec in specs if spec is not dropped]) != Counter(dict.fromkeys(pairs, 1))


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
        # not use, is c times a^i times b^j at the twin, rounded once at the
        # float point; so is each action term's literal, as the image pass reads it
        tokens = {tok for spec in load_relations() + load_negative_controls()
                  for side in (spec.lhs, spec.rhs) for tok in side.split() if model._SCALAR_TOKEN.fullmatch(tok)}
        tokens |= {"8*ab", "-3/7*ab"}
        assert {tok.partition("*")[2] for tok in tokens} == {"", "a", "b", "ab"}
        twin = point.twin
        for tok in tokens:
            c, _, unit = tok.partition("*")
            want = float(F(c) * twin.a ** unit.count("a") * twin.b ** unit.count("b"))
            assert eval_expression(tok, point) == DiffOp.constant(want), tok
        for rule in ACTION_RULES:
            terms = verifier._terms(point, rule, 0)
            for dn, dm, literal, _ in rule.terms:
                assert terms[2 * dm - dn][2:4] == ([float(model._scalar(literal, twin))], 1), (rule.rule_id, literal)


class TestStructureSuite:
    def test_all_relations_pass_exact(self, params):
        reports = check_structure(params)
        assert all(r.passed for r in reports)
        assert all(r.residual == "0" for r in reports)

    def test_all_relations_pass_float(self, fparams):
        reports = check_structure(fparams)
        assert all(r.passed and r.residual == "0" for r in reports)

    def test_second_admissible_point(self):
        P = Params.exact(F(5, 4), F(1, 3))
        assert all(r.passed for r in check_structure(P))

    def test_negative_controls_all_detected(self, params):
        for spec in load_negative_controls():
            report = check_relation(params, spec)
            assert not report.passed, spec.rel_id
            assert report.relation_id == spec.rel_id

    @pytest.mark.parametrize("point", FLOAT_POINTS + EXACT_POINTS, ids=lambda pt: "-".join(map(str, pt)))
    def test_negative_controls_fail_at_every_point(self, point):
        # each control is decided at the point's twin: exactly, with no
        # tolerance for a small residual to pass and no float to overflow
        P = Params.from_ab(*point) if isinstance(point[0], float) else Params.exact(*point)
        for spec in load_negative_controls():
            report = check_relation(P, spec)
            assert report.failed and report.residual != "0", spec.rel_id
            assert _verdicts([report]) == [(spec.rel_id, *_direct(P.twin, spec))]

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(min_value=-150, max_value=150), ratio=st.floats(min_value=0.01, max_value=0.99))
    def test_float_operator_identities_decided_at_the_twin(self, u, ratio):
        # every admissible float point passes the operator identities with
        # residual 0 and fails the controls, and builds no operator of its own
        P = Params.from_ab(10.0**u, 10.0**u * ratio)
        model._POINTS.pop(P, None)
        reports = run_suites(P, ("structure", "pseudo"))
        assert len(reports) == 148 and all(r.passed and r.residual == "0" for r in reports)
        assert all(check_relation(P, spec).failed for spec in load_negative_controls())
        assert not any(isinstance(value, DiffOp) for value in model._POINTS.get(P, {}).values())

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
    verifier._derived.cache_clear()
    model._token_weight.cache_clear()
    monkeypatch.setattr(model, "_POINTS", {})
    yield
    verifier._proven.cache_clear()
    verifier._derived.cache_clear()
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
        verifier._derived.cache_clear()
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

        bad = v.ActionRule("action.bad", "A+ psi = 1/2*p*q^-1 psi[n+1,m]")
        monkeypatch.setattr(v, "ACTION_RULES", (bad,))
        reports = v.check_actions(params, n_max=2)
        assert len(reports) == 1 and not reports[0].passed

    @pytest.mark.parametrize("term", [
        "4*p (n-m) psi[n-1,m]",  # 4*p*q written as 4*p
        "4*p*q (n-m) psi[n-1,m+1]",  # psi[n-1,m+1] for psi[n-1,m]
    ], ids=["literal", "shift"])
    def test_term_of_wrong_weight_is_refused(self, term):
        # psi_{n,m} has weight (n - 2m, 0): B- (weight (0, 1)) takes a term
        # of weight (dn - 2 dm, 0) + weight(literal) = (0, 1) only
        rule = _ACTION_OF["B-"]
        assert rule.anchor.startswith("B- psi = 4*p*q (n-m) psi[n-1,m] + ")
        text = rule.anchor.replace("4*p*q (n-m) psi[n-1,m]", term)
        with pytest.raises(ValueError, match=r"action\.B-: the term .* has weight .*, the operator \(0, 1\)"):
            replace(rule, anchor=text)

    def test_two_terms_of_one_charge_shift_are_refused(self):
        # J+ psi[n,m+1] and a psi[n+2,m+2] term both shift the charge by 2, so
        # one charge part of J+ would meet two targets
        rule = _ACTION_OF["J+"]
        with pytest.raises(ValueError, match=r"action\.J\+: two terms shift the charge 2dm - dn by one amount"):
            replace(rule, anchor=rule.anchor + " + 1 psi[n+2,m+2]", irrep="")

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_a_target_no_part_reaches_reports_its_size(self, point, request, monkeypatch):
        # J+ has no charge part of shift 0, so nothing of its image meets a
        # psi[n,m] term: action.J+ then reads the size of that target, a^-1
        # psi_{n,m}, relative to that size, so 1 in both modes, first met at
        # (0, 0), as the per-(n, m) pass does
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        assert 0 not in v._charge_parts(model.conjugated(P, "J+"))
        rule = _ACTION_OF["J+"]
        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(
            v.ACTION_RULES, "action.J+", anchor=rule.anchor + " + 1*a^-1 psi[n,m]", irrep=""))
        terms = reference_pass.TERMS["action.J+"] + ((0, 0, "1*a^-1", lambda n, m: 1),)
        monkeypatch.setitem(reference_pass.TERMS, "action.J+", terms)
        reports = check_actions(P, n_max=5)
        assert _failing(reports) == {"action.J+"}
        failed = next(r for r in reports if r.failed)
        assert failed.residual == str(lift(1, P.mode))
        assert failed.anchor.endswith("[worst at n,m=(0, 0)]")
        # the derivation refutes the rule, so it is read; a float point's
        # derived rules read 0, where a reading gives rounding
        derived = DERIVED - {"action.J+"} if P.mode == FLOAT else ()
        strip = lambda r: (r.relation_id, r.anchor, r.status, r.residual)  # noqa: E731
        assert list(map(strip, reports)) == list(map(strip, reference_pass.image_pass(P, ("actions",), 5,
                                                                                       derived=derived)[0]))

    def test_each_report_anchor_is_its_rule_text(self, params):
        # a rule is stated once: its text is the data the pass reads and,
        # verbatim, the anchor of its report
        reports = check_actions(params, n_max=3)
        assert [(r.relation_id, r.anchor) for r in reports] == [(rule.rule_id, rule.anchor) for rule in ACTION_RULES]

    def test_the_texts_hold_the_reference_coefficients(self):
        # every parsed term (shift, literal, value) and every claim equals its
        # hand-written copy in the reference pass at every 0 <= m <= n <= 25;
        # J0's half-integer claims compare exactly
        assert len(ACTION_RULES) == len(reference_pass.TERMS) == 23
        assert {rule.rule_id for rule in ACTION_RULES if rule.claim is not None} == reference_pass.CLAIMS.keys()
        for rule in ACTION_RULES:
            copies = reference_pass.TERMS[rule.rule_id]
            assert [term[:3] for term in rule.terms] == [term[:3] for term in copies], rule.rule_id
            for (*_, table), (*_, poly) in zip(rule.terms, copies):
                levels = verifier._levels(table, 25)
                assert all(levels[n][m] == poly(n, m) for n in range(26) for m in range(n + 1)), rule.rule_id
            if rule.claim is not None:
                levels = verifier._levels(rule.claim, 25)
                assert all(levels[n][m] == reference_pass.claim_at(rule.rule_id, n, m)
                           for n in range(26) for m in range(n + 1)), rule.rule_id
        assert any(type(value) is F for level in verifier._levels(_ACTION_OF["J0"].claim, 25) for value in level)

    def test_anchors_of_the_irrep_reports_derive_from_the_rule(self, params):
        # the claim as written, and the target phi_{j',mu'} of the action shift
        anchors = {r.relation_id: r.anchor for r in check_irrep(params, n_max=1)}
        assert anchors["irrep.J0"] == "J0 phi = mu phi"
        assert anchors["irrep.K"] == "K phi = (2*j+1) phi"
        assert anchors["irrep.J+.sq"] == "J+ phi = sqrt((j-mu)*(j+mu+1)) phi[j,mu+1] (squared values)"
        assert anchors["irrep.a2-.float"].startswith("a2- phi = sqrt(j-mu) phi[j-1/2,mu+1/2] (in floats, relative")
        assert anchors["irrep.D-11.sq"] == "D-11 phi = sqrt((j+mu)*(j+mu-1)) phi[j-1,mu-1] (squared values)"

    @pytest.mark.parametrize("text, irrep, refusal", [
        ("K psi = 1 (n+1)", "", "the term '1 (n+1)' is no"),
        ("K psi = (n+1) psi[n,m]", "", "the term '(n+1) psi[n,m]' is no"),
        ("K psi = 1 (n+q) psi[n,m]", "", "'q' in '(n+q)'"),
        ("K psi = 1 (n+1)/2 psi[n,m]", "", "'(n + 1) / 2' in '(n+1)/2'"),
        ("K psi = 1 n**2 psi[n,m]", "", "'n ** 2' in 'n**2'"),
        ("K psi = 1 1.5*n psi[n,m]", "", "'1.5' in '1.5*n'"),
        ("K psi = 1 (n+1 psi[n,m]", "", "'(' was never closed"),
        ("K psi = 1 (n+1) psi[n,m]", "n+1", "'n' in 'n+1': an index polynomial takes integers, j, mu,"),
        ("B- psi = 4*p*q (n-m) psi[n-1,m] + 1/2*q*p^-1 psi[n-1,m-1]", "j", "an irrep claim needs a rule of one term"),
    ], ids=["no-target", "no-literal", "unknown-symbol", "division", "power", "float", "syntax", "claim-in-n-m",
            "claim-on-two-terms"])
    def test_the_parser_refuses_what_is_no_rule(self, text, irrep, refusal):
        # each refusal is a ValueError naming the rule
        with pytest.raises(ValueError, match="^action\\.X: " + re.escape(refusal)):
            verifier.ActionRule("action.X", text, irrep)


class TestIrrepSuite:
    def test_exact_squared_and_float_direct(self, params):
        reports = check_irrep(params, n_max=6)
        assert all(r.passed for r in reports), [r.relation_id for r in reports if not r.passed]
        sq = [r for r in reports if r.relation_id.endswith(".sq")]
        fl = [r for r in reports if r.relation_id.endswith(".float")]
        assert len(sq) == len(LADDERS) == 12
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


def _at(rule, n, m, factor=1):
    """A rule's claimed value at psi_{n,m}, at j = n/2, mu = m - n/2, times ``factor``."""
    return F(verifier._levels(rule.claim, n)[n][m]) * factor


class TestBoundDesign:
    """The .float residual bounds the direct reading of op phi - c phi' over
    c T to a factor 2, so a pass it gives is one that reading gives, and it
    sees a wrong claim however small the target; the benchmark's points pass."""

    @pytest.mark.parametrize("point", [
        Params.exact(F(3, 2), F(2, 3)), Params.from_ab(0.79, 0.23), Params.from_ab(1e-10, 1e-11),
    ], ids=["exact-3/2-2/3", "float-0.79-0.23", "float-1e-10-1e-11"])
    def test_the_bound_is_at_least_the_direct_reading(self, point):
        # at every ladder step with n <= 8, with the true claim and the claim
        # times 1 + 1e-8: the reference's direct reading of |op phi - c phi'|,
        # c = sqrt(claim) su2_factor(n', m'), over c T (off the grid: as it is)
        # is at most twice the step's .float residual, less rounding
        basis = cache(partial(model.chain_psi, point))
        for rule in LADDERS:
            images = {(n, m): model.apply(point, rule.op_name, basis(n, m)) for n in range(9) for m in range(n + 1)}
            for factor in (1, 1 + F(1, 10**8)):
                worst = 0.0
                for (n, m), image in images.items():
                    target, c2 = _term(point, rule, n, m), _at(rule, n, m, factor)
                    w, n2, m2 = target
                    in_grid = 0 <= m2 <= n2
                    targets = [(w, basis(n2, m2), 2 * m2 - n2)] if w and in_grid else []
                    rho = reference_pass.step_residual(point.mode, targets, image)
                    got = verifier._float_ladder_residual(n, m, c2, target, rho)
                    reading = reference_pass.direct_reading(target, n, m, c2, image, basis)
                    if in_grid:
                        reading /= sqrt(c2) * verifier.su2_factor(n2, m2) * float(basis(n2, m2).max_magnitude())
                    assert reading <= 2 * got + 1e-15, (rule.rule_id, factor, n, m)
                    worst = max(worst, got)
                if factor != 1:
                    assert 4e-9 < worst < 6e-9, rule.rule_id
                else:
                    assert worst <= 1e-15, rule.rule_id

    @pytest.mark.parametrize("point, n_max", [(Params.exact(1, F(1, 2)), 16), (Params.from_ab(0.79, 0.23), 24)],
                             ids=["exact-1-1/2-n16", "float-0.79-0.23-n24"])
    def test_the_benchmark_points_pass_every_check(self, point, n_max):
        # the float point too: its action and diagonal residuals are relative
        # per charge line, where absolute ones failed all 23 action.*,
        # irrep.J0 and irrep.K
        reports = run_suites(point, SUITES, n_max=n_max)
        assert len(reports) == (202 if point.mode == "exact" else 190)
        assert not [r.relation_id for r in reports if r.failed or r.skipped]


def _scaled_term(rule, k, factor=F(10**8 + 1, 10**8)):
    """``rule`` with its k-th term's coefficient table times ``factor``."""
    dn, dm, literal, (den, nums) = rule.terms[k]
    table = (den * factor.denominator, tuple((key, c * factor.numerator) for key, c in nums))
    scaled = replace(rule)
    object.__setattr__(scaled, "terms", rule.terms[:k] + ((dn, dm, literal, table),) + rule.terms[k + 1:])
    return scaled


class TestRelativeFloatResiduals:
    """A float residual is relative per charge line: scale-free, so the
    verdicts hold at any admissible point, and a relative error in one
    coefficient fails wherever it sits."""

    @pytest.mark.parametrize("ab, n_max", [
        ((0.79, 0.23), 10), ((1.0, 0.25), 10), ((3.0, 1.0), 10), ((100.0, 1.0), 10), ((1e-10, 1e-11), 10),
        ((1e10, 1e9), 12),
    ], ids=["0.79-0.23", "1-0.25", "3-1", "100-1", "1e-10-1e-11", "1e10-1e9"])
    def test_any_term_scaled_by_1e_8_fails_its_rule(self, ab, n_max, monkeypatch):
        P = Params.from_ab(*ab)
        assert not _failing(check_actions(P, n_max=n_max))
        scaled = 0
        for rule in ACTION_RULES:
            for k in range(len(rule.terms)):
                monkeypatch.setattr(verifier, "ACTION_RULES", (_scaled_term(rule, k),))
                assert _failing(check_actions(P, n_max=n_max)) == {rule.rule_id}, (rule.rule_id, k)
                scaled += 1
        assert scaled == 29

    @pytest.mark.parametrize("ab", [(1e-10, 1e-11), (0.79, 0.23)], ids=["1e-10-1e-11", "0.79-0.23"])
    def test_a_wrong_claim_fails_at_a_small_target(self, ab, monkeypatch):
        # J- psi_{n,1} = psi_{n,0} = (4pq)^n zbar^n, tiny at (1e-10, 1e-11):
        # J-'s claim times 1 + 1e-6 at the steps (n, 1) alone fails
        # irrep.J-.float by as much as at an everyday point
        claim, levels = _ACTION_OF["J-"].claim, verifier._levels

        def scaled(table, n_max):
            got = levels(table, n_max)
            return got if table != claim else [[v * (1 + 1e-6) if m == 1 else v for m, v in enumerate(level)]
                                               for level in got]

        monkeypatch.setattr(verifier, "_levels", scaled)
        reports = {r.relation_id: r for r in check_irrep(Params.from_ab(*ab), n_max=8)}
        assert _failing(reports.values()) == {"irrep.J-.float"}
        assert 4.9e-7 < float(reports["irrep.J-.float"].residual) < 5.1e-7

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.floats(-12, 12), st.floats(-6, 0), st.integers(0, 6))
    def test_no_fail_at_random_admissible_points(self, u, v, n_max):
        # a = 10^u, b = a 10^v 0.999 < a, over 24 decades
        a = 10.0**u
        P = Params.from_ab(a, a * 10.0**v * 0.999)
        assert not _failing(run_suites(P, ("actions", "irrep"), n_max=n_max))

    def test_an_exact_relative_residual_beyond_the_float_range_reads_the_largest_float(self):
        # J+ phi_{1,0} = phi_{1,1}, in an exact run with a relative residual
        # 10^400: no OverflowError, a failing residual; a float run's inf
        # passes unchanged
        rule = _ACTION_OF["J+"]
        target = _term(Params.exact(1, F(1, 2)), rule, 1, 0)
        got = verifier._float_ladder_residual(1, 0, _at(rule, 1, 0), target, F(10**400))
        assert got == sys.float_info.max
        assert verifier._float_ladder_residual(1, 0, _at(rule, 1, 0), target, float("inf")) == float("inf")

    def test_a_failing_exact_report_is_the_same_at_every_scale(self, monkeypatch):
        # sigma_P maps each exact point onto p = q = 1, so a residual relative
        # per charge line reads the same wherever the point sits: with J+'s
        # literal doubled and S's middle coefficient -3*b, each failing report
        # names the same residual at the same (n, m) at four points over 350
        # decades; absolute residuals moved with the point, and so did the step
        # they named
        rules = _replace_rule(ACTION_RULES, "action.J+", anchor=_ACTION_OF["J+"].anchor.replace("= 1 ", "= 2 "))
        rules = _replace_rule(rules, "action.S", anchor=_ACTION_OF["S"].anchor.replace("-2*b n", "-3*b n"))
        monkeypatch.setattr(verifier, "ACTION_RULES", rules)
        points = [Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3)), Params.exact(10**50, 10**49),
                  Params.exact(F(1, 10**175), F(1, 10**177))]
        runs = [list(map(_strip, run_suites(P, ("actions", "irrep"), 8))) for P in points]
        assert runs[1:] == runs[:1] * 3
        failed = {rid: (anchor.rsplit("[", 1)[1], residual) for rid, anchor, _, status, residual in runs[0]
                  if status == "fail"}
        assert failed == {"action.S": ("worst at n,m=(1, 0)]", "1/3"), "action.J+": ("worst at n,m=(1, 0)]", "1/2"),
                          "irrep.J+.sq": ("worst at n,m=(8, 3)]", "60"),
                          "irrep.J+.float": ("worst at n,m=(3, 2)]", "0.5000000000000001")}


def _fraction_squared_ladder_residual(rule, n, m, target, image_residual):
    """The squared-value residual in Fractions throughout (the oracle of the
    integer decision)."""
    c2 = _at(rule, n, m)
    c, n2, m2 = target
    if not (0 <= m2 <= n2):
        return verifier.max_or_nan(image_residual, abs(c2))
    if c < 0:
        return verifier.max_or_nan(image_residual, abs(c))
    ratio = phi_scale_sq(n, m) / phi_scale_sq(n2, m2)
    return verifier.max_or_nan(image_residual, abs(c * c * ratio - c2))


class TestSquaredLadderResidual:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LADDERS), st.integers(0, 9).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.sampled_from([1, 1, -1, F(2), F(1, 3), F(-5, 4), 0]),
           st.sampled_from([F(0), F(1, 7)]),
           st.sampled_from([Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3))]))
    def test_integer_decision_equals_the_fraction_expression(self, rule, nm, factor, image_residual, point):
        # the true action term, its coefficient scaled (negated, zeroed)
        n, m = nm
        c, n2, m2 = _term(point, rule, n, m)
        target = (c * factor, n2, m2)
        got = verifier._squared_ladder_residual(n, m, _at(rule, n, m), target, image_residual)
        want = _fraction_squared_ladder_residual(rule, n, m, target, image_residual)
        assert got == want and str(got) == str(want)
        if factor == 1 and not image_residual:
            assert got == 0  # the true coefficient passes


class TestDerivedChecksCanFail:
    """irrep.*.sq, irrep.*.float, irrep.J0 and irrep.K reuse the action images;
    each still fails when its own claim, or the image it reads, is wrong."""

    def test_wrong_ladder_coefficient_fails_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        # doubled, so still zero at the top of each chain: only in-grid values are wrong
        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(v.ACTION_RULES, "action.J+", irrep="2*(j-mu)*(j+mu+1)"))
        assert _failing(v.check_irrep(params, n_max=3)) == {"irrep.J+.sq", "irrep.J+.float"}

    def test_wrong_action_coefficient_fails_action_and_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(
            v.ACTION_RULES, "action.a1+", anchor="a1+ psi = 1 (m+2) psi[n+1,m+1]"))
        failing = _failing(v.run_suites(params, ("actions", "irrep"), n_max=3))
        # .float reads the action coefficient too
        assert failing == {"action.a1+", "irrep.a1+.sq", "irrep.a1+.float"}

    def test_wrong_image_fails_sq(self, params, monkeypatch):
        import jordan_osc.verifier as v

        # the image pass applies each operator by name, through its stored conjugation
        conjugated = model.conjugated
        monkeypatch.setattr(model, "conjugated", lambda P, name: (
            conjugated(P, name).scale(2) if name == "a1+" else conjugated(P, name)))
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
        (3, (0, 0, 1, 0), 3),  # dzbar -> b dw + dzbar - w - b zbar, without b dw
        (2, (0, 1, 0, 0), 2),  # dz -> a (dw - zbar), without -a zbar
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

        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(v.ACTION_RULES, "action.J0", irrep="mu+1"))
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
    # per operator read, one image per (level read, operator, charge part),
    # and no float rebuild. The four boson rules read every level; the derived
    # rules read only the levels whose targets lie beyond n_max + 1, so D+11,
    # D+12 and D+22 read level n_max, and no other rule is conjugated
    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_one_image_per_level_operator_and_charge_part(self, point, request, image_counts):
        P = request.getfixturevalue(point)
        run_suites(P, ("actions", "irrep"), n_max=4)
        counts = dict(image_counts)
        parts = {rule.op_name: len(verifier._charge_parts(model.conjugated(P, rule.op_name))) for rule in ACTION_RULES}
        assert sum(parts.values()) == 29
        bosons, raising = sum(parts[op] for op in verifier._BOSONS), sum(parts[op] for op in ("D+11", "D+12", "D+22"))
        assert (bosons, raising) == (4, 3)
        assert counts == {"conjugate": 4 + 3, "apply_to": bosons * 5 + raising}

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
        assert len(tables) == 5 and image_counts["apply_to"] == 4 * 5 + 3
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
        # anchors, statuses and residuals; no .float report skips, even where
        # the point's numbers leave the float range. An exact point's derived
        # rules report what reading them gives, 0; a float point's read 0 where
        # reading gives rounding, at every step whose targets the boson rules
        # reach
        got = verifier._image_pass(point, ("actions", "irrep"), n_max, verifier.DEFAULT_TOL)
        want = reference_pass.image_pass(point, ("actions", "irrep"), n_max,
                                         derived=DERIVED if point.mode == FLOAT else ())
        _assert_matches_the_reference(got, want)
        floats = [g for g in got[1] if g.relation_id.endswith(".float")]
        assert len(floats) == 12 and all(g.passed and float(g.residual) <= 1e-15 for g in floats)

    # a1+ psi = (m+1) psi[n+1,m+1], a1+ = (2w - dzbar)/2 in the chain
    # variables. A stray w^3 zbar^2 term of a1+'s charge shift puts image
    # monomials on the target's lines above the target's degree; without its
    # dzbar term the image of psi_{3,1}, w psi_{3,1}, lacks the constant of
    # psi_{4,2}. At p = 10^100 too, where the images leave the float range,
    # the .float steps read the exact residual, and nothing skips
    @pytest.mark.parametrize("point", [
        Params.exact(1, F(1, 2)), Params.from_ab(1.0, 0.25), Params.exact(F(10) ** 100, 1),
    ], ids=["exact-1-1/2", "float-1-0.25", "exact-1e100-1"])
    @pytest.mark.parametrize("corruption", ["stray", "missing"])
    def test_a_failing_reading_equals_the_reference(self, point, corruption, monkeypatch):
        conjugated = model.conjugated

        def corrupted(P, name):
            op = conjugated(P, name)
            if name != "a1+":
                return op
            if corruption == "stray":
                return op + DiffOp.monomial((3, 2, 0, 0), lift(F(1, 1000), P.mode))
            return DiffOp._normalized(op.mode, {key: v for key, v in op.nums.items() if key != (0, 0, 0, 1)}, op.den)

        monkeypatch.setattr(model, "conjugated", corrupted)
        image, target = corrupted(point, "a1+").apply_to(chain_psi(point, 3, 1)).nums, chain_psi(point, 4, 2).nums
        assert (image.keys() - target.keys()) if corruption == "stray" else (target.keys() - image.keys())
        got = verifier._image_pass(point, ("actions", "irrep"), 6, verifier.DEFAULT_TOL)
        want = reference_pass.image_pass(point, ("actions", "irrep"), 6)
        _assert_matches_the_reference(got, want)
        failing = {"action.a1+", "irrep.a1+.float"} | ({"irrep.a1+.sq"} if point.mode == "exact" else set())
        assert {r.relation_id for r in got[0] + got[1] if r.failed} == failing
        assert not any(r.skipped for r in got[0] + got[1])

    # psi_{3,1} lies on charge line -1; each of these terms lies off it, on a
    # line of the wrong parity or beyond the level's lines
    @pytest.mark.parametrize("point", [Params.exact(F(3, 2), F(2, 3)), Params.from_ab(9 / 4, 4 / 9)],
                             ids=["exact-3/2-2/3", "float-9/4-4/9"])
    @pytest.mark.parametrize("key", [(10, 0), (2, 0), (0, 2), (1, 1)], ids=["w^10", "w^2", "zbar^2", "w*zbar"])
    def test_an_off_line_basis_term_fails_as_the_reference(self, point, key, monkeypatch):
        # the image of such a term meets no step's line; the step of its psi
        # fails every action and irrep check that reads its level instead
        monkeypatch.setattr(model, "_POINTS", {})
        psi = chain_psi(point, 3, 1)
        model.point_cache(point)[model.chain_psi.__wrapped__, 3, 1] = psi + Poly2.monomial(*key, lift(1, point.mode))
        got = verifier.run_suites(point, ("actions", "irrep"), 5)
        want = reference_pass.image_pass(point, ("actions", "irrep"), 5)
        assert _failing(got) == _failing(want[0] + want[1]) == {r.relation_id for r in got}
        assert len(got) == (49 if point.mode == "exact" else 37)

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(3, 12), st.integers(2, 5), st.integers(1, 3), st.integers(4, 7), st.integers(0, 4))
    def test_reports_equal_the_reference_at_sweep_points(self, p_num, p_den, q_num, q_den, n_max):
        # admissible exact points drawn as the benchmark's sweep draws them:
        # p = p_num/p_den and q = p q_num/q_den, so a = p^2 > b = q^2 > 0
        p = F(p_num, p_den)
        point = Params.exact(p, p * F(q_num, q_den))
        got = verifier._image_pass(point, ("actions", "irrep"), n_max, verifier.DEFAULT_TOL)
        want = reference_pass.image_pass(point, ("actions", "irrep"), n_max)
        _assert_matches_the_reference(got, want)

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_a_wrong_coefficient_fails_at_its_own_step(self, point, request, monkeypatch):
        # a stacked image carries every step of its level; a relative error of
        # 1e-3 in a2+'s coefficient at (5, 2) alone fails action.a2+ there, as
        # the per-(n, m) pass sees it, and nothing else. a2+ is a boson rule,
        # read at every level, and its failure has every other rule read too
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        rule = _ACTION_OF["a2+"]
        assert rule.anchor == "a2+ psi = 1 psi[n+1,m]"
        text = "a2+ psi = 1/1000 1000 psi[n+1,m]"
        monkeypatch.setattr(v, "ACTION_RULES", _replace_rule(v.ACTION_RULES, "action.a2+", anchor=text))
        table = replace(rule, anchor=text).terms[0][3]
        assert table == (1, (((0, 0), 1000),))
        levels = v._levels

        def perturbed(t, n_max):
            # the evaluated 1000 of a2+'s term, 1001 at (5, 2) alone
            got = levels(t, n_max)
            return [[1001 if (t, n, m) == (table, 5, 2) else value for m, value in enumerate(level)]
                    for n, level in enumerate(got)]

        monkeypatch.setattr(v, "_levels", perturbed)
        monkeypatch.setitem(reference_pass.TERMS, "action.a2+", (
            (1, 0, "1/1000", lambda n, m: 1001 if (n, m) == (5, 2) else 1000),))
        reports = check_actions(P, n_max=7)
        assert _failing(reports) == {"action.a2+"}
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
        # the .sq and .float reports of a ladder rule share its claim at (n, m):
        # the pass evaluates each claim's table once, for every level at once
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        calls = Counter()
        levels = v._levels

        def counted(table, n_max):
            calls[table, n_max] += 1
            return levels(table, n_max)

        monkeypatch.setattr(v, "_levels", counted)
        assert all(r.passed for r in v.check_irrep(P, n_max=4))
        # in both modes, the one exact table of each claim and of its rule's term
        rules = [rule for rule in ACTION_RULES if rule.claim is not None]
        assert len(rules) == 14 and calls == Counter((table, 4) for rule in rules
                                                     for table in (rule.claim, rule.terms[0][3]))

    def test_no_basis_function_without_actions_or_irrep(self, monkeypatch):
        # structure and pseudo read no image, so the pass builds no psi at
        # all: not at the point, nor at its twin, where pseudo.H builds H
        monkeypatch.setattr(model, "_POINTS", {})
        P = Params.from_ab(49 / 16, 9 / 25)
        run_suites(P, ("structure", "pseudo"), n_max=24)
        assert P.twin in model._POINTS
        for point in (P, P.twin):
            keys = [key for key in model._POINTS.get(point, {}) if isinstance(key, tuple)]
            assert not any(key[0] is model.chain_psi.__wrapped__ for key in keys)

    def test_every_irrep_rule_has_an_action_rule(self):
        # the image pass reads each irrep claim off the images of its rule's
        # one term, one claim per operator
        assert sum(rule.claim is not None for rule in ACTION_RULES) == 14
        assert all(len(rule.terms) == 1 for rule in ACTION_RULES if rule.claim is not None)
        assert len(ACTION_RULES) == len(_ACTION_OF)

    @pytest.mark.parametrize("text, why", [
        ("X psi = 1 psi[n,m]", "unknown operator 'X'"),
        ("B- psi = 4*p*q (n-m) psi[n-1,m] + 1/2*q*p^-1 psi[n-1,m-1]", "an irrep claim needs a rule of one term, not 2"),
    ], ids=["no-action-rule", "two-term-action-rule"])
    def test_malformed_irrep_table_is_refused_before_any_image(self, image_counts, text, why):
        # an irrep claim rides on the one term of its action rule: one on an
        # operator with no action rule, or on a rule of two terms, is refused
        # when the rule is built, before any operator is conjugated or applied
        with pytest.raises(ValueError, match=rf"^action\.X: {re.escape(why)}"):
            verifier.ActionRule("action.X", text, "1")
        assert not image_counts

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

    def test_float_claims_are_the_rounded_exact_claims(self):
        # both modes read every claim at j = n/2, mu = m - n/2 exactly: an int
        # where the claim's table has integer coefficients, and J0's
        # half-integers as Fractions. Each is a float exactly, so a float run's
        # float - claim rounds as it would with the claim in floats
        for rule in ACTION_RULES:
            if rule.claim is None:
                continue
            levels = verifier._levels(rule.claim, 24)
            assert [len(level) for level in levels] == list(range(1, 26))
            for n, level in enumerate(levels):
                for m, value in enumerate(level):
                    assert type(value) is (F if rule.op_name == "J0" else int), (rule.rule_id, n, m)
                    assert value == reference_pass.claim_at(rule.rule_id, n, m) == float(value), (rule.rule_id, n, m)
                    assert 0.1 - value == 0.1 - float(value), (rule.rule_id, n, m)

    def test_float_point_3_1_passes_the_lowering_d_ladders(self):
        # with the conjugations rounded once from the dyadic twin; built in
        # floats, D-11 and D-12 failed here (residuals 3.5e-8 and 5.5e-9)
        reports = {r.relation_id: r for r in check_irrep(Params.from_ab(3.0, 1.0), n_max=16)}
        for rid in ("irrep.D-11.float", "irrep.D-12.float"):
            assert reports[rid].passed and float(reports[rid].residual) < 1e-15, rid

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_each_target_size_read_once(self, point, request, monkeypatch):
        # a psi is the target of up to a dozen steps, and the pass reads its
        # largest numerator T (nums.values(), which nothing else of the pass
        # reads) once for all of them, where a line's maximum is nonzero: here
        # every line's, with each operator's image doubled
        P = request.getfixturevalue(point)
        conjugated = model.conjugated
        monkeypatch.setattr(model, "conjugated", lambda P, name: conjugated(P, name).scale(2))
        reads = Counter()

        class Counted(dict):
            def values(self):
                reads[id(self)] += 1
                return super().values()

        def counted(P, n, m):
            psi, out = model.chain_psi(P, n, m), object.__new__(Poly2)
            out.mode, out.nums, out.den = psi.mode, Counted(psi.nums), psi.den
            return out

        monkeypatch.setattr(verifier, "chain_psi", counted)
        run_suites(P, ("actions", "irrep"), n_max=6)
        assert len(reads) > 30 and set(reads.values()) == {1}

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


#: n(n-1)...(n-24): with it J+'s rule holds at every n <= 24 and fails beyond
_FALLING_25 = "*".join(["n", *(f"(n-{t})" for t in range(1, 25))])


class TestFockDerivation:
    """The four boson rules tie the basis to the Fock module, psi_{n,m} =
    x^m y^(n-m)/m!; every other rule is derived there for every n, exactly, and
    read only where its targets lie beyond what the boson rules reach."""

    def test_the_chart_sends_each_boson_operator_to_its_fock_generator(self, fresh_process):
        images = verifier._fock_generators(verifier._UNIT)
        assert images is not None and len(images) == 4
        for name, key in zip(verifier._BOSONS, verifier._UNITS):
            op = make_operator(verifier._UNIT, name)
            assert model.substitute(verifier._UNIT, verifier._fock_generators, op) == DiffOp.monomial(key, 1), name

    def test_every_other_rule_is_derived(self, fresh_process):
        # the boson rules derive too: the chart sends each to its own x, y, dx
        # or dy, so their texts state the Fock basis
        derived = {rule.rule_id for rule in ACTION_RULES if verifier._derived(rule)}
        assert len(DERIVED) == 19 and derived - BOSON_RULES == DERIVED
        assert derived == DERIVED | BOSON_RULES

    def test_a_chart_that_breaks_the_weyl_relations_derives_nothing(self, fresh_process, monkeypatch):
        # a2+ doubled: [a2-, a2+] = 2, so no chart, and no rule derives
        monkeypatch.setitem(model.DEFINITIONS, "a2+", "smul -4*q*p^-1 A+")
        assert verifier._fock_generators(verifier._UNIT) is None
        assert not any(verifier._derived(rule) for rule in ACTION_RULES)

    # J+ doubled; J+ plus a term that vanishes at every n <= 24, which a reading
    # up to nmax 24 cannot see; D-22 with (n-m)^2 for (n-m)(n-m-1)
    @pytest.mark.parametrize("op, text, n_max, failing", [
        ("J+", "J+ psi = 2 (n-m)*(m+1) psi[n,m+1]", 6, {"action.J+", "irrep.J+.sq", "irrep.J+.float"}),
        ("J+", f"J+ psi = 1 (n-m)*(m+1)+(n-m)*(m+1)*{_FALLING_25} psi[n,m+1]", 24, set()),
        ("D-22", "D-22 psi = 1 (n-m)*(n-m) psi[n-2,m]", 6, {"action.D-22", "irrep.D-22.sq", "irrep.D-22.float"}),
    ], ids=["J+-doubled", "J+-degree-27", "D-22-squared"])
    def test_a_refuted_rule_is_read_at_the_cutoff(self, op, text, n_max, failing, monkeypatch):
        rule = replace(_ACTION_OF[op], anchor=text)
        assert not verifier._derived(rule)
        read = Counter()
        conjugated = model.conjugated

        def counted(P, name):
            read[name] += 1
            return conjugated(P, name)

        monkeypatch.setattr(model, "conjugated", counted)
        monkeypatch.setattr(verifier, "ACTION_RULES", _replace_rule(ACTION_RULES, rule.rule_id, anchor=text))
        reports = run_suites(Params.exact(F(3, 2), F(2, 3)), ("actions", "irrep"), n_max)
        # the refuted rule is conjugated and read, as the boson rules are, and
        # the three D+ rules, whose targets at n_max lie beyond n_max + 1
        assert set(read) == {*verifier._BOSONS, "D+11", "D+12", "D+22", op}
        # a rule's report speaks of n <= n_max only: the degree-27 J+ passes
        assert _failing(reports) == failing

    def test_boson_rules_of_another_basis_derive_nothing(self, monkeypatch):
        # psi_{n,m} times 2^n, with boson rules that state that basis: they
        # pass, but they do not tie it to x^m y^(n-m)/m!, so every rule is
        # read, and each that moves the level fails
        monkeypatch.setattr(verifier, "chain_psi", lambda P, n, m: chain_psi(P, n, m).scale(2**n))
        texts = {"a1+": "1/2 (m+1) psi[n+1,m+1]", "a2+": "1/2 psi[n+1,m]", "a1-": "2 psi[n-1,m-1]",
                 "a2-": "2 (n-m) psi[n-1,m]"}
        rules = ACTION_RULES
        for op, text in texts.items():
            rules = _replace_rule(rules, f"action.{op}", anchor=f"{op} psi = {text}")
        monkeypatch.setattr(verifier, "ACTION_RULES", rules)
        assert not any(verifier._derived(rule) for rule in rules if rule.op_name in texts)
        moving = {rule.rule_id for rule in rules if rule.terms[0][0] and rule.op_name not in texts}
        assert len(moving) == 10 and _failing(check_actions(Params.exact(F(3, 2), F(2, 3)), n_max=4)) == moving

    @pytest.mark.parametrize("case", ["basis", "nan", "irrep-alone", "no-a2-"])
    def test_no_rule_is_derived_unless_the_four_boson_rules_pass(self, case, monkeypatch):
        # with a boson rule failing or missing every rule is read at every
        # level, and the reports are the per-step reference's: at an exact
        # point a corrupted basis fails the rules that read it, and at a float
        # point a reading gives rounding where a derived rule reads 0
        suites = ("irrep",) if case == "irrep-alone" else ("actions", "irrep")
        if case in ("basis", "irrep-alone"):  # psi_{7,3}'s zbar coefficient plus 1 fails a1+ at (6, 2)
            P = Params.exact(F(3, 2), F(2, 3))
            monkeypatch.setattr(model, "_POINTS", {})
            model.point_cache(P)[model.chain_psi.__wrapped__, 7, 3] = chain_psi(P, 7, 3) + Poly2.monomial(0, 1, 1)
        else:
            P = Params.from_ab(0.79, 0.23)
        if case == "nan":
            conjugated = model.conjugated

            def with_nan(P, name):
                op = conjugated(P, name)
                return DiffOp._normalized(op.mode, {**op.nums, (0, 0, 0, 0): float("nan")}, op.den) \
                    if name == "a1+" else op

            monkeypatch.setattr(model, "conjugated", with_nan)
        if case == "no-a2-":
            monkeypatch.setattr(verifier, "ACTION_RULES", tuple(r for r in ACTION_RULES if r.rule_id != "action.a2-"))
        got = verifier._image_pass(P, suites, 8, verifier.DEFAULT_TOL)
        _assert_matches_the_reference(got, reference_pass.image_pass(P, suites, 8))
        failing = _failing(got[0] + got[1])
        assert (not failing) if case == "no-a2-" else "irrep.a1+.float" in failing


class TestPseudoHermiticity:
    def test_passes(self, params):
        report = check_pseudo_hermiticity(params)
        assert report.passed and report.residual == "0"

    def test_float_point_is_checked_exactly_at_its_twin(self, fparams, monkeypatch):
        monkeypatch.setattr(model, "_POINTS", {})
        report = check_pseudo_hermiticity(fparams)
        assert report.passed and report.residual == "0" and report.mode == "exact"
        assert list(model._POINTS) == [fparams.twin]

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

    @pytest.mark.parametrize("p, q, j", [
        (1, F(1, 2), 0), (F(3, 2), F(2, 3), 0), (10**50, 10**49, 164), (10**100, 1, 166),
        (F(1, 10**175), F(1, 10**177), -584),
    ], ids=["1-1/2", "3/2-2/3", "1e50-1e49", "1e100-1", "1e-175-1e-177"])
    def test_oracle_reads_an_exact_point_at_unit_scale(self, p, q, j, monkeypatch):
        # the oracle reads (p/2^j, q/2^j), p q/4^j in (1/4, 2): 2^j's dilation
        # keeps the pairing, so it runs where the point's own floats leave the
        # float range; j = 0 at the goldens' points
        read = set()
        oracle = verifier.quadrature_oracle

        def recorded(P, *args):
            read.add(P)
            return oracle(P, *args)

        monkeypatch.setattr(verifier, "quadrature_oracle", recorded)
        reports = {r.relation_id: r for r in check_integrals(Params.exact(p, q), n_max=4)}
        assert read == {Params.exact(p / F(2) ** j, q / F(2) ** j)}
        assert F(1, 4) < p * q / F(4) ** j < 2
        assert reports["integrals.oracle"].passed and float(reports["integrals.oracle"].residual) < 1e-14

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

    @pytest.mark.parametrize("point", [Params.exact(F(3, 2), F(2, 3)), Params.from_ab(9 / 4, 4 / 9)],
                             ids=["exact-3/2-2/3", "float-9/4-4/9"])
    @pytest.mark.parametrize("key", [(10, 0), (2, 0), (0, 2)], ids=["w^10", "w^2", "zbar^2"])
    def test_an_off_line_basis_term_fails_gram(self, point, key, monkeypatch):
        # psi_{7,3} lies on charge line -1; a term off it pairs to nothing the
        # gram, jordan and norms blocks read, so gram reads the line itself.
        # The pairing claims read the twin's basis (the point itself if
        # exact), the action suite the point's own: corrupt both stores
        monkeypatch.setattr(model, "_POINTS", {})
        for P in {point.twin, point}:
            psi = chain_psi(P, 7, 3)
            model.point_cache(P)[model.chain_psi.__wrapped__, 7, 3] = psi + Poly2.monomial(*key, lift(1, P.mode))
        reports = {r.relation_id: r for r in check_integrals(point, n_max=8)}
        assert reports["integrals.gram"].failed
        assert reports["integrals.gram"].anchor.endswith("[worst at n,m=(7, 3)]")
        assert any(r.failed for r in check_actions(point, n_max=8))

    def test_float_verdicts_hold_at_random_admissible_points(self):
        # 60 seeded points over 24 decades of a, b/a up to 0.999: the pairing
        # claims are exact at the twin, so no verdict follows the size of the
        # point's numbers, and the oracle's rule keeps no phase to lose as b
        # nears a
        rng = random.Random(3)
        for _ in range(60):
            a = 10 ** rng.uniform(-12, 12)
            P = Params.from_ab(a, a * 10 ** rng.uniform(-6, 0) * 0.999)
            reports = run_suites(P, ("integrals",), 8)
            assert all(r.passed for r in reports), (P, [(r.relation_id, r.residual) for r in reports if not r.passed])

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

    @pytest.mark.parametrize("n_max", [-1, -25, 2.0, "3", None, True])
    def test_a_cutoff_that_is_no_int_from_0_is_refused(self, params, n_max):
        # a negative cutoff reads no level, so every check it reported would
        # pass unrun: each entry point refuses it, naming it
        refused = rf"^n_max must be an int >= 0, not {re.escape(repr(n_max))}$"
        for run in (partial(run_suites, params, ("actions", "irrep")), partial(run_suites, params, ("structure",)),
                    partial(check_actions, params), partial(check_irrep, params), partial(check_integrals, params)):
            with pytest.raises(ValueError, match=refused):
                run(n_max=n_max)

    def test_cutoff_0_reads_level_0(self, params):
        reports = run_suites(params, ("actions", "irrep", "integrals"), n_max=0)
        assert len(reports) == 23 + 26 + 5 and all(r.passed for r in reports)

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

    def test_a_wrong_factor_fails_every_float_report_at_p_1e100(self, monkeypatch):
        # at p = 1e100, where the images and targets leave the float range, a
        # wrong su(2) factor at (2, 1) and at (8, 0) fails every .float report
        # (each reads phi[2,1] or phi[8,0] with a coefficient), by the factor's
        # error, and none skips
        import jordan_osc.verifier as v

        P = Params.exact(F(10) ** 100, 1)
        assert {r.status for r in v.check_irrep(P, n_max=8) if r.relation_id.endswith(".float")} == {"pass"}
        factor = v.su2_factor
        monkeypatch.setattr(v, "su2_factor", lambda n, m: factor(n, m) * (
            sqrt(1.000001) if (n, m) in ((2, 1), (8, 0)) else 1))
        reports = {r.relation_id: r for r in v.check_irrep(P, n_max=8) if r.relation_id.endswith(".float")}
        assert len(reports) == 12
        for rid, r in reports.items():
            assert r.failed and 4e-7 < float(r.residual) < 6e-7, rid
            assert r.anchor.startswith(rid[len("irrep."):-len(".float")] + " phi = "), rid
            assert v.FLOAT_OVERFLOW not in r.anchor, rid

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

    @pytest.mark.parametrize("part", ["image", "coefficient"])
    def test_eigenvalue_residual(self, part):
        # J0 psi_{2,1} = 0: the parts are the image residual and the
        # coefficient's distance from the eigenvalue, in that order
        target = (NAN if part == "coefficient" else 5.0, 2, 1)
        image_residual = NAN if part == "image" else 1.0
        rule = _ACTION_OF["J0"]
        assert isnan(verifier._eigenvalue_residual(2, 1, _at(rule, 2, 1), target, image_residual))

    @pytest.mark.parametrize("part", ["image", "coefficient"])
    def test_squared_ladder_residual(self, part):
        # J+ psi_{2,0} targets psi_{2,1}
        target = (NAN if part == "coefficient" else F(1), 2, 1)
        image_residual = NAN if part == "image" else F(1)
        rule = LADDERS[0]
        assert isnan(verifier._squared_ladder_residual(2, 0, _at(rule, 2, 0), target, image_residual))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_float_ladder_residual_off_the_grid(self, fparams, position):
        # J+ phi_{1,1} should vanish (its target lies off the grid), so the
        # residual is at least the step's residual
        coeffs = _with_nan([1e-20, 2e-20], position)
        image = Poly2(FLOAT, {(i, 1): c for i, c in enumerate(coeffs)})
        rule = LADDERS[0]
        lines = {charge: verifier._Line() for charge in (-1, 0, 1)}
        verifier._read_lines(image, lines)
        image_residual = verifier.max_or_nan(0.0, *(line.worst for line in lines.values()))
        assert isnan(image_residual)
        assert isnan(verifier._float_ladder_residual(1, 1, _at(rule, 1, 1), _term(fparams, rule, 1, 1),
                                                     image_residual))
