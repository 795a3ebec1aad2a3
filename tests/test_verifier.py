"""Relation catalog, expression grammar, and the five verification suites."""

import importlib.util
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import factorial, isnan, prod, sqrt
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
from jordan_osc.verifier import ActionRule
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
#: the boson rules that the raising ones, passing, let the pass read at n = 0 alone
LOWERING = {"action.a1-", "action.a2-"}
#: the rules with an irrep claim whose action term moves (n, m)
LADDERS = tuple(rule for rule in ACTION_RULES if rule.claim is not None and rule.terms[0][:2] != (0, 0))

#: (a, b) of float points, from everyday to where a basis function or a float
#: operator leaves the float range; (p, q) of exact ones
FLOAT_POINTS = [(0.79, 0.23), (1.0, 0.25), (3.0, 1.0), (100.0, 1.0), (1e-10, 1e-11), (1e-200, 1e-201),
                (1e120, 1e119), (1e300, 1e299), (1e15, 1e14), (1.0, 1e-30), (1e-20, 1e-21), (1e100, 1e99),
                (1e-300, 1e-301)]
EXACT_POINTS = [(1, F(1, 2)), (F(3, 2), F(2, 3)), (10**50, 1)]


def _term(point, rule, n, m):
    """The one action term (c, n', m') an irrep claim reads at psi_{n,m}."""
    [(dn, dm, literal, table)] = rule.terms
    return model._scalar(literal, point) * verifier._levels(table, n)[n][m], n + dn, m + dm


def _strip(report):
    return report.relation_id, report.anchor, report.mode, report.status, report.residual


def _image_reports(point, suites, n_max):
    """(action reports, irrep reports) of run_suites, as the per-step reference gives them."""
    reports = run_suites(point, suites, n_max)
    return [[r for r in reports if r.relation_id.startswith(prefix)] for prefix in ("action.", "irrep.")]


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
        # float point
        tokens = {tok for spec in load_relations() + load_negative_controls()
                  for side in (spec.lhs, spec.rhs) for tok in side.split() if model._SCALAR_TOKEN.fullmatch(tok)}
        tokens |= {"8*ab", "-3/7*ab"}
        assert {tok.partition("*")[2] for tok in tokens} == {"", "a", "b", "ab"}
        twin = point.twin
        for tok in tokens:
            c, _, unit = tok.partition("*")
            want = float(F(c) * twin.a ** unit.count("a") * twin.b ** unit.count("b"))
            assert eval_expression(tok, point) == DiffOp.constant(want), tok


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
    """No relation or claim proven, no weight derived and no point store yet, so no Fock chart or value
    in it (_UNIT's store keeps them), as in a new process; what the test proves, derives, reads or builds
    is dropped after it, so a definition or function the test changes leaves nothing behind."""
    caches = (verifier._proven, verifier._derived, verifier._claimed, model._token_weight)
    for kept in caches:
        kept.cache_clear()
    monkeypatch.setattr(model, "_POINTS", {})
    yield
    for kept in caches:
        kept.cache_clear()


CORRUPTED_BY_S = {"block.S-T", "gl2.J0-Jplus", "gl2.embed-Jplus", "sp4.acomm-a2m-a1p"}


def _count_products(monkeypatch) -> Counter:
    """Count every weyl._TermMap._product from now on, under "product", the
    term pairs they multiply, under "pairs", and every evaluation of an
    expression tree, under "evaluate": a root (model._value) or a subtree
    (model._subtree, stored or not), the two names model._evaluate is called
    through."""
    counts = Counter()
    product = weyl._TermMap._product

    def counted(self, other, accumulate):
        counts["product"] += 1
        counts["pairs"] += len(self.nums) * len(other.nums)
        return product(self, other, accumulate)

    def counted_evaluation(evaluate):
        def evaluation(*args):
            counts["evaluate"] += 1
            return evaluate(*args)
        return evaluation

    monkeypatch.setattr(weyl._TermMap, "_product", counted)
    for name in ("_subtree", "_value"):
        monkeypatch.setattr(model, name, counted_evaluation(getattr(model, name)))
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

    def test_only_the_charts_operators_are_built_at_the_unit_point(self, fresh_process):
        # the proofs build at p = q = 1, in z, zbar, dz, dzbar, only what the
        # Fock chart is made of, A+-, B+- and the four bosons, and keep them;
        # no other point of the sweep, more than a store holds, builds or
        # stores anything
        points = _sweep_points(5)
        assert len(points) > model._POINTS_MAX
        for P in points:
            check_structure(P)
            check_explicit_forms(P)
        assert list(model._POINTS) == [verifier._UNIT]
        trees = {key[2] for key in model.point_cache(verifier._UNIT)
                 if key[:2] == (model._subtree.__wrapped__, model._generators)}
        built = {name for name, text in model.DEFINITIONS.items() if model.parse_expression(text) in trees}
        assert built == {"A+", "A-", "B+", "B-", *verifier._BOSONS}

    def test_a_cold_run_multiplies_few_term_pairs(self, fresh_process, monkeypatch):
        # in the chart each catalog operator has 1-4 terms, against 2-10 in
        # z, zbar, dz, dzbar: the cold proofs multiply 440 term pairs, where
        # composing every operator at p = q = 1 multiplied 3,051
        counts = _count_products(monkeypatch)
        P = Params.exact(1, F(1, 2))
        assert {r.how for r in check_structure(P) + check_explicit_forms(P)} == {"proven"}
        assert 0 < counts["pairs"] <= 600 and counts["evaluate"] > 0

    def test_the_chart_decides_as_the_unit_point_does(self, fresh_process):
        # the chart keeps the Weyl relations, so it is an injective
        # homomorphism, and each side's image is equal iff the sides are at
        # p = q = 1: the reference is the two sides composed there
        specs = load_relations() + load_negative_controls() + [INHOMOGENEOUS] + [
            RelationSpec(f"explicit.{name}", "identity", name, model.EXPLICIT_FORMS[name]) for name in EXPLICIT_NAMES]
        chart = partial(eval_expression, params=verifier._UNIT, generators=verifier._fock_generators)
        decided = set()
        for s in specs:
            reference = (eval_expression(s.lhs, verifier._UNIT) - eval_expression(s.rhs, verifier._UNIT)).is_zero()
            homogeneous = model._weight(("sub", model.parse_expression(s.lhs), model.parse_expression(s.rhs)))
            proven = verifier._proven(s.lhs, s.rhs)
            assert (chart(s.lhs) == chart(s.rhs)) == reference, s.rel_id
            assert proven == (homogeneous is not None and reference), s.rel_id
            decided.add(proven)
        assert decided == {True, False}

    def test_each_operator_in_the_chart_is_its_substituted_unit_value(self, fresh_process):
        for name in model.CATALOG_NAMES:
            op = eval_expression(name, verifier._UNIT, verifier._fock_generators)
            assert op == model.substitute(verifier._UNIT, verifier._fock_generators, make_operator(verifier._UNIT, name))
            assert 1 <= len(op.nums) <= 4, name

    def test_with_no_chart_nothing_is_proven(self, fresh_process, monkeypatch):
        # a2+ doubled: [a2-, a2+] = 2, so no chart; every relation and form is
        # then evaluated at the point, and reported as direct evaluation there
        # reads it, a failing one with its residual
        monkeypatch.setitem(model.DEFINITIONS, "a2+", "smul -4*q*p^-1 A+")
        P = Params.exact(F(3, 2), F(2, 3))
        reports = check_structure(P) + check_explicit_forms(P)
        sides = [(s.rel_id, s.lhs, s.rhs) for s in load_relations()] + [
            (f"explicit.{name}", name, model.EXPLICIT_FORMS[name]) for name in EXPLICIT_NAMES]
        assert [r.relation_id for r in reports] == [rel_id for rel_id, *_ in sides]
        for report, (rel_id, lhs, rhs) in zip(reports, sides):
            residual = (eval_expression(lhs, P) - eval_expression(rhs, P)).max_magnitude()
            assert (report.how, report.passed, report.residual) == ("read", residual == 0, str(residual)), rel_id
        assert {r.passed for r in reports} == {True, False}

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
            ActionRule(rule.rule_id, text, rule.irrep)

    def test_two_terms_of_one_charge_shift_are_refused(self):
        # J+ psi[n,m+1] and a psi[n+2,m+2] term both shift the charge by 2, so
        # one charge part of J+ would meet two targets
        rule = _ACTION_OF["J+"]
        with pytest.raises(ValueError, match=r"action\.J\+: two terms shift the charge 2dm - dn by one amount"):
            ActionRule(rule.rule_id, rule.anchor + " + 1 psi[n+2,m+2]")

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
        # the derivation refutes the rule, so it is read
        strip = lambda r: (r.relation_id, r.anchor, r.status, r.residual)  # noqa: E731
        assert list(map(strip, reports)) == list(map(strip, reference_pass.image_pass(P, ("actions",), 5)[0]))

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
    return tuple(ActionRule(r.rule_id, changes.get("anchor", r.anchor), changes.get("irrep", r.irrep))
                 if r.rule_id == rule_id else r for r in rules)


def _at(rule, n, m):
    """A rule's claimed value at psi_{n,m}, at j = n/2, mu = m - n/2."""
    return F(verifier._levels(rule.claim, n)[n][m])


#: n(n-1)...(n-24): with it J+'s rule holds at every n <= 24 and fails beyond
_FALLING_25 = "*".join(["n", *(f"(n-{t})" for t in range(1, 25))])
#: the same in j = n/2, for a claim
_FALLING_2J = "*".join(["(2*j)", *(f"(2*j-{t})" for t in range(1, 25))])


def _refuted(rule):
    """``rule`` with its claim times 1 + n(n-1)...(n-24): the same at every step with n <= 24, refuted."""
    return ActionRule(rule.rule_id, rule.anchor, f"({rule.irrep})*(1+{_FALLING_2J})")


def _merged_reports(rule, mode, *steps):
    """The irrep reports of ``rule`` up to n_max 2, as run_suites builds them from an action check that
    met each (residual, (n, m)) of ``steps``."""
    action = verifier._Check(rule.rule_id, rule.anchor, mode)
    for residual, at in steps:
        action.add(residual, at)
    return verifier._irrep_reports(mode, [rule], [(action.worst, action.at)], 2, verifier.DEFAULT_TOL, 0.0)


class TestBoundDesign:
    """With a claim that holds, the .float residual, its rule's action residual
    read in floats, bounds the direct reading of op phi - c phi' over c T to a
    factor 2, so a pass it gives is one that reading gives; the benchmark's
    points pass."""

    @pytest.mark.parametrize("point", [
        Params.exact(F(3, 2), F(2, 3)), Params.from_ab(0.79, 0.23), Params.from_ab(1e-10, 1e-11),
    ], ids=["exact-3/2-2/3", "float-0.79-0.23", "float-1e-10-1e-11"])
    def test_the_bound_is_at_least_the_direct_reading(self, point):
        # at every ladder step with n <= 8, with the true claim: the
        # reference's direct reading of |op phi - c phi'|, c = sqrt(claim)
        # su2_factor(n', m'), over c T (off the grid: as it is) is at most
        # twice the step's action residual in floats, less rounding. A claim
        # that does not hold is refuted, and fails whatever its reading
        basis = cache(partial(model.chain_psi, point))
        for rule in LADDERS:
            worst = 0.0
            for n in range(9):
                for m in range(n + 1):
                    image = model.apply(point, rule.op_name, basis(n, m))
                    target, c2 = _term(point, rule, n, m), _at(rule, n, m)
                    w, n2, m2 = target
                    in_grid = 0 <= m2 <= n2
                    targets = [(w, basis(n2, m2), 2 * m2 - n2)] if w and in_grid else []
                    got = verifier._in_floats(reference_pass.step_residual(point.mode, targets, image))
                    reading = reference_pass.direct_reading(target, n, m, c2, image, basis)
                    if in_grid:
                        reading /= sqrt(c2) * model.su2_factor(n2, m2) * float(basis(n2, m2).max_magnitude())
                    assert reading <= 2 * got + 1e-15, (rule.rule_id, n, m)
                    worst = max(worst, got)
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
    scaled = ActionRule(rule.rule_id, rule.anchor, rule.irrep)
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
        # J-'s claim times 1 + 1e-6 at the steps (n, 1) alone, n <= 8, fails
        # irrep.J-.float by as much as at an everyday point. The claim is
        # perturbed as a polynomial, times 1 + 1e-6 m(m-2)(m-3)...(m-8)/P(1),
        # so the proof refutes it at (1, 1), by the squared values' relative
        # discrepancy 1e-6 / (1 + 1e-6), which no point enters
        rule = _ACTION_OF["J-"]
        den, nums = rule.claim
        m, one = Poly2.zbar("exact"), Poly2.one("exact")
        bump = m * prod((m - one * t for t in range(2, 9)), start=one)  # 0 at m = 0, 2..8
        claim = Poly2("exact", {key: F(c, den) for key, c in nums}) * (one + bump * F(1, 10**6 * -5040))
        wrong = ActionRule(rule.rule_id, rule.anchor, rule.irrep)
        object.__setattr__(wrong, "claim", (claim.den, tuple(sorted(claim.nums.items()))))
        assert [F(v) for v in verifier._levels(wrong.claim, 8)[8]] == [
            v * (1 + F(1, 10**6)) if k == 1 else v for k, v in enumerate(verifier._levels(rule.claim, 8)[8])]
        assert verifier._claimed(wrong, 8) == (F(1, 10**6 + 1), (1, 1))
        monkeypatch.setattr(verifier, "ACTION_RULES", tuple(wrong if r is rule else r for r in ACTION_RULES))
        reports = {r.relation_id: r for r in check_irrep(Params.from_ab(*ab), n_max=8)}
        assert _failing(reports.values()) == {"irrep.J-.float"}
        assert float(reports["irrep.J-.float"].residual) == 1 / (10**6 + 1)
        assert reports["irrep.J-.float"].anchor.endswith("[refuted at n,m=(1, 1)]")

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.floats(-12, 12), st.floats(-6, 0), st.integers(0, 6))
    def test_no_fail_at_random_admissible_points(self, u, v, n_max):
        # a = 10^u, b = a 10^v 0.999 < a, over 24 decades
        a = 10.0**u
        P = Params.from_ab(a, a * 10.0**v * 0.999)
        assert not _failing(run_suites(P, ("actions", "irrep"), n_max=n_max))

    def test_an_exact_relative_residual_beyond_the_float_range_reads_the_largest_float(self):
        # J+ phi_{1,0} = phi_{1,1}, in an exact run whose action check met a
        # relative residual 10^400 there: its .float report reads the largest
        # float, with no OverflowError, and fails; a float run's inf is kept
        rule = _ACTION_OF["J+"]
        exact = _merged_reports(rule, "exact", (F(10**400), (1, 0)))[-1]
        assert exact.failed and float(exact.residual) == sys.float_info.max
        assert _merged_reports(rule, "float", (float("inf"), (1, 0)))[-1].residual == "inf"

    def test_a_failing_exact_report_is_the_same_at_every_scale(self, monkeypatch):
        # sigma_P maps each exact point onto p = q = 1, so a residual relative
        # per charge line reads the same wherever the point sits: with J+'s
        # literal doubled and S's middle coefficient -3*b, each failing report
        # names the same residual at the same (n, m) at four points over 350
        # decades; absolute residuals moved with the point, and so did the step
        # they named. The J+ claim is refuted, and its reports are the failing
        # reading
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
                          "irrep.J+.sq": ("worst at n,m=(1, 0)]", "1/2"),
                          "irrep.J+.float": ("worst at n,m=(1, 0)]", "0.5")}


def _fraction_ladder_sides(rule, n, m, factor):
    """The two sides of a ladder claim at psi_{n,m}, in Fractions throughout (the oracle of the integer
    decision), its action coefficient c times ``factor``: c^2 phi_scale_sq(n, m)/phi_scale_sq(n', m') and
    the claim; 0 and the claim off the grid; c and -c where the squares agree but c < 0."""
    c, n2, m2 = _term(verifier._UNIT, rule, n, m)
    c, c2 = c * factor, _at(rule, n, m)
    if not 0 <= m2 <= n2:
        return 0, c2
    left = c * c * phi_scale_sq(n, m) / phi_scale_sq(n2, m2)
    return (c, -c) if left == c2 and c < 0 else (left, c2)


class TestSquaredLadderResidual:
    def test_integer_decision_equals_the_fraction_expression(self):
        # each ladder rule with its literal scaled (negated): the proof, in
        # ints, names the first step where the sides in Fractions differ, and
        # their relative discrepancy there; the true coefficient holds
        for rule in LADDERS:
            literal = rule.terms[0][2]
            for factor in (1, -1, F(2), F(1, 3), F(-5, 4)):
                text = rule.anchor.replace(f" = {literal} ", f" = {F(literal) * factor} ")
                scaled = ActionRule(rule.rule_id, text, rule.irrep)
                steps = [(n, m, *_fraction_ladder_sides(rule, n, m, factor)) for n in range(12) for m in range(n + 1)]
                want = next(((abs(left - right) / max(abs(left), abs(right)), (n, m))
                             for n, m, left, right in steps if left != right), None)
                assert verifier._claimed(scaled, 12) == want, (rule.rule_id, factor)
                assert (want is None) == (factor == 1), (rule.rule_id, factor)


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


#: three exact points, one the twin of the float point (0.79, 0.23)
GRADED_POINTS = [Params.exact(F(3, 2), F(2, 3)), Params.exact(F(10**50, 7), F(3, 10**20)),
                 Params.from_ab(0.79, 0.23).twin]


class TestGrading:
    """sigma_P (w -> q w, zbar -> zbar/q, dw -> dw/q, dzbar -> q dzbar in the chain variables) maps each
    basis function and conjugated operator at P onto p = q = 1 times p^alpha q^beta, (alpha, beta) its
    weight: what lets one image pass at p = q = 1 serve every point."""

    @pytest.mark.parametrize("P", GRADED_POINTS, ids=["3/2-2/3", "1e50/7-3e-20", "twin-0.79-0.23"])
    def test_each_basis_function_is_the_unit_one_graded(self, P):
        # the term w^e zbar^i of psi_{n,m} at P is p^alpha q^(beta + i - e)
        # times the term at p = q = 1, (alpha, beta) psi_{n,m}'s weight: (pq)^(i-e)
        for n in range(13):
            for m in range(n + 1):
                alpha, beta = model._psi_weight(n, m)
                unit, psi = chain_psi(verifier._UNIT, n, m).terms, chain_psi(P, n, m).terms
                assert psi.keys() == unit.keys(), (n, m)
                for (e, i), c in psi.items():
                    assert c == P.p ** alpha * P.q ** (beta + i - e) * unit[e, i] == (P.p * P.q) ** (i - e) * unit[e, i]

    @pytest.mark.parametrize("P", GRADED_POINTS, ids=["3/2-2/3", "1e50/7-3e-20", "twin-0.79-0.23"])
    def test_each_conjugated_operator_is_the_unit_one_graded(self, P):
        # the term w^i zbar^j dw^k dzbar^l of op at P is p^alpha q^(beta - i + j + k - l) times the
        # term at p = q = 1, (alpha, beta) op's weight
        for name in model.CATALOG_NAMES:
            alpha, beta = model._weight(name)
            unit, op = model.conjugated(verifier._UNIT, name).terms, model.conjugated(P, name).terms
            assert op.keys() == unit.keys(), name
            assert all(c == P.p ** alpha * P.q ** (beta - i + j + k - l) * unit[i, j, k, l]
                       for (i, j, k, l), c in op.items()), name


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

    # in both modes the irrep suite reads the action images of the one pass
    # at p = q = 1: one conjugation per operator read, one image per (source
    # read, operator, charge part). Up to level n_max + 1, a2+ reads every level and
    # a1+ each level's top function psi_{n,n}; a1- and a2- read psi_00 alone.
    # They reach level n_max + 2, so no derived rule has a target beyond, and
    # no other rule is conjugated
    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_one_image_per_level_operator_and_charge_part(self, point, request, image_counts):
        P = request.getfixturevalue(point)
        run_suites(P, ("actions", "irrep"), n_max=4)
        counts = dict(image_counts)
        parts = {rule.op_name: len(verifier._charge_parts(model.conjugated(P, rule.op_name))) for rule in ACTION_RULES}
        assert sum(parts.values()) == 29
        assert sum(parts[op] for op in verifier._BOSONS) == 4
        assert counts == {"conjugate": 4, "apply_to": 2 * 6 + 2}

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_one_derivative_table_per_level(self, point, request, image_counts, monkeypatch):
        # level-outer: every image of level n reads one table, built for the
        # level sum_m psi_{n,m} or for its top function psi_{n,n} alone, at
        # p = q = 1, which no store keeps once the pass is over
        P, unit = request.getfixturevalue(point), verifier._UNIT
        tables = {}  # id -> (table, the polynomial it was read for); holding both keeps each id unique
        apply_to = DiffOp.apply_to  # image_counts' counting wrapper

        def recorded(self, poly, derivatives=None):
            assert derivatives is not None
            assert tables.setdefault(id(derivatives), (derivatives, poly))[1] is poly
            return apply_to(self, poly, derivatives)

        monkeypatch.setattr(DiffOp, "apply_to", recorded)
        run_suites(P, ("actions", "irrep"), n_max=4)
        assert len(tables) == 12 and image_counts["apply_to"] == 2 * 6 + 2
        levels = [poly for _, poly in tables.values()]
        psis = [[chain_psi(unit, n, m) for m in range(n + 1)] for n in range(6)]
        assert levels[1::2] == [weyl.linear_combination("exact", [(1, psi) for psi in level]) for level in psis]
        assert levels[::2] == [level[-1] for level in psis]
        # no two psi of a level share a monomial: each lies on its own charge
        assert [len(level.nums) for level in levels[1::2]] == [sum(len(psi.nums) for psi in level) for level in psis]
        assert P not in model._POINTS or not any(key[0] is model.chain_psi.__wrapped__
                                                 for key in model._POINTS[P] if isinstance(key, tuple))
        stored = model.point_cache(unit).values()  # the conjugations too
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
        # the stacked pass at p = q = 1 reports what the per-(n, m) pass
        # reads at the point's twin: ids, anchors, statuses and residuals, a
        # float point's in floats. A derived rule reports what reading it
        # gives, 0, every residual is 0, and no .float report skips, even
        # where the point's numbers leave the float range
        got = _image_reports(point, ("actions", "irrep"), n_max)
        _assert_matches_the_reference(got, reference_pass.image_pass(point, ("actions", "irrep"), n_max))
        assert all(float(g.residual) == 0 for g in got[0] + got[1])
        assert len([g for g in got[1] if g.relation_id.endswith(".float")]) == 12

    @pytest.mark.parametrize("point, n_max, refute, a1", [
        (Params.exact(F(3, 2), F(2, 3)), 8, True, False), (Params.from_ab(0.79, 0.23), 10, True, False),
        (Params.exact(F(10) ** 100, 1), 8, True, False),
        (Params.exact(F(3, 2), F(2, 3)), 8, False, True), (Params.exact(F(3, 2), F(2, 3)), 8, True, True),
        (Params.from_ab(0.79, 0.23), 10, False, True), (Params.from_ab(0.79, 0.23), 10, True, True),
    ], ids=["exact-3/2-2/3", "float-0.79-0.23", "exact-1e100-1", "a1+-exact-3/2-2/3", "a1+-refuted-exact-3/2-2/3",
            "a1+-float-0.79-0.23", "a1+-refuted-float-0.79-0.23"])
    def test_a_refuted_claim_always_fails(self, point, n_max, refute, a1, monkeypatch):
        # each claim times 1 + (2j)(2j-1)...(2j-24), refuted at (25, 0) or
        # (25, 1), as no reading up to nmax 24 can see; a1+ written (m+2)
        # fails its rule and its claim, refuted at (0, 0), and leaves no rule
        # derived. Each refuted report fails: where the per-step reference's
        # reading fails, it is that reading, else the counterexample
        rules = ACTION_RULES
        if a1:
            rules = _replace_rule(rules, "action.a1+", anchor="a1+ psi = 1 (m+2) psi[n+1,m+1]")
            monkeypatch.setitem(reference_pass.TERMS, "action.a1+", ((1, 1, "1", lambda n, m: m + 2),))
        if refute:
            rules = tuple(_refuted(rule) if rule.claim is not None else rule for rule in rules)
        monkeypatch.setattr(verifier, "ACTION_RULES", rules)
        got = _image_reports(point, ("actions", "irrep"), n_max)
        want = reference_pass.image_pass(point, ("actions", "irrep"), n_max)
        proofs = {f"irrep.{rule.op_name}": verifier._claimed(rule, n_max) for rule in rules if rule.claim is not None}
        proofs["action.a1+"] = verifier._derived(next(rule for rule in rules if rule.op_name == "a1+"))
        assert [g.relation_id for g in got[0] + got[1]] == [w.relation_id for w in want[0] + want[1]]
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            proof = proofs.get(g.relation_id.removesuffix(".sq").removesuffix(".float"))
            assert (g.how == "refuted") == (proof is not None), g.relation_id
            if proof is None or w.failed:
                assert _strip(g) == _strip(w), g.relation_id
                continue
            discrepancy, at = proof
            assert g.failed and at[0] == 25, g.relation_id  # the reading fails wherever a1+ is written (m+2)
            assert g.anchor == f"{w.anchor.rsplit(' [', 1)[0]} [refuted at n,m={at}]", g.relation_id
            assert g.residual == str(verifier._in_floats(discrepancy) if g.mode == FLOAT else discrepancy)
        assert {r.relation_id for r in got[0] if r.failed} == ({"action.a1+"} if a1 else set())
        if a1:
            assert proofs["action.a1+"][1] == proofs["irrep.a1+"][1] == (0, 0)

    # a1+ psi = (m+1) psi[n+1,m+1], a1+ = (2w - dzbar)/4 in the chain
    # variables at p = q = 1, where the pass reads it for every point. A stray
    # w^3 zbar^2 term of a1+'s charge shift there puts image monomials on the
    # target's lines above the target's degree; without its dzbar term the
    # image of psi_{3,1}, w psi_{3,1}/2, lacks the constant of psi_{4,2}. Each
    # point, p = 10^100 too, reports the per-step reference's reading at
    # p = q = 1, a float point's in floats, and nothing skips
    @pytest.mark.parametrize("point", [
        Params.exact(1, F(1, 2)), Params.from_ab(1.0, 0.25), Params.exact(F(10) ** 100, 1),
    ], ids=["exact-1-1/2", "float-1-0.25", "exact-1e100-1"])
    @pytest.mark.parametrize("corruption", ["stray", "missing"])
    def test_a_failing_reading_equals_the_reference(self, point, corruption, monkeypatch):
        unit, conjugated = verifier._UNIT, model.conjugated

        def corrupted(P, name):
            op = conjugated(P, name)
            if (name, P) != ("a1+", unit):
                return op
            if corruption == "stray":
                return op + DiffOp.monomial((3, 2, 0, 0), F(1, 1000))
            return DiffOp._normalized(op.mode, {key: v for key, v in op.nums.items() if key != (0, 0, 0, 1)}, op.den)

        monkeypatch.setattr(model, "conjugated", corrupted)
        image, target = corrupted(unit, "a1+").apply_to(chain_psi(unit, 3, 1)).nums, chain_psi(unit, 4, 2).nums
        assert (image.keys() - target.keys()) if corruption == "stray" else (target.keys() - image.keys())
        got = _image_reports(point, ("actions", "irrep"), 6)
        want = reference_pass.image_pass(point, ("actions", "irrep"), 6, at=unit)
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
        # fails every action and irrep check that reads its level instead. The
        # pass reads psi at p = q = 1 for every point: the term is put there
        unit = verifier._UNIT
        monkeypatch.setattr(model, "_POINTS", {})
        model.point_cache(unit)[model.chain_psi.__wrapped__, 3, 1] = chain_psi(unit, 3, 1) + Poly2.monomial(*key, 1)
        got = verifier.run_suites(point, ("actions", "irrep"), 5)
        want = reference_pass.image_pass(point, ("actions", "irrep"), 5, at=unit)
        assert _failing(got) == _failing(want[0] + want[1]) == {r.relation_id for r in got}
        assert len(got) == (49 if point.mode == "exact" else 37)

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(3, 12), st.integers(2, 5), st.integers(1, 3), st.integers(4, 7), st.integers(0, 4))
    def test_reports_equal_the_reference_at_sweep_points(self, p_num, p_den, q_num, q_den, n_max):
        # admissible exact points drawn as the benchmark's sweep draws them:
        # p = p_num/p_den and q = p q_num/q_den, so a = p^2 > b = q^2 > 0
        p = F(p_num, p_den)
        point = Params.exact(p, p * F(q_num, q_den))
        got = _image_reports(point, ("actions", "irrep"), n_max)
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
        table = ActionRule(rule.rule_id, text, rule.irrep).terms[0][3]
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
        init = Params.__init__

        def counted(self, mode, p, q):
            built[mode] += 1
            init(self, mode, p, q)

        def refused(*args):
            raise AssertionError("an exact run built phi")

        monkeypatch.setattr(Params, "__init__", counted)
        monkeypatch.setattr(model, "build_phi", refused)
        P = Params.exact(F(5, 3), F(2, 7))
        reports = run_suites(P, SUITES, n_max=4)
        assert built == {"exact": 1}
        assert all(r.passed for r in reports) and len(reports) == 202

    def test_a_float_run_builds_no_float_basis(self, monkeypatch):
        # every suite reads a float point exactly, at its twin or at p = q = 1,
        # and the oracle reads the dilated twin, so nothing is built in floats
        # that could leave the float range
        def refused(*args):
            raise AssertionError("a float basis was built")

        monkeypatch.setattr(model, "_POINTS", {})
        monkeypatch.setattr(model, "_check_float_range", refused)
        reports = run_suites(Params.from_ab(0.79, 0.23), SUITES, n_max=8)
        assert all(r.passed for r in reports) and len(reports) == 190

    def test_a_second_point_reads_no_image(self, image_counts, monkeypatch):
        # the pass is kept per rules and cutoff: at a second point, exact or
        # float, the action and irrep suites conjugate, apply and read nothing
        assert all(r.passed for r in run_suites(Params.exact(1, F(1, 2)), ("actions", "irrep"), 8))
        assert image_counts["apply_to"] > 0
        image_counts.clear()
        conjugated, calls = model.conjugated, Counter()
        monkeypatch.setattr(model, "conjugated", lambda P, name: calls.update([name]) or conjugated(P, name))
        for P in (Params.exact(F(3, 2), F(2, 3)), Params.from_ab(0.79, 0.23)):
            assert all(r.passed for r in run_suites(P, ("actions", "irrep"), 8))
            assert all(r.passed for r in run_suites(P, ("irrep",), 8))
        assert not image_counts and not calls

    @pytest.mark.parametrize("point", ["params", "fparams"])
    def test_coeff_sq_evaluated_once_per_step(self, point, request, monkeypatch):
        # a claim is proven once per process, and read per step by no report,
        # so the pass evaluates only the term tables of the rules it reads, the
        # four boson rules, up to level n_max + 1
        import jordan_osc.verifier as v

        P = request.getfixturevalue(point)
        v.check_irrep(P, n_max=4)  # each claim proven once, before the count
        v._image_pass.cache_clear()  # and the pass run anew
        calls = Counter()
        levels = v._levels

        def counted(table, n_max):
            calls[table, n_max] += 1
            return levels(table, n_max)

        monkeypatch.setattr(v, "_levels", counted)
        assert all(r.passed for r in v.check_irrep(P, n_max=4))
        claimed = [rule for rule in ACTION_RULES if rule.claim is not None]
        assert len(claimed) == 14 and all(v._claimed(rule, 4) is None for rule in claimed)
        bosons = Counter((rule.terms[0][3], 5) for rule in claimed if rule.op_name in v._BOSONS)
        assert sum(bosons.values()) == 4 and calls == bosons

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

    def test_rules_built_from_one_text_are_one_rule(self, fresh_process):
        # equal and hashed alike, so the per-process proofs read them once
        rule = _ACTION_OF["J+"]
        twin = ActionRule(rule.rule_id, rule.anchor, rule.irrep)
        assert twin == rule and hash(twin) == hash(rule) and twin is not rule and repr(twin) == repr(rule)
        assert ActionRule(rule.rule_id, rule.anchor) != rule  # the same action, no claim
        assert verifier._derived(rule) is None and verifier._derived(twin) is None
        assert verifier._derived.cache_info()[:2] == (1, 1)  # one hit, one miss

    def test_every_other_rule_is_derived(self, fresh_process):
        # the boson rules derive too: the chart sends each to its own x, y, dx
        # or dy, so their texts state the Fock basis
        derived = {rule.rule_id for rule in ACTION_RULES if verifier._derived(rule) is None}
        assert len(DERIVED) == 19 and derived - BOSON_RULES == DERIVED
        assert derived == DERIVED | BOSON_RULES

    def test_a_chart_that_breaks_the_weyl_relations_derives_nothing(self, fresh_process, monkeypatch):
        # a2+ doubled: [a2-, a2+] = 2, so no chart, and no rule is derived or
        # refuted; a claim needs no chart, so each is still decided: the
        # shipped ones hold, and J+'s doubled is refuted at (1, 0)
        monkeypatch.setitem(model.DEFINITIONS, "a2+", "smul -4*q*p^-1 A+")
        assert verifier._fock_generators(verifier._UNIT) is None
        assert all(verifier._derived(rule) is verifier._UNDECIDED for rule in ACTION_RULES)
        assert all(verifier._claimed(rule, 8) is None for rule in ACTION_RULES if rule.claim is not None)
        rule = _ACTION_OF["J+"]
        doubled = ActionRule(rule.rule_id, rule.anchor, f"2*({rule.irrep})")
        assert verifier._claimed(doubled, 8) == (F(1, 2), (1, 0))

    @pytest.mark.parametrize("point", [Params.exact(F(3, 2), F(2, 3)), Params.from_ab(0.79, 0.23)],
                             ids=["exact-3/2-2/3", "float-0.79-0.23"])
    def test_the_bosons_as_read_keep_every_weyl_relation(self, point, monkeypatch):
        # a1- plus w dw, at p = q = 1 where the pass reads it for every point,
        # still sends psi_00 to 0, the one function a1- is read on where the
        # Fock module holds, but [a1-, a1+] = 1 + w/2 and [a1-, a2+] = 2 dw:
        # no rule is derived, every rule is read at every level, and
        # action.a1- fails
        unit, conjugated = verifier._UNIT, model.conjugated
        monkeypatch.setattr(model, "conjugated", lambda P, name: conjugated(P, name) + DiffOp.monomial(
            (1, 0, 1, 0), 1) if (name, P) == ("a1-", unit) else conjugated(P, name))
        bosons = [model.conjugated(unit, name) for name in verifier._BOSONS]  # a1+, a2+, a1-, a2-
        assert weyl.commutator(bosons[2], bosons[0]) == DiffOp.monomial((0, 0, 0, 0), 1) + DiffOp.monomial(
            (1, 0, 0, 0), F(1, 2))
        assert weyl.commutator(bosons[2], bosons[1]) == DiffOp.monomial((0, 0, 1, 0), 2)
        assert not verifier._weyl(bosons) and verifier._weyl([conjugated(unit, name) for name in verifier._BOSONS])
        reports = run_suites(point, ("actions",), 6)
        assert _failing(reports) == {"action.a1-"} and "derived" not in {r.how for r in reports}

    # J+ doubled; J+ plus a term that vanishes at every n <= 24, which a reading
    # up to nmax 24 cannot see; D-22 with (n-m)^2 for (n-m)(n-m-1), which
    # differs first at (1, 0), whose target leaves the grid, so it is refuted
    # at (2, 0)
    @pytest.mark.parametrize("op, text, n_max, refuted", [
        ("J+", "J+ psi = 2 (n-m)*(m+1) psi[n,m+1]", 6, (F(1, 2), (1, 0))),
        ("J+", f"J+ psi = 1 (n-m)*(m+1)+(n-m)*(m+1)*{_FALLING_25} psi[n,m+1]", 24,
         (1 - F(1, factorial(25) + 1), (25, 0))),
        ("D-22", "D-22 psi = 1 (n-m)*(n-m) psi[n-2,m]", 6, (F(1, 2), (2, 0))),
    ], ids=["J+-doubled", "J+-degree-27", "D-22-squared"])
    def test_a_refuted_rule_is_read_at_the_cutoff(self, op, text, n_max, refuted, monkeypatch):
        rule = ActionRule(_ACTION_OF[op].rule_id, text, _ACTION_OF[op].irrep)
        assert verifier._derived(rule) == refuted
        read = Counter()
        conjugated = model.conjugated

        def counted(P, name):
            read[name] += 1
            return conjugated(P, name)

        monkeypatch.setattr(model, "conjugated", counted)
        monkeypatch.setattr(verifier, "ACTION_RULES", _replace_rule(ACTION_RULES, rule.rule_id, anchor=text))
        reports = run_suites(Params.exact(F(3, 2), F(2, 3)), ("actions", "irrep"), n_max)
        # the refuted rule is conjugated and read, as the boson rules are; the
        # boson rules reach level n_max + 2, so no derived rule is read
        assert set(read) == {*verifier._BOSONS, op}
        # the rule and its claim fail; the degree-27 J+, whose reading passes,
        # names its counterexample beyond n_max
        reports = {r.relation_id: r for r in reports if r.failed}
        assert reports.keys() == {f"action.{op}", f"irrep.{op}.sq", f"irrep.{op}.float"}
        assert {r.how for r in reports.values()} == {"refuted"}
        where = "worst" if n_max == 6 else "refuted"
        assert reports[f"action.{op}"].anchor.endswith(f"[{where} at n,m={refuted[1]}]")

    @pytest.mark.parametrize("point", [Params.exact(F(3, 2), F(2, 3)), Params.from_ab(0.79, 0.23)],
                             ids=["exact-3/2-2/3", "float-0.79-0.23"])
    def test_every_basis_function_up_to_the_reach_is_read(self, point, monkeypatch):
        # psi_{n,m} at p = q = 1, where the pass reads it for every point,
        # n <= n_max + 2, with its lowest coefficient doubled, one at a time.
        # Up to level n_max + 1 it fails a boson rule's read at n <= n_max, and
        # every rule is read at every level; at level n_max + 2 it fails a read
        # at n_max + 1, which enters no report, so the reach falls back to
        # n_max + 1, and the D+ rules that reach it from level n_max, read
        # there, fail. Each time the reports are the reference's there
        n_max, unit = 3, verifier._UNIT
        for n in range(n_max + 3):
            for m in range(n + 1):
                monkeypatch.setattr(model, "_POINTS", {})
                verifier._image_pass.cache_clear()
                psi = chain_psi(unit, n, m)
                key = (max(0, 2 * m - n), max(0, n - 2 * m))
                model.point_cache(unit)[model.chain_psi.__wrapped__, n, m] = psi + Poly2.monomial(*key, psi.terms[key])
                got = run_suites(point, ("actions",), n_max)
                beyond = n == n_max + 2
                want = reference_pass.image_pass(point, ("actions",), n_max, at=unit)[0]
                assert list(map(_strip, got)) == list(map(_strip, want)), (n, m)
                failing = _failing(got)
                assert failing and all(rid.startswith("action.") for rid in failing), (n, m)
                if beyond:
                    assert failing == {rule.rule_id for rule in ACTION_RULES if rule.op_name.startswith("D+")
                                       and 0 <= m - rule.terms[0][1] <= n_max}, (n, m)

    def test_boson_rules_of_another_basis_derive_nothing(self, monkeypatch):
        # psi_{n,m} times 2^n, with boson rules that state that basis: their
        # readings pass, but they do not tie it to x^m y^(n-m)/m!, so every
        # rule is read, and each that moves the level fails; the four are
        # refuted on the Fock module, so they fail too
        monkeypatch.setattr(verifier, "chain_psi", lambda P, n, m: chain_psi(P, n, m).scale(2**n))
        texts = {"a1+": "1/2 (m+1) psi[n+1,m+1]", "a2+": "1/2 psi[n+1,m]", "a1-": "2 psi[n-1,m-1]",
                 "a2-": "2 (n-m) psi[n-1,m]"}
        rules = ACTION_RULES
        for op, text in texts.items():
            rules = _replace_rule(rules, f"action.{op}", anchor=f"{op} psi = {text}")
        monkeypatch.setattr(verifier, "ACTION_RULES", rules)
        bosons = [rule for rule in rules if rule.op_name in texts]
        assert [verifier._derived(rule)[1] for rule in bosons] == [(0, 0), (1, 1), (0, 0), (1, 0)]
        moving = {rule.rule_id for rule in rules if rule.terms[0][0] and rule.op_name not in texts}
        reports = check_actions(Params.exact(F(3, 2), F(2, 3)), n_max=4)
        assert len(moving) == 10 and _failing(reports) == moving | {rule.rule_id for rule in bosons}
        assert {r.how for r in reports if r.relation_id in BOSON_RULES} == {"refuted"}

    @pytest.mark.parametrize("case", ["basis", "a1", "irrep-alone", "no-a2-", "nonlinear"])
    def test_no_rule_is_derived_unless_the_four_boson_rules_pass(self, case, fresh_process, monkeypatch):
        # with a boson rule failing or missing, or no Fock chart, every rule
        # is read at every level, none is refuted, and the reports are the
        # per-step reference's: a corrupted basis or (case a1) a1+ plus 1/1000,
        # at p = q = 1, where the pass reads them for every point, fails the
        # rules that read them. a2+ plus p z dz, of a2+'s weight, is no linear
        # form, so there is no chart and no rule is decided
        suites = ("irrep",) if case == "irrep-alone" else ("actions", "irrep")
        unit, conjugated = verifier._UNIT, model.conjugated
        P = Params.exact(F(3, 2), F(2, 3)) if case in ("basis", "irrep-alone") else Params.from_ab(0.79, 0.23)
        if case in ("basis", "irrep-alone"):  # psi_{7,3}'s zbar coefficient plus 1 fails a1+ at (6, 2)
            monkeypatch.setattr(model, "_POINTS", {})
            model.point_cache(unit)[model.chain_psi.__wrapped__, 7, 3] = chain_psi(unit, 7, 3) + Poly2.monomial(0, 1, 1)
        if case == "a1":
            monkeypatch.setattr(model, "conjugated", lambda P, name: conjugated(P, name) + DiffOp.constant(F(1, 1000))
                                if (name, P) == ("a1+", unit) else conjugated(P, name))
        if case == "no-a2-":
            monkeypatch.setattr(verifier, "ACTION_RULES", tuple(r for r in ACTION_RULES if r.rule_id != "action.a2-"))
        if case == "nonlinear":
            monkeypatch.setitem(model.DEFINITIONS, "a2+", f"add {model.DEFINITIONS['a2+']} smul 1*p mul z dz")
            assert verifier._fock_generators(verifier._UNIT) is None
        got = _image_reports(P, suites, 8)
        _assert_matches_the_reference(got, reference_pass.image_pass(P, suites, 8, at=unit))
        assert "refuted" not in {r.how for r in got[0] + got[1]}
        failing = _failing(got[0] + got[1])
        assert (not failing) if case == "no-a2-" else ("irrep.a2+.float" if case == "nonlinear" else
                                                       "irrep.a1+.float") in failing


class TestClaimProofs:
    """Each irrep claim is a polynomial identity in (n, m) on the Fock module: proven once per rule and
    cutoff, it makes each irrep report of its rule the action report; a refuted claim fails."""

    def test_every_shipped_claim_is_proven(self, fresh_process):
        claimed = [rule for rule in ACTION_RULES if rule.claim is not None]
        assert len(claimed) == 14 and all(verifier._claimed(rule, 24) is None for rule in claimed)

    def test_a_claim_wrong_only_beyond_n_24_fails_as_refuted(self, params, monkeypatch):
        # J+'s claim plus (j-mu)(j+mu+1) (2j)(2j-1)...(2j-24), which vanishes
        # at every step with n <= 24: a reading to nmax 24 cannot see it, the
        # proof can, so both irrep reports fail there, naming (25, 0)
        rule = ActionRule("action.J+", _ACTION_OF["J+"].anchor, f"(j-mu)*(j+mu+1)+(j-mu)*(j+mu+1)*{_FALLING_2J}")
        assert verifier._claimed(rule, 24) == (1 - F(1, factorial(25) + 1), (25, 0))
        monkeypatch.setattr(verifier, "ACTION_RULES", tuple(rule if r.op_name == "J+" else r for r in ACTION_RULES))
        reports = {r.relation_id: r for r in run_suites(params, ("actions", "irrep"), n_max=24)}
        assert _failing(reports.values()) == {"irrep.J+.sq", "irrep.J+.float"}
        for rid in ("irrep.J+.sq", "irrep.J+.float"):
            assert reports[rid].how == "refuted" and reports[rid].anchor.endswith("[refuted at n,m=(25, 0)]")
        assert reports["irrep.J+.float"].residual == "1.0"

    def test_a_negative_literal_is_refuted_by_its_sign_alone(self, params, monkeypatch):
        # J+ with literal -1 squares to its claim, so only w >= 0 refutes it,
        # at (1, 0), by the sides w and -w; its reading fails, so each report
        # is the action residual, 2
        rule = ActionRule("action.J+", "J+ psi = -1 (n-m)*(m+1) psi[n,m+1]", _ACTION_OF["J+"].irrep)
        assert verifier._claimed(ActionRule(rule.rule_id, _ACTION_OF["J+"].anchor, rule.irrep), 6) is None
        assert verifier._claimed(rule, 6) == (2, (1, 0))
        monkeypatch.setattr(verifier, "ACTION_RULES", tuple(rule if r.op_name == "J+" else r for r in ACTION_RULES))
        reports = {r.relation_id: r for r in run_suites(params, ("actions", "irrep"), n_max=6)}
        assert _failing(reports.values()) == {"action.J+", "irrep.J+.sq", "irrep.J+.float"}
        assert (reports["action.J+"].residual, reports["irrep.J+.sq"].residual) == ("2", "2")
        assert reports["irrep.J+.sq"].anchor.endswith("[worst at n,m=(1, 0)]")

    def test_the_sign_is_read_up_to_the_cutoff_beyond_the_identitys_levels(self):
        # J+ times 12 - n, its claim times (12 - 2j)^2: the squared identity
        # holds, decided up to level 9, and w < 0 first at (13, 0), which the
        # sign scan reaches where the cutoff does; below, w >= 0 is read, not
        # proven, as no certificate shows it for every n
        rule = verifier.ActionRule("action.J+", "J+ psi = 1 (n-m)*(m+1)*(12-n) psi[n,m+1]",
                                   "(j-mu)*(j+mu+1)*(12-2*j)*(12-2*j)")
        assert verifier._claimed(rule, 24) == (2, (13, 0))
        assert verifier._claimed(rule, 12) is verifier._UNDECIDED

    def test_every_shipped_sign_is_certified(self):
        # at n_max 0 no sign is read beyond level 0: each claim holds by its
        # identity and its certificate alone
        assert all(verifier._claimed(rule, 0) is None for rule in ACTION_RULES if rule.claim is not None)

    @pytest.mark.parametrize("n_max, how", [(24, "read"), (40, "refuted")])
    def test_a_sign_negative_only_beyond_the_cutoff_is_read(self, params, monkeypatch, n_max, how):
        # J+ times 30 - n, its claim times (30 - 2j)^2: the squared identity
        # holds for every n and w >= 0 up to n = 30, so at n_max 24 the claim
        # is read, not proven, and at n_max 40 refuted at (31, 0); the reports
        # fail either way, as J+'s action is no longer what the rule says
        rule = ActionRule("action.J+", "J+ psi = 1 (n-m)*(m+1)*(30-n) psi[n,m+1]",
                          "(j-mu)*(j+mu+1)*(30-2*j)*(30-2*j)")
        # w at m = s, n = s + t + 1 on the corner s, t <= 3; J+'s own w, (t + 1)(s + 1), is certified
        assert not verifier._nonnegative([[(t + 1) * (s + 1) * (29 - s - t) for t in range(4)] for s in range(4)])
        assert verifier._nonnegative([[(t + 1) * (s + 1) for t in range(3)] for s in range(3)])
        monkeypatch.setattr(verifier, "ACTION_RULES", (rule,))
        reports = run_suites(params, ("irrep",), n_max)
        assert [(r.relation_id, r.how, r.passed) for r in reports] == [
            ("irrep.J+.sq", how, False), ("irrep.J+.float", how, False)]
        assert verifier._claimed(rule, n_max) == (verifier._UNDECIDED if n_max == 24 else (2, (31, 0)))

    def test_a_claimed_rule_whose_literal_has_a_factor_is_refused(self):
        # the claim is point-free, so its action coefficient must be too; the
        # same rule without a claim is built
        text = "K psi = 1*a*b^-1*b*a^-1 (n+1) psi[n,m]"
        with pytest.raises(ValueError, match=r"^action\.K: an irrep claim needs a number for its rule's literal, "
                                             r"not '1\*a\*b\^-1\*b\*a\^-1'$"):
            ActionRule("action.K", text, _ACTION_OF["K"].irrep)
        assert verifier.ActionRule("action.K", text).claim is None


class TestProvenance:
    """Each report says how its verdict was reached: "derived", "proven", "read" or "refuted"."""

    def test_derived(self, params):
        # the rules whose levels the pass took from the Fock module: the 19
        # derived ones, and a1- and a2- past level 0; a1+ reads the top step
        # of every level, and a2+ every step
        reports = run_suites(params, ("actions",), n_max=4)
        assert {r.relation_id for r in reports if r.how == "derived"} == DERIVED | LOWERING
        assert {r.relation_id for r in reports if r.how == "read"} == BOSON_RULES - LOWERING

    def test_proven(self, params):
        # every shipped claim, catalog relation and explicit form
        reports = run_suites(params, ("structure", "irrep"), n_max=4)
        assert len(reports) == 133 + 14 + 26 and {r.how for r in reports} == {"proven"}

    def test_read(self, params, monkeypatch):
        # pseudo.H and the integrals suite are read; a refuted boson rule has
        # every other rule read, and it and its claim are refuted
        assert {r.how for r in run_suites(params, ("pseudo", "integrals"), n_max=4)} == {"read"}
        monkeypatch.setattr(verifier, "ACTION_RULES", _replace_rule(
            ACTION_RULES, "action.a1+", anchor="a1+ psi = 1 (m+2) psi[n+1,m+1]"))
        reports = run_suites(params, ("actions", "irrep"), n_max=4)
        hows = {r.relation_id: r.how for r in reports}
        assert {rid for rid, how in hows.items() if how == "read"} == {r.rule_id for r in ACTION_RULES} - {"action.a1+"}
        assert {rid for rid, how in hows.items() if how == "refuted"} == {"action.a1+", "irrep.a1+.sq", "irrep.a1+.float"}


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
        # exact), the action suite the basis at p = q = 1: corrupt both stores
        monkeypatch.setattr(model, "_POINTS", {})
        for P in (point.twin, verifier._UNIT):
            model.point_cache(P)[model.chain_psi.__wrapped__, 7, 3] = chain_psi(P, 7, 3) + Poly2.monomial(*key, 1)
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

    def test_refuted_report_cannot_pass(self):
        # a refuted check fails, whatever its residual
        with pytest.raises(ValueError, match="no skipped or refuted check passes"):
            Report("x", "x", "exact", True, "0", 0.0, how="refuted")
        assert Report("x", "x", "float", False, "1e-20", 0.0, how="refuted").failed

    @pytest.mark.parametrize("how", ["", "Read", "counterexample", None])
    def test_a_how_outside_the_four_is_refused(self, how):
        with pytest.raises(ValueError, match="how is one of derived, proven, read, refuted"):
            Report("x", "x", "exact", False, "1", 0.0, how=how)


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

    @pytest.mark.parametrize("proof, report", [("_derived", "action.J+"), ("_claimed", "irrep.J+.sq")])
    def test_a_proof_is_timed_into_the_first_report_that_waits_on_it(self, params, monkeypatch, proof, report):
        # J+'s derivation, or its claim's proof, made to take 20 ms, with J+'s
        # rule first: the time lands in J+'s action report, the first report
        # that waits on the image pass, or in J+'s first irrep report. The
        # pass is kept, so a second point's run waits on no derivation
        original = getattr(verifier, proof)

        def slow(rule, *args):
            if rule.op_name == "J+":
                time.sleep(0.02)
            return original(rule, *args)

        monkeypatch.setattr(verifier, proof, slow)
        first = (_ACTION_OF["J+"], *(r for r in ACTION_RULES if r.op_name != "J+"))
        monkeypatch.setattr(verifier, "ACTION_RULES", first)
        reports = {r.relation_id: r for r in run_suites(params, ("actions", "irrep"), n_max=4)}
        assert reports[report].ms >= 20
        if proof == "_derived":
            again = {r.relation_id: r for r in run_suites(Params.exact(F(3, 2), F(2, 3)), ("actions", "irrep"), 4)}
            assert again[report].ms < 20

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

    def test_a_wrong_factor_fails_every_float_report_at_p_1e100(self, fresh_process, monkeypatch):
        # at p = 1e100, where the images and targets leave the float range,
        # each ladder claim times a wrong factor 1 + (2j)(2j-1)...(2j-24),
        # which a reading up to n 24 cannot see, fails every .float report by
        # its counterexample at level 25, read in floats, and none skips
        import jordan_osc.verifier as v

        P = Params.exact(F(10) ** 100, 1)
        monkeypatch.setattr(v, "ACTION_RULES", tuple(_refuted(rule) if rule in LADDERS else rule
                                                     for rule in v.ACTION_RULES))
        reports = {r.relation_id: r for r in v.check_irrep(P, n_max=8) if r.relation_id.endswith(".float")}
        assert len(reports) == 12
        for rid, r in reports.items():
            assert r.failed and r.how == "refuted" and float(r.residual) == 1.0, rid
            assert r.anchor.startswith(rid[len("irrep."):-len(".float")] + " phi = "), rid
            assert "[refuted at n,m=(25, " in r.anchor and v.FLOAT_OVERFLOW not in r.anchor, rid

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

    @pytest.mark.parametrize("part", ["image"])
    def test_eigenvalue_residual(self, part):
        # J0 psi_{2,1} = 0, with the wrong claim mu+1, refuted at (0, 0): a
        # NaN image residual at (2, 1) fails the reading, so the report is it
        rule = ActionRule("action.J0", _ACTION_OF["J0"].anchor, "mu+1")
        [report] = _merged_reports(rule, "float", (NAN, (2, 1)))
        assert report.residual == "nan" and report.anchor.endswith("[worst at n,m=(2, 1)]")

    @pytest.mark.parametrize("part", ["image"])
    def test_squared_ladder_residual(self, part):
        # J+ psi_{2,0} targets psi_{2,1}; the claim doubled is refuted at (1, 0)
        rule = ActionRule(LADDERS[0].rule_id, LADDERS[0].anchor, f"2*({LADDERS[0].irrep})")
        sq = _merged_reports(rule, "exact", (NAN, (2, 0)))[0]
        assert sq.relation_id == "irrep.J+.sq" and sq.residual == "nan"
