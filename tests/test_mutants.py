"""Mutants of the shipped action rules and of the bosons the image pass reads:
each wrong irrep claim, action rule or boson fails, in both modes, however far
beyond the cutoff it is first wrong and however small the error.

The rule mutants are built from the text of ``verifier.ACTION_RULES``, not
from a hand-written list: each claim plus 1 and times 2, and J+'s rule with
its literal negated (wrong by its sign alone), with a term that vanishes at
every n <= 24, and with its literal times 1 + 1e-11 (which a reading in
floats under a tolerance of 1e-10 once passed). A refuted report reads
"refuted"; where its reading passes, its anchor names the counterexample, the
first (n, m) where the proof finds the identity false. The boson mutants
change the conjugated operator the pass reads at p = q = 1 for every point
(``verifier._UNIT``): each of the four times 1 + 10^-12, and a1- and a2- plus
w dw, which still sends psi_00 to 0.
"""

from fractions import Fraction

import pytest

from jordan_osc import EXACT, DiffOp, Params, model, run_suites, verifier
from jordan_osc.verifier import ActionRule

#: n(n-1)...(n-24): zero at every level a cutoff up to 24 reads
FALLING_25 = "*".join(["n", *(f"(n-{t})" for t in range(1, 25))])
POINTS = [Params.exact(Fraction(3, 2), Fraction(2, 3)), Params.from_ab(0.79, 0.23)]
SHIPPED = verifier.ACTION_RULES


def _claim_mutants() -> list:
    """(name, rule) of each claim plus 1 and times 2."""
    return [(f"{rule.rule_id} claim {how}", ActionRule(rule.rule_id, rule.anchor, text.format(rule.irrep)))
            for rule in SHIPPED if rule.claim is not None
            for how, text in (("+1", "({})+1"), ("*2", "2*({})"))]


def _jplus_mutants() -> dict:
    """J+'s rule, its literal c and polynomial P rewritten: -c P; c P + c P n(n-1)...(n-24); and
    c (1 + 1e-11) P."""
    rule = next(rule for rule in SHIPPED if rule.op_name == "J+")
    op, _, rhs = rule.anchor.partition(" psi = ")
    literal, poly, target = rhs.split(" ")
    texts = {"negated": f"{-Fraction(literal)} {poly}",
             "beyond-24": f"{literal} {poly}+{poly}*{FALLING_25}",
             "1e-11": f"{Fraction(literal) * Fraction(10**11 + 1, 10**11)} {poly}"}
    return {name: ActionRule(rule.rule_id, f"{op} psi = {text} {target}", rule.irrep) for name, text in texts.items()}


def _irrep_ids(rule, mode: str) -> set:
    if rule.terms[0][:2] == (0, 0):
        return {f"irrep.{rule.op_name}"}
    return {f"irrep.{rule.op_name}.float"} | ({f"irrep.{rule.op_name}.sq"} if mode == EXACT else set())


def _failing(monkeypatch, point, rule, n_max) -> dict:
    """The failing reports, by id, with ``rule`` in place of the shipped rule of its id."""
    monkeypatch.setattr(verifier, "ACTION_RULES", tuple(rule if r.rule_id == rule.rule_id else r for r in SHIPPED))
    return {r.relation_id: r for r in run_suites(point, ("actions", "irrep"), n_max) if r.failed}


@pytest.mark.parametrize("point", POINTS, ids=["exact-3/2-2/3", "float-0.79-0.23"])
def test_every_mutant_fails_its_reports_as_refuted(point, monkeypatch):
    mutants = _claim_mutants() + [(f"action.J+ {name}", rule) for name, rule in _jplus_mutants().items()]
    assert len(mutants) == 31
    missed = []
    for name, rule in mutants:
        want = _irrep_ids(rule, point.mode) | ({rule.rule_id} if "claim" not in name else set())
        failing = _failing(monkeypatch, point, rule, 6)
        if failing.keys() != want or {r.how for r in failing.values()} != {"refuted"}:
            missed.append((name, sorted(failing), {r.how for r in failing.values()}))
    assert not missed


@pytest.mark.parametrize("point", POINTS, ids=["exact-3/2-2/3", "float-0.79-0.23"])
@pytest.mark.parametrize("name, at", [("beyond-24", (25, 0)), ("1e-11", (1, 0))])
@pytest.mark.parametrize("n_max", [6, 24])
def test_a_rule_a_reading_cannot_refute_names_its_counterexample(point, name, at, n_max, monkeypatch):
    # beyond-24 reads as the shipped rule up to n 24, so each report names where
    # the proof refutes the rule, or its claim; the exact reading of 1e-11
    # fails, so each of its reports, the .float one too, names its worst step
    rule = _jplus_mutants()[name]
    failing = _failing(monkeypatch, point, rule, n_max)
    assert failing.keys() == {"action.J+"} | _irrep_ids(rule, point.mode)
    counterexamples = {rid for rid, r in failing.items() if r.anchor.endswith(f"[refuted at n,m={at}]")}
    read = {rid for rid, r in failing.items() if "[worst at n,m=" in r.anchor}
    assert counterexamples | read == failing.keys() and {r.how for r in failing.values()} == {"refuted"}
    assert read == (failing.keys() if name == "1e-11" else set())


def _boson_mutants() -> dict:
    """name -> (boson, its conjugated operator at _UNIT changed): each of the four times 1 + 10^-12, as a
    Fraction, and a1- and a2- plus w dw."""
    scaled = lambda x: x.scale(Fraction(10**12 + 1, 10**12))  # noqa: E731
    stray = lambda x: x + DiffOp.monomial((1, 0, 1, 0), 1)  # noqa: E731
    return {**{f"{op} times 1+1e-12": (op, scaled) for op in verifier._BOSONS},
            **{f"{op} plus w dw": (op, stray) for op in ("a1-", "a2-")}}


@pytest.mark.parametrize("point", POINTS, ids=["exact-3/2-2/3", "float-0.79-0.23"])
@pytest.mark.parametrize("n_max", [6, 24])
def test_every_boson_mutant_fails_its_action_report(point, n_max, monkeypatch):
    # however small, an error in what the pass reads fails exactly at every
    # point, a float one too: the pass is exact, at p = q = 1
    conjugated, missed = model.conjugated, []
    for name, (boson, change) in _boson_mutants().items():
        monkeypatch.setattr(model, "conjugated", lambda P, op, boson=boson, change=change: (
            change(conjugated(P, op)) if (op, P) == (boson, verifier._UNIT) else conjugated(P, op)))
        verifier._image_pass.cache_clear()
        failing = {r.relation_id for r in run_suites(point, ("actions", "irrep"), n_max) if r.failed}
        if f"action.{boson}" not in failing:
            missed.append((name, sorted(failing)))
    assert len(_boson_mutants()) == 6 and not missed


@pytest.mark.parametrize("point, n_max", [(Params.from_ab(0.79, 0.23), 24), (Params.exact(1, Fraction(1, 2)), 6)],
                         ids=["float-0.79-0.23-n24", "exact-1-1/2-n6"])
def test_a_boson_error_below_any_float_tolerance_fails_its_float_irrep_report(point, n_max, monkeypatch):
    # a2+'s conjugation at p = q = 1 times 1 + 10^-12: irrep.a2+.float takes the exact verdict of its
    # reading, as action.a2+ does, and shows the same residual, 1e-12, in floats
    boson, change = _boson_mutants()["a2+ times 1+1e-12"]
    conjugated = model.conjugated
    monkeypatch.setattr(model, "conjugated", lambda P, op: (
        change(conjugated(P, op)) if (op, P) == (boson, verifier._UNIT) else conjugated(P, op)))
    reports = {r.relation_id: r for r in run_suites(point, ("actions", "irrep"), n_max)}
    for rid in ("action.a2+", "irrep.a2+.float"):
        assert reports[rid].failed, rid
        assert float(Fraction(reports[rid].residual)) == pytest.approx(1e-12, rel=1e-9), (rid, reports[rid].residual)
