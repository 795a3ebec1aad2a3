"""The per-(n, m) image pass, kept as the test reference of the level-stacked
pass in ``jordan_osc.verifier``.

Basis-outer, one step per (n, m): every operator is applied to psi_{n,m} by
name (``model.apply``), and each image op.psi_{n,m} is read whole, against
the built difference image - sum c psi_{n',m'}, one way in both modes: its
largest magnitude per charge line e - i, each over |c| T of the target on
that line (T the target's largest coefficient), a line without a target
reading 1 where it is nonzero. The reports come from
the package's own rules, checks and per-step residual functions, so every
report equals the package's.

``direct_reading`` reads op phi_{n,m} - c psi_{n',m'} whole, in floats: the
quantity that the .float residual bounds, for the tests of that bound.

The pass reads each rule's coefficients from ``TERMS`` and ``CLAIMS``, the
action terms and irrep claims as functions of (n, m) and (j, mu), keyed by
rule id and written out by hand, not from the verifier's parsed rule texts;
a test that changes a rule changes its entry here too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import sqrt

from jordan_osc import model, verifier
from jordan_osc.verifier import _Check
from jordan_osc.weyl import EXACT, FLOAT, lift, linear_combination, max_or_nan, zero

#: rule id -> the terms (dn, dm, literal, poly) of op psi_{n,m} = sum literal
#: poly(n, m) psi_{n+dn,m+dm}
TERMS = {
    "action.B-": ((-1, 0, "4*p*q", lambda n, m: n - m), (-1, -1, "1/2*q*p^-1", lambda n, m: 1)),
    "action.B+": ((1, 1, "-4*p*q", lambda n, m: m + 1), (1, 0, "-1/2*q*p^-1", lambda n, m: 1)),
    "action.A-": ((-1, -1, "1/2*p*q^-1", lambda n, m: 1),),
    "action.A+": ((1, 0, "-1/2*p*q^-1", lambda n, m: 1),),
    "action.jordan-H": ((0, 0, "4*a", lambda n, m: n + 1), (0, -1, "1", lambda n, m: 1)),
    "action.R": ((0, -1, "-1/4*a*b^-1", lambda n, m: 1),),
    "action.S": ((0, -1, "-1/4*b*a^-1", lambda n, m: 1), (0, 0, "-2*b", lambda n, m: n),
                 (0, 1, "-16*a*b", lambda n, m: (n - m) * (m + 1))),
    "action.T": ((0, 0, "-2*a", lambda n, m: n - 2 * m),),
    "action.U": ((0, 0, "-2*a", lambda n, m: n), (0, -1, "-1/2", lambda n, m: 1)),
    "action.J0": ((0, 0, "1/2", lambda n, m: 2 * m - n),),
    "action.J+": ((0, 1, "1", lambda n, m: (n - m) * (m + 1)),),
    "action.J-": ((0, -1, "1", lambda n, m: 1),),
    "action.K": ((0, 0, "1", lambda n, m: n + 1),),
    "action.a1+": ((1, 1, "1", lambda n, m: m + 1),),
    "action.a1-": ((-1, -1, "1", lambda n, m: 1),),
    "action.a2+": ((1, 0, "1", lambda n, m: 1),),
    "action.a2-": ((-1, 0, "1", lambda n, m: n - m),),
    "action.D+11": ((2, 2, "1", lambda n, m: (m + 1) * (m + 2)),),
    "action.D+12": ((2, 1, "1", lambda n, m: m + 1),),
    "action.D+22": ((2, 0, "1", lambda n, m: 1),),
    "action.D-11": ((-2, -2, "1", lambda n, m: 1),),
    "action.D-12": ((-2, -1, "1", lambda n, m: n - m),),
    "action.D-22": ((-2, 0, "1", lambda n, m: (n - m) * (n - m - 1)),),
}

#: rule id -> its irrep claim in (j, mu): the eigenvalue of a diagonal rule,
#: the squared ladder coefficient of any other
CLAIMS = {
    "action.J0": lambda j, mu: mu,
    "action.K": lambda j, mu: 2 * j + 1,
    "action.J+": lambda j, mu: (j - mu) * (j + mu + 1),
    "action.J-": lambda j, mu: (j + mu) * (j - mu + 1),
    "action.a1+": lambda j, mu: j + mu + 1,
    "action.a1-": lambda j, mu: j + mu,
    "action.a2+": lambda j, mu: j - mu + 1,
    "action.a2-": lambda j, mu: j - mu,
    "action.D+11": lambda j, mu: (j + mu + 1) * (j + mu + 2),
    "action.D-11": lambda j, mu: (j + mu) * (j + mu - 1),
    "action.D+12": lambda j, mu: (j - mu + 1) * (j + mu + 1),
    "action.D-12": lambda j, mu: (j - mu) * (j + mu),
    "action.D+22": lambda j, mu: (j - mu + 1) * (j - mu + 2),
    "action.D-22": lambda j, mu: (j - mu) * (j - mu - 1),
}


def claim_at(rule_id, n, m):
    """The claim of a rule at psi_{n,m}, j = n/2, mu = m - n/2, exactly."""
    return Fraction(CLAIMS[rule_id](Fraction(n, 2), Fraction(2 * m - n, 2)))


def whole_residual(mode, targets, image, scale=1):
    """The largest magnitude of sum (-c) x + scale * image over every monomial."""
    return linear_combination(mode, [*((-c, x) for c, x in targets), (scale, image)]).max_magnitude()


def step_residual(mode, targets, image):
    """The residual of one step against its (c, x, charge) targets, in both
    modes: per charge line e - i of image - sum c x, the line's largest
    magnitude over |c| T of the target x of that charge, 1 on a line without
    one, a NaN winning."""
    difference = linear_combination(mode, [*((-c, x) for c, x, _ in targets), (1, image)])
    lines = {}
    for (e, i), u in difference.terms.items():
        lines.setdefault(e - i, []).append(abs(u))
    scales = {charge: abs(c) * x.max_magnitude() for c, x, charge in targets}
    return max_or_nan(zero(mode), *(max_or_nan(*us) / scales.get(charge, max_or_nan(*us))
                                    for charge, us in lines.items() if max_or_nan(*us)))


def direct_reading(target, n, m, c2, image, basis):
    """op phi_{n,m} - c psi_{n',m'} in floats, read whole, at a step whose
    action term is ``target`` (w, n', m'), c = sqrt(c2) su2_factor(n', m');
    off the grid, op phi_{n,m} alone."""
    scale = verifier.su2_factor(n, m)
    _, n2, m2 = target
    if not (0 <= m2 <= n2):
        return whole_residual(FLOAT, [], image.to_float(), scale)
    c = sqrt(c2) * verifier.su2_factor(n2, m2)
    return whole_residual(FLOAT, [(c, basis(n2, m2).to_float())], image.to_float(), scale)


def image_pass(params, suites, n_max, tol=verifier.DEFAULT_TOL, derived=()):
    """(action reports, irrep reports) of the suites among ``suites``, as
    verifier._image_pass gives them, in the verifier's rule order and with its
    anchors, from the coefficients of TERMS and CLAIMS. A rule whose id is in
    ``derived`` reads its image only at the steps with a target beyond level
    n_max + 1; at every other step its image residual is 0."""
    basis = cache(partial(model.chain_psi, params))
    plan = []
    for rule in verifier.ACTION_RULES:
        claim = CLAIMS.get(rule.rule_id) if "irrep" in suites else None
        if claim is None and "actions" not in suites:
            continue
        action = _Check(rule.rule_id, rule.anchor, params.mode, tol)
        checks = [] if claim is None else verifier._irrep_checks(params.mode, rule, tol)
        # each literal at the twin, rounded once at a float point
        terms = [(dn, dm, lift(model._scalar(literal, params.twin), params.mode), poly)
                 for dn, dm, literal, poly in TERMS[rule.rule_id]]
        plan.append((rule, terms, action, claim, checks))
    for n in range(n_max + 1):
        for m in range(n + 1):
            psi = basis(n, m)
            j, mu = (Fraction(n, 2), Fraction(2 * m - n, 2)) if params.mode == EXACT else (n / 2, m - n / 2)
            for rule, terms, action, claim, checks in plan:
                targets = [(c * poly(n, m), n + dn, m + dm) for dn, dm, c, poly in terms]
                value = None if claim is None else claim(j, mu)
                if rule.rule_id in derived and all(n2 <= n_max + 1 for _, n2, _ in targets):
                    image_residual = 0
                else:
                    image = model.apply(params, rule.op_name, psi)
                    image_residual = step_residual(params.mode, [
                        (c, basis(n2, m2), 2 * m2 - n2) for c, n2, m2 in targets if c and 0 <= m2 <= n2], image)
                action.add(image_residual, (n, m))
                for check, residual in checks:
                    check.add(residual(n, m, value, targets[0], image_residual), (n, m))
    actions = [action.report() for _, _, action, *_ in plan] if "actions" in suites else []
    return actions, [check.report() for *_, checks in plan for check, _ in checks]
