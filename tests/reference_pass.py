"""The per-(n, m) image pass, kept as the test reference of the level-stacked
pass in ``jordan_osc.verifier``.

Basis-outer, one step per (n, m): every operator is applied to psi_{n,m} by
name (``model.apply``), and each image op.psi_{n,m} is read whole. Its
residuals are those of the built polynomials:
``linear_combination(...).max_magnitude()`` over every monomial of the image
and its targets, and, for the direct irrep reports, of the image and the
target read in floats by ``to_float`` at every step, so a reading beyond the
float range raises ``OverflowError`` there. The reports come from the
package's own rules, checks and per-step residual functions, but for the
direct reports, which the package bounds from the action reading and reads
directly only where that bound fails; so a passing direct report reads at
most the package's residual, and every other report the same.

The pass reads each rule's coefficients from ``TERMS`` and ``CLAIMS``, the
action terms and irrep claims as functions of (n, m) and (j, mu), keyed by
rule id and written out by hand, not from the verifier's parsed rule texts;
a test that changes a rule changes its entry here too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import isfinite, sqrt

from jordan_osc import model, verifier
from jordan_osc.verifier import FLOAT_OVERFLOW, _Check
from jordan_osc.weyl import EXACT, FLOAT, lift, linear_combination, max_or_nan

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


def direct_reading(target, n, m, c2, image, basis):
    """op phi_{n,m} - c psi_{n',m'} in floats, read whole, at a step whose
    action term is ``target`` (c, n', m'): the reading that direct_residual
    normalizes."""
    scale = verifier.su2_factor(n, m)
    _, n2, m2 = target
    if not (0 <= m2 <= n2):
        return whole_residual(FLOAT, [], image.to_float(), scale)
    c = sqrt(c2) * verifier.su2_factor(n2, m2)
    return whole_residual(FLOAT, [(c, basis(n2, m2).to_float())], image.to_float(), scale)


def direct_residual(target, n, m, c2, image, basis, mode):
    """The direct report's residual at one step: direct_reading over the
    target's size, max(1, sqrt(c2) su2_factor(n', m') |psi_{n',m'}|), and off
    the grid at least |c2|; in an exact run OverflowError where a reading
    leaves the float range."""
    reading, size = direct_reading(target, n, m, c2, image, basis), 0.0
    _, n2, m2 = target
    if 0 <= m2 <= n2:
        size = sqrt(c2) * verifier.su2_factor(n2, m2) * float(basis(n2, m2).max_magnitude())
    else:
        reading = max_or_nan(abs(float(c2)), reading)
    if mode == EXACT and not isfinite(reading + size):
        raise OverflowError("a float reading of the exact image or target leaves the float range")
    return reading / max_or_nan(1.0, size)


def _direct(*args):
    raise AssertionError("the reference reads each direct step with direct_residual")


def image_pass(params, suites, n_max, tol=verifier.DEFAULT_TOL):
    """(action reports, irrep reports) of the suites among ``suites``, as
    verifier._image_pass gives them, in the verifier's rule order and with its
    anchors, from the coefficients of TERMS and CLAIMS."""
    basis = cache(partial(model.chain_psi, params))
    plan = []
    for rule in verifier.ACTION_RULES:
        claim = CLAIMS.get(rule.rule_id) if "irrep" in suites else None
        if claim is None and "actions" not in suites:
            continue
        action = _Check(rule.rule_id, rule.anchor, params.mode, tol)
        checks = [] if claim is None else verifier._irrep_checks(params.mode, rule, tol, _direct)
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
                image = model.apply(params, rule.op_name, psi)
                image_residual = whole_residual(
                    params.mode, [(c, basis(n2, m2)) for c, n2, m2 in targets if c and 0 <= m2 <= n2], image)
                action.add(image_residual, (n, m))
                for check, residual in checks:
                    try:
                        if residual is _direct:
                            check.add(direct_residual(targets[0], n, m, value, image, basis, params.mode), (n, m))
                        else:
                            check.add(residual(n, m, value, targets[0], image_residual), (n, m))
                    except OverflowError:
                        check.skip(FLOAT_OVERFLOW)
    actions = [action.report() for _, _, action, *_ in plan] if "actions" in suites else []
    return actions, [check.report() for *_, checks in plan for check, _ in checks]
