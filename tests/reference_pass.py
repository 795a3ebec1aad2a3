"""The per-(n, m) image pass, kept as the test reference of the level-stacked
pass in ``jordan_osc.verifier``.

Basis-outer, one step per (n, m): every operator is applied to psi_{n,m} by
name (``model.apply``), and each image op.psi_{n,m} is read whole. Its
residuals are those of the built polynomials:
``linear_combination(...).max_magnitude()`` over every monomial of the image
and its targets, and, for the direct irrep reports, of the image and the
target read in floats by ``to_float``, so a reading beyond the float range
raises ``OverflowError`` there. The reports come from the package's own
rules, checks and per-step residual functions; only the way each image is
built and read differs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import sqrt

from jordan_osc import model, verifier
from jordan_osc.verifier import FLOAT_OVERFLOW, _Check
from jordan_osc.weyl import EXACT, FLOAT, linear_combination


def whole_residual(mode, targets, image, scale=1):
    """The largest magnitude of sum (-c) x + scale * image over every monomial."""
    return linear_combination(mode, [*((-c, x) for c, x in targets), (scale, image)]).max_magnitude()


def direct_reading(rule, n, m, c2, image, basis):
    """op phi_{n,m} - c psi_{n',m'} in floats, read whole: the reading that
    verifier._float_ladder_residual normalizes."""
    scale = verifier.su2_factor(n, m)
    n2, m2 = n + rule.dn, m + rule.dm
    if not (0 <= m2 <= n2):
        return whole_residual(FLOAT, [], image.to_float(), scale)
    c = sqrt(c2) * verifier.su2_factor(n2, m2)
    return whole_residual(FLOAT, [(c, basis(n2, m2).to_float())], image.to_float(), scale)


def image_pass(params, suites, n_max, tol=verifier.DEFAULT_TOL):
    """(action reports, irrep reports) of the suites among ``suites``, as
    verifier._image_pass gives them, from the verifier's rules as they stand."""
    irrep_rules = verifier.DIAGONAL_RULES + verifier.LADDER_RULES if "irrep" in suites else ()
    by_op = {rule.op_name: rule for rule in irrep_rules}
    basis = cache(partial(model.chain_psi, params))
    sizes = cache(lambda n, m: float(basis(n, m).max_magnitude()))
    direct = partial(verifier._float_ladder_residual, sizes=sizes)
    plan = []
    for rule in verifier.ACTION_RULES:
        irrep_rule = by_op.get(rule.op_name)
        if irrep_rule is None and "actions" not in suites:
            continue
        action = _Check(rule.rule_id, rule.anchor, params.mode, tol)
        claim, checks = ((None, []) if irrep_rule is None
                         else verifier._irrep_checks(params.mode, irrep_rule, tol, direct))
        plan.append((rule, action, irrep_rule, claim, checks))
    for n in range(n_max + 1):
        for m in range(n + 1):
            psi = basis(n, m)
            j, mu = (Fraction(n, 2), Fraction(2 * m - n, 2)) if params.mode == EXACT else (n / 2, m - n / 2)
            for rule, action, irrep_rule, claim, checks in plan:
                terms = rule.terms(params, n, m)
                value = None if claim is None else claim(j, mu)
                image = model.apply(params, rule.op_name, psi)
                image_residual = whole_residual(
                    params.mode, [(c, basis(n2, m2)) for n2, m2, c in terms if c and 0 <= m2 <= n2], image)
                action.add(image_residual, (n, m))
                for check, residual in checks:
                    try:
                        reading = None
                        if residual is direct:
                            reading = direct_reading(irrep_rule, n, m, value, image, basis)
                        check.add(residual(params, irrep_rule, n, m, value, terms, reading, image_residual), (n, m))
                    except OverflowError:
                        check.skip(FLOAT_OVERFLOW)
    actions = [action.report() for _, action, *_ in plan] if "actions" in suites else []
    irrep = {irrep_rule.rule_id: [check.report() for check, _ in checks]
             for _, _, irrep_rule, _, checks in plan if irrep_rule is not None}
    return actions, [report for rule in irrep_rules for report in irrep[rule.rule_id]]

