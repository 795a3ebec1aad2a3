"""The per-(n, m) image pass, kept as the test reference of the level-stacked
pass in ``jordan_osc.verifier``.

Basis-outer, one step per (n, m): every operator is applied to psi_{n,m} by
name (``model.apply``), and each image op.psi_{n,m} is read whole, exactly, at
the point's dyadic twin (or at a point the caller names), against the built
difference image - sum c psi_{n',m'}: its largest magnitude per charge line
e - i, each over |c| T of the target on that line (T the target's largest
coefficient), a line without a target reading 1 where it is nonzero. By the
grading under sigma_P (see verifier) a twin's reports are the unit pass's, so
they are every point's: every report keeps its exact verdict and, at a float
point or in a .float report, shows its residual in floats. The reports come from the
package's own rules and checks, and each irrep report reads its rule's image
residual at each step, as the package's does. It is the reference for
readings, not for refutations: a rule or claim the package refutes fails
there with its counterexample wherever this reading passes.

``direct_reading`` reads op phi_{n,m} - c psi_{n',m'} whole, in floats: the
quantity that the .float residual bounds, for the tests of that bound.

The pass reads each rule's coefficients from ``TERMS``, the action terms as
functions of (n, m), and gives an irrep report to each rule in ``CLAIMS``,
the irrep claims as functions of (j, mu), each keyed by rule id and written
out by hand, not from the verifier's parsed rule texts; a test that changes a
rule changes its entry here too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import sqrt

from jordan_osc import model, verifier
from jordan_osc.model import EXACT
from jordan_osc.verifier import _Check
from jordan_osc.weyl import linear_combination

from reference_forms import phi_scale_sq

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


def step_residual(targets, image):
    """The residual of one step against its (c, x, charge) targets: per charge
    line e - i of image - sum c x, the line's largest magnitude over |c| T of
    the target x of that charge, 1 on a line without one."""
    difference = linear_combination([*((-c, x) for c, x, _ in targets), (1, image)])
    lines = {}
    for (e, i), u in difference.terms.items():
        lines.setdefault(e - i, []).append(abs(u))
    scales = {charge: abs(c) * x.max_magnitude() for c, x, charge in targets}
    return max((max(us) / scales.get(charge, max(us)) for charge, us in lines.items()), default=0)


def direct_reading(target, n, m, c2, image, basis):
    """op phi_{n,m} - c psi_{n',m'} in floats, read whole, at a step whose
    action term is ``target`` (w, n', m'): each exact coefficient read in
    floats, times the su(2) factor sqrt(m!/(n-m)!) of its function in floats,
    c = sqrt(c2); off the grid, op phi_{n,m} alone."""
    scale = sqrt(phi_scale_sq(n, m))
    _, n2, m2 = target
    terms = {key: scale * float(u) for key, u in image.terms.items()}
    if 0 <= m2 <= n2:
        c = sqrt(c2) * sqrt(phi_scale_sq(n2, m2))
        for key, u in basis(n2, m2).terms.items():
            terms[key] = terms.get(key, 0.0) - c * float(u)
    return max(map(abs, terms.values()), default=0.0)


def image_pass(params, suites, n_max, at=None):
    """(action reports, irrep reports) of the suites among ``suites``, as
    verifier.run_suites gives them at ``params``, in the verifier's rule order
    and with its anchors, from the coefficients of TERMS, every step read
    exactly at ``at`` (default: the point's twin). Each action report is in
    the point's mode with its exact verdict; each irrep report reads the
    step's image residual, exactly, the .float one shown in floats."""
    at = params.twin if at is None else at
    basis = cache(partial(model.chain_psi, at))
    plan = []
    for rule in verifier.ACTION_RULES:
        claimed = "irrep" in suites and rule.rule_id in CLAIMS
        if not claimed and "actions" not in suites:
            continue
        action = _Check(rule.rule_id, rule.anchor, EXACT)
        checks = verifier._irrep_checks(params.mode, rule) if claimed else []
        terms = [(dn, dm, model._scalar(literal, at), poly) for dn, dm, literal, poly in TERMS[rule.rule_id]]
        plan.append((rule, terms, action, checks))
    for n in range(n_max + 1):
        for m in range(n + 1):
            psi = basis(n, m)
            for rule, terms, action, checks in plan:
                targets = [(c * poly(n, m), n + dn, m + dm) for dn, dm, c, poly in terms]
                image = model.apply(at, rule.op_name, psi)
                image_residual = step_residual([
                    (c, basis(n2, m2), 2 * m2 - n2) for c, n2, m2 in targets if c and 0 <= m2 <= n2], image)
                action.add(image_residual, (n, m))
                for check in checks:
                    check.add(image_residual, (n, m))
    actions = [action.report(params.mode) for _, _, action, _ in plan] if "actions" in suites else []
    return actions, [check.report() for *_, checks in plan for check in checks]
