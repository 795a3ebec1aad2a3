"""Machine verification suites.

Every identity the model asserts is checked here, grouped into five suites:

* structure  -- (anti)commutator and operator identities, driven by the
                shipped relation catalog (data, not code),
* actions    -- operator actions on the basis functions psi_{n,m},
* irrep      -- su(2)/superalgebra ladder coefficients on the rescaled
                functions phi (squared-value checks in exact mode, direct
                tolerance checks in float mode),
* pseudo     -- pseudo-Hermiticity swap(H) == adjoint(H),
* integrals  -- biorthogonality, Jordan blocks of the pairing, truncated
                resolution of identity, and the quadrature cross-check.

Exact mode is authoritative: a pass there means residual identically zero.
Float mode compares residuals against a tolerance.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from math import factorial, sqrt
from typing import Callable, Iterable

from .gaussint import (
    OracleUnavailableError,
    expand_in_basis,
    gram_block,
    h_block,
    inner_product,
    moment,
    quadrature_oracle,
)
from .model import (
    EXPLICIT_NAMES,
    Params,
    ReducedFn,
    apply,
    build_phi,
    build_psi,
    energy,
    explicit_form,
    make_operator,
    phi_scale_sq,
)
from .weyl import (
    EXACT,
    FLOAT,
    Coeff,
    DiffOp,
    Poly2,
    adjoint,
    anticommutator,
    commutator,
    swap_vars,
    zero,
)

DEFAULT_TOL = 1e-10
SUITES = ("structure", "actions", "irrep", "pseudo", "integrals")


@dataclass(frozen=True)
class Report:
    """Outcome of one verified relation (or one aggregated family)."""

    relation_id: str
    anchor: str
    mode: str
    passed: bool
    residual: str
    ms: float


@dataclass(frozen=True)
class RelationSpec:
    """One catalog line: a named relation lhs == rhs in the prefix grammar."""

    rel_id: str
    kind: str
    lhs: str
    rhs: str


# ---------------------------------------------------------------------------
# relation catalog: parsing and evaluation
# ---------------------------------------------------------------------------

_SCALAR_TOKEN = re.compile(r"^[+-]?\d+(?:/\d+)?(?:\*(a|b|ab))?$")


def parse_relations(text: str) -> list[RelationSpec]:
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise ValueError(f"catalog line {lineno}: expected 4 '|'-separated fields")
        specs.append(RelationSpec(*fields))
    ids = [s.rel_id for s in specs]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate relation ids in catalog")
    return specs


def load_relations(path: str | None = None) -> list[RelationSpec]:
    """Load the shipped v1 catalog, or any catalog file in the same format."""
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return parse_relations(fh.read())
    text = resources.files("jordan_osc").joinpath("data/relations_v1.txt").read_text()
    return parse_relations(text)


def load_negative_controls() -> list[RelationSpec]:
    text = resources.files("jordan_osc").joinpath("data/negative_controls_v1.txt").read_text()
    return parse_relations(text)


def _scalar_literal(token: str, params: Params) -> Coeff:
    match = _SCALAR_TOKEN.match(token)
    if match is None:
        raise ValueError(f"bad scalar literal {token!r}")
    rational = Fraction(token.split("*")[0])
    value = params.s(rational)
    unit = match.group(1)
    if unit in ("a", "ab"):
        value = value * params.a_scalar
    if unit in ("b", "ab"):
        value = value * params.b_scalar
    return value


def _eval_prefix(tokens: list[str], pos: int, params: Params) -> tuple[DiffOp, int]:
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    tok = tokens[pos]
    if tok in ("add", "sub", "mul", "comm", "acomm"):
        left, pos = _eval_prefix(tokens, pos + 1, params)
        right, pos = _eval_prefix(tokens, pos, params)
        if tok == "add":
            return left + right, pos
        if tok == "sub":
            return left - right, pos
        if tok == "mul":
            return left * right, pos
        if tok == "comm":
            return commutator(left, right), pos
        return anticommutator(left, right), pos
    if tok == "neg":
        arg, pos = _eval_prefix(tokens, pos + 1, params)
        return -arg, pos
    if tok == "smul":
        if pos + 1 >= len(tokens):
            raise ValueError("smul needs a scalar literal")
        coeff = _scalar_literal(tokens[pos + 1], params)
        arg, pos = _eval_prefix(tokens, pos + 2, params)
        return arg.scale(coeff), pos
    if _SCALAR_TOKEN.match(tok):
        return DiffOp.constant(_scalar_literal(tok, params)), pos + 1
    return make_operator(params, tok), pos + 1


def eval_expression(expr: str, params: Params) -> DiffOp:
    tokens = expr.split()
    op, pos = _eval_prefix(tokens, 0, params)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in expression {expr!r}")
    return op


def _verdict(params: Params, residual, tol: float) -> bool:
    if params.mode == EXACT:
        return residual == 0
    return float(residual) <= tol


def check_relation(params: Params, spec: RelationSpec, tol: float = DEFAULT_TOL) -> Report:
    start = time.perf_counter()
    diff = eval_expression(spec.lhs, params) - eval_expression(spec.rhs, params)
    residual = diff.max_magnitude()
    ms = (time.perf_counter() - start) * 1e3
    return Report(
        relation_id=spec.rel_id,
        anchor=f"{spec.lhs} == {spec.rhs}",
        mode=params.mode,
        passed=_verdict(params, residual, tol),
        residual=str(residual),
        ms=ms,
    )


def check_structure(
    params: Params,
    relations: Iterable[RelationSpec] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[Report]:
    """Check every catalog relation at the given parameter point."""
    if relations is None:
        relations = load_relations()
    return [check_relation(params, spec, tol) for spec in relations]


# ---------------------------------------------------------------------------
# action suite
# ---------------------------------------------------------------------------

# Each rule maps (params, n, m) to the exact expansion of op.psi_{n,m} in the
# basis, as (n', m', coefficient) triples; zero coefficients may be emitted
# and are dropped. Entries with nonzero coefficient must be valid indices.
ActionTerms = Callable[[Params, int, int], list]


@dataclass(frozen=True)
class ActionRule:
    rule_id: str
    op_name: str
    anchor: str
    terms: ActionTerms


def _half(params: Params) -> Coeff:
    return params.s(Fraction(1, 2))


ACTION_RULES: tuple[ActionRule, ...] = (
    ActionRule(
        "action.B-", "B-", "B- psi = 4(n-m) sqrt(ab) psi[n-1,m] + (1/2) sqrt(b/a) psi[n-1,m-1]",
        lambda P, n, m: [(n - 1, 0, P.s(4 * n) * P.sqrt_ab)] if m == 0 else [
            (n - 1, m, P.s(4 * (n - m)) * P.sqrt_ab),
            (n - 1, m - 1, _half(P) * P.sqrt_b_over_a),
        ],
    ),
    ActionRule(
        "action.B+", "B+", "B+ psi = -4(m+1) sqrt(ab) psi[n+1,m+1] - (1/2) sqrt(b/a) psi[n+1,m]",
        lambda P, n, m: [
            (n + 1, m + 1, P.s(-4 * (m + 1)) * P.sqrt_ab),
            (n + 1, m, -_half(P) * P.sqrt_b_over_a),
        ],
    ),
    ActionRule(
        "action.A-", "A-", "A- psi = (1/2) sqrt(a/b) psi[n-1,m-1] (0 at m=0)",
        lambda P, n, m: [] if m == 0 else [(n - 1, m - 1, _half(P) * P.sqrt_a_over_b)],
    ),
    ActionRule(
        "action.A+", "A+", "A+ psi = -(1/2) sqrt(a/b) psi[n+1,m]",
        lambda P, n, m: [(n + 1, m, -_half(P) * P.sqrt_a_over_b)],
    ),
    ActionRule(
        "action.jordan-H", "H", "(H - 4a(n+1)) psi[n,m] = psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [(n, m, energy(P, n))] + ([] if m == 0 else [(n, m - 1, P.s(1))]),
    ),
    ActionRule(
        "action.R", "R", "R psi = -(a/4b) psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [] if m == 0 else [
            (n, m - 1, -P.a_scalar / (P.s(4) * P.b_scalar)),
        ],
    ),
    ActionRule(
        "action.S", "S",
        "S psi = -(b/4a) psi[n,m-1] - 2bn psi[n,m] - 16ab(n-m)(m+1) psi[n,m+1]",
        lambda P, n, m: [
            (n, 0, P.s(-2 * n) * P.b_scalar),
            (n, 1, P.s(-16 * n) * P.a_scalar * P.b_scalar),
        ] if m == 0 else [
            (n, m - 1, -P.b_scalar / (P.s(4) * P.a_scalar)),
            (n, m, P.s(-2 * n) * P.b_scalar),
            (n, m + 1, P.s(-16 * (n - m) * (m + 1)) * P.a_scalar * P.b_scalar),
        ],
    ),
    ActionRule(
        "action.T", "T", "T psi = -2a(n-2m) psi[n,m]",
        lambda P, n, m: [(n, m, P.s(-2 * (n - 2 * m)) * P.a_scalar)],
    ),
    ActionRule(
        "action.U", "U", "U psi = -2an psi[n,m] - (1/2) psi[n,m-1] (last term absent at m=0)",
        lambda P, n, m: [(n, m, P.s(-2 * n) * P.a_scalar)] + (
            [] if m == 0 else [(n, m - 1, -_half(P))]
        ),
    ),
    ActionRule(
        "action.J0", "J0", "J0 psi = (m - n/2) psi[n,m]",
        lambda P, n, m: [(n, m, P.s(Fraction(2 * m - n, 2)))],
    ),
    ActionRule(
        "action.J+", "J+", "J+ psi = (n-m)(m+1) psi[n,m+1]",
        lambda P, n, m: [(n, m + 1, P.s((n - m) * (m + 1)))] if m < n else [],
    ),
    ActionRule(
        "action.J-", "J-", "J- psi = psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [] if m == 0 else [(n, m - 1, P.s(1))],
    ),
    ActionRule(
        "action.K", "K", "K psi = (n+1) psi[n,m]",
        lambda P, n, m: [(n, m, P.s(n + 1))],
    ),
    ActionRule(
        "action.a1+", "a1+", "a1+ psi = (m+1) psi[n+1,m+1]",
        lambda P, n, m: [(n + 1, m + 1, P.s(m + 1))],
    ),
    ActionRule(
        "action.a1-", "a1-", "a1- psi = psi[n-1,m-1] (0 at m=0)",
        lambda P, n, m: [] if m == 0 else [(n - 1, m - 1, P.s(1))],
    ),
    ActionRule(
        "action.a2+", "a2+", "a2+ psi = psi[n+1,m]",
        lambda P, n, m: [(n + 1, m, P.s(1))],
    ),
    ActionRule(
        "action.a2-", "a2-", "a2- psi = (n-m) psi[n-1,m]",
        lambda P, n, m: [(n - 1, m, P.s(n - m))] if m < n else [],
    ),
    ActionRule(
        "action.D+11", "D+11", "D+11 psi = (m+1)(m+2) psi[n+2,m+2]",
        lambda P, n, m: [(n + 2, m + 2, P.s((m + 1) * (m + 2)))],
    ),
    ActionRule(
        "action.D+12", "D+12", "D+12 psi = (m+1) psi[n+2,m+1]",
        lambda P, n, m: [(n + 2, m + 1, P.s(m + 1))],
    ),
    ActionRule(
        "action.D+22", "D+22", "D+22 psi = psi[n+2,m]",
        lambda P, n, m: [(n + 2, m, P.s(1))],
    ),
    ActionRule(
        "action.D-11", "D-11", "D-11 psi = psi[n-2,m-2] (0 at m<2)",
        lambda P, n, m: [] if m < 2 else [(n - 2, m - 2, P.s(1))],
    ),
    ActionRule(
        "action.D-12", "D-12", "D-12 psi = (n-m) psi[n-2,m-1] (0 at m=0)",
        lambda P, n, m: [] if m == 0 or m == n else [(n - 2, m - 1, P.s(n - m))],
    ),
    ActionRule(
        "action.D-22", "D-22", "D-22 psi = (n-m)(n-m-1) psi[n-2,m]",
        lambda P, n, m: [] if m >= n - 1 else [(n - 2, m, P.s((n - m) * (n - m - 1)))],
    ),
)


def _predicted_combination(params: Params, terms: list) -> ReducedFn:
    out = ReducedFn.zero(params.mode)
    for n2, m2, coeff in terms:
        if not coeff:
            continue
        out = out + build_psi(params, n2, m2).scale(coeff)
    return out


def _residual_of(diff: ReducedFn):
    return diff.poly.max_magnitude()


def check_actions(params: Params, n_max: int = 10, tol: float = DEFAULT_TOL) -> list[Report]:
    """Compare apply(op, psi_{n,m}) against the asserted expansion for every
    action formula and every 0 <= m <= n <= n_max; one report per formula."""
    reports = []
    for rule in ACTION_RULES:
        start = time.perf_counter()
        op = make_operator(params, rule.op_name)
        worst = Fraction(0) if params.mode == EXACT else 0.0
        worst_at = None
        for n in range(n_max + 1):
            for m in range(n + 1):
                got = apply(params, op, build_psi(params, n, m))
                want = _predicted_combination(params, rule.terms(params, n, m))
                residual = _residual_of(got - want)
                if residual > worst:
                    worst, worst_at = residual, (n, m)
        ms = (time.perf_counter() - start) * 1e3
        anchor = rule.anchor if worst_at is None else f"{rule.anchor} [worst at n,m={worst_at}]"
        reports.append(
            Report(rule.rule_id, anchor, params.mode, _verdict(params, worst, tol), str(worst), ms)
        )
    return reports


# ---------------------------------------------------------------------------
# irrep suite
# ---------------------------------------------------------------------------

# Ladder rules: op phi_{j,mu} = sqrt(coeff_sq(j,mu)) phi_{j',mu'}, with the
# (n,m) shift recording (j',mu') on the psi grid. Diagonal rules carry the
# eigenvalue itself (which may be negative, so no square root is involved).
CoeffSq = Callable[[Fraction, Fraction], Fraction]


@dataclass(frozen=True)
class LadderRule:
    rule_id: str
    op_name: str
    dn: int
    dm: int
    coeff_sq: CoeffSq
    anchor: str


@dataclass(frozen=True)
class DiagonalRule:
    rule_id: str
    op_name: str
    eigenvalue: Callable[[Fraction, Fraction], Fraction]
    anchor: str


DIAGONAL_RULES: tuple[DiagonalRule, ...] = (
    DiagonalRule("irrep.J0", "J0", lambda j, mu: mu, "J0 phi = mu phi"),
    DiagonalRule("irrep.K", "K", lambda j, mu: 2 * j + 1, "K phi = (2j+1) phi"),
)

LADDER_RULES: tuple[LadderRule, ...] = (
    LadderRule("irrep.J+", "J+", 0, 1, lambda j, mu: (j - mu) * (j + mu + 1),
               "J+ phi = sqrt((j-mu)(j+mu+1)) phi[mu+1]"),
    LadderRule("irrep.J-", "J-", 0, -1, lambda j, mu: (j + mu) * (j - mu + 1),
               "J- phi = sqrt((j+mu)(j-mu+1)) phi[mu-1]"),
    LadderRule("irrep.a1+", "a1+", 1, 1, lambda j, mu: j + mu + 1,
               "a1+ phi = sqrt(j+mu+1) phi[j+1/2,mu+1/2]"),
    LadderRule("irrep.a1-", "a1-", -1, -1, lambda j, mu: j + mu,
               "a1- phi = sqrt(j+mu) phi[j-1/2,mu-1/2]"),
    LadderRule("irrep.a2+", "a2+", 1, 0, lambda j, mu: j - mu + 1,
               "a2+ phi = sqrt(j-mu+1) phi[j+1/2,mu-1/2]"),
    LadderRule("irrep.a2-", "a2-", -1, 0, lambda j, mu: j - mu,
               "a2- phi = sqrt(j-mu) phi[j-1/2,mu+1/2]"),
    LadderRule("irrep.D+11", "D+11", 2, 2, lambda j, mu: (j + mu + 1) * (j + mu + 2),
               "D+11 phi = sqrt((j+mu+1)(j+mu+2)) phi[j+1,mu+1]"),
    LadderRule("irrep.D-11", "D-11", -2, -2, lambda j, mu: (j + mu) * (j + mu - 1),
               "D-11 phi = sqrt((j+mu)(j+mu-1)) phi[j-1,mu-1]"),
    LadderRule("irrep.D+12", "D+12", 2, 1, lambda j, mu: (j - mu + 1) * (j + mu + 1),
               "D+12 phi = sqrt((j-mu+1)(j+mu+1)) phi[j+1,mu]"),
    LadderRule("irrep.D-12", "D-12", -2, -1, lambda j, mu: (j - mu) * (j + mu),
               "D-12 phi = sqrt((j-mu)(j+mu)) phi[j-1,mu]"),
    LadderRule("irrep.D+22", "D+22", 2, 0, lambda j, mu: (j - mu + 1) * (j - mu + 2),
               "D+22 phi = sqrt((j-mu+1)(j-mu+2)) phi[j+1,mu-1]"),
    LadderRule("irrep.D-22", "D-22", -2, 0, lambda j, mu: (j - mu) * (j - mu - 1),
               "D-22 phi = sqrt((j-mu)(j-mu-1)) phi[j-1,mu+1]"),
)


def _jmu(n: int, m: int) -> tuple[Fraction, Fraction]:
    return Fraction(n, 2), Fraction(2 * m - n, 2)


def _extract_ratio(got: ReducedFn, target: ReducedFn) -> tuple[Coeff | None, object]:
    """Solve got == d * target; returns (d, residual of the fit) or (None, big)
    when got is not proportional to target."""
    mode = got.mode
    if got.is_zero():
        return zero(mode), Fraction(0) if mode == EXACT else 0.0
    if target.is_zero():
        return None, got.poly.max_magnitude()
    key = next(iter(sorted(target.poly.terms)))
    if key not in got.poly.terms:
        return None, got.poly.max_magnitude()
    d = got.poly.terms[key] / target.poly.terms[key]
    residual = (got - target.scale(d)).poly.max_magnitude()
    return d, residual


def _check_ladder_exact(params: Params, rule: LadderRule, n_max: int):
    worst = Fraction(0)
    for n in range(n_max + 1):
        for m in range(n + 1):
            j, mu = _jmu(n, m)
            c2 = Fraction(rule.coeff_sq(j, mu))
            n2, m2 = n + rule.dn, m + rule.dm
            got = apply(params, make_operator(params, rule.op_name), build_psi(params, n, m))
            if not (0 <= m2 <= n2):
                # outside the grid the formula coefficient must vanish
                worst = max(worst, abs(c2), got.poly.max_magnitude())
                continue
            d, fit_residual = _extract_ratio(got, build_psi(params, n2, m2))
            if d is None:
                worst = max(worst, Fraction(1), fit_residual)
                continue
            worst = max(worst, fit_residual)
            if d < 0:
                # the su(2)-type coefficients are nonnegative
                worst = max(worst, abs(d))
                continue
            ratio = phi_scale_sq(n, m) / phi_scale_sq(n2, m2)
            worst = max(worst, abs(d * d * ratio - c2))
    return worst


def _check_ladder_float(params: Params, rule: LadderRule, n_max: int):
    """Direct check on materialized phi functions, normalized residual."""
    fparams = params.to_float()
    worst = 0.0
    for n in range(n_max + 1):
        for m in range(n + 1):
            j, mu = _jmu(n, m)
            c2 = Fraction(rule.coeff_sq(j, mu))
            n2, m2 = n + rule.dn, m + rule.dm
            phi = build_phi(fparams, n, m).fn
            got = apply(fparams, make_operator(fparams, rule.op_name), phi)
            if not (0 <= m2 <= n2):
                worst = max(worst, abs(float(c2)), float(got.poly.max_magnitude()))
                continue
            want = build_phi(fparams, n2, m2).fn.scale(sqrt(float(c2)))
            scale = max(1.0, float(want.poly.max_magnitude()))
            worst = max(worst, float((got - want).poly.max_magnitude()) / scale)
    return worst


def check_irrep(params: Params, n_max: int = 10, tol: float = DEFAULT_TOL) -> list[Report]:
    """su(2)/superalgebra coefficients on phi: one exact squared-value report
    and one float direct report per rule, plus exact diagonal reports."""
    reports = []
    for diag in DIAGONAL_RULES:
        start = time.perf_counter()
        worst = Fraction(0) if params.mode == EXACT else 0.0
        for n in range(n_max + 1):
            for m in range(n + 1):
                j, mu = _jmu(n, m)
                got = apply(params, make_operator(params, diag.op_name), build_psi(params, n, m))
                want = build_psi(params, n, m).scale(params.s(Fraction(diag.eigenvalue(j, mu))))
                worst = max(worst, _residual_of(got - want))
        ms = (time.perf_counter() - start) * 1e3
        reports.append(
            Report(diag.rule_id, diag.anchor, params.mode, _verdict(params, worst, tol), str(worst), ms)
        )
    for rule in LADDER_RULES:
        if params.mode == EXACT:
            start = time.perf_counter()
            worst = _check_ladder_exact(params, rule, n_max)
            ms = (time.perf_counter() - start) * 1e3
            reports.append(
                Report(f"{rule.rule_id}.sq", f"{rule.anchor} (squared values)", EXACT,
                       worst == 0, str(worst), ms)
            )
        start = time.perf_counter()
        worst = _check_ladder_float(params, rule, n_max)
        ms = (time.perf_counter() - start) * 1e3
        reports.append(
            Report(f"{rule.rule_id}.float", f"{rule.anchor} (direct, normalized residual)", FLOAT,
                   worst <= tol, repr(worst), ms)
        )
    return reports


# ---------------------------------------------------------------------------
# pseudo-Hermiticity and explicit-form suites
# ---------------------------------------------------------------------------


def check_pseudo_hermiticity(params: Params, tol: float = DEFAULT_TOL) -> Report:
    """swap_vars(H) == adjoint(H): H is Hermitian up to the z <-> zbar swap."""
    start = time.perf_counter()
    ham = make_operator(params, "H")
    residual = (swap_vars(ham) - adjoint(ham)).max_magnitude()
    ms = (time.perf_counter() - start) * 1e3
    return Report("pseudo.H", "swap_vars(H) == adjoint(H)", params.mode,
                  _verdict(params, residual, tol), str(residual), ms)


def check_explicit_forms(params: Params, tol: float = DEFAULT_TOL) -> list[Report]:
    """Catalog operators against their independently transcribed z/zbar forms."""
    reports = []
    for name in EXPLICIT_NAMES:
        start = time.perf_counter()
        residual = (make_operator(params, name) - explicit_form(params, name)).max_magnitude()
        ms = (time.perf_counter() - start) * 1e3
        reports.append(
            Report(f"explicit.{name}", f"make_operator({name}) == explicit_form({name})",
                   params.mode, _verdict(params, residual, tol), str(residual), ms)
        )
    return reports


# ---------------------------------------------------------------------------
# integral suite
# ---------------------------------------------------------------------------


def _fixed_test_poly(params: Params, n_max: int, salt: int) -> ReducedFn:
    # deterministic full-degree polynomial with varied rational coefficients
    terms = {}
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            num = ((i + 2) * (j + 3) + salt * (7 * i + j)) % 11 - 5
            den = (i + j + salt) % 4 + 1
            if num:
                terms[(i, j)] = params.s(Fraction(num, den))
    return ReducedFn(Poly2(params.mode, terms))


def check_integrals(
    params: Params,
    n_max: int = 8,
    tol: float = DEFAULT_TOL,
    oracle_tol: float = 1e-8,
) -> list[Report]:
    """Biorthogonality (gram blocks are anti-diagonal identities), Jordan form
    of the pairing with H, ground norm, truncated resolution of identity, and
    the exact-vs-quadrature cross-check (skipped with a note when a <= b)."""
    reports = []
    mode = params.mode

    start = time.perf_counter()
    worst = Fraction(0) if mode == EXACT else 0.0
    for n in range(n_max + 1):
        block = gram_block(params, n)
        for m in range(n + 1):
            for mp in range(n + 1):
                want = params.s(1 if m + mp == n else 0)
                worst = max(worst, abs(block[m][mp] - want))
    ms = (time.perf_counter() - start) * 1e3
    reports.append(Report("integrals.gram", f"gram blocks equal anti-diagonal identity, n <= {n_max}",
                          mode, _verdict(params, worst, tol), str(worst), ms))

    start = time.perf_counter()
    worst = Fraction(0) if mode == EXACT else 0.0
    for n in range(n_max + 1):
        block = h_block(params, n)
        e_n = energy(params, n)
        for k in range(n + 1):
            for m in range(n + 1):
                want = e_n if k == m else params.s(1 if m == k + 1 else 0)
                worst = max(worst, abs(block[k][m] - want))
    ms = (time.perf_counter() - start) * 1e3
    reports.append(Report("integrals.jordan", f"<<psi|H psi>> blocks equal E_n I + superdiagonal, n <= {n_max}",
                          mode, _verdict(params, worst, tol), str(worst), ms))

    start = time.perf_counter()
    ground = build_psi(params, 0, 0)
    worst = abs(inner_product(params, ground, ground) - params.s(1))
    for n in range(1, n_max + 1):
        head = build_psi(params, n, 0)
        worst = max(worst, abs(inner_product(params, head, head)))
    ms = (time.perf_counter() - start) * 1e3
    reports.append(Report("integrals.norms", f"<<psi00|psi00>> = 1 and <<psi_n0|psi_n0>> = 0 for 1 <= n <= {n_max}",
                          mode, _verdict(params, worst, tol), str(worst), ms))

    start = time.perf_counter()
    span = min(n_max, 5)
    worst = Fraction(0) if mode == EXACT else 0.0
    for salt in (1, 2):
        f = _fixed_test_poly(params, span, salt)
        worst = max(worst, _residual_of(expand_in_basis(params, f, span) - f))
    ms = (time.perf_counter() - start) * 1e3
    reports.append(Report("integrals.resolution", f"truncated resolution of identity on degree <= {span} functions",
                          mode, _verdict(params, worst, tol), str(worst), ms))

    start = time.perf_counter()
    fparams = params.to_float()
    if not float(params.a) > float(params.b):
        ms = (time.perf_counter() - start) * 1e3
        reports.append(Report("integrals.oracle", "quadrature cross-check skipped: needs a > b",
                              mode, True, "0", ms))
        return reports
    worst_f = 0.0
    pairs = [(0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 3, 1), (2, 1, 2, 1), (3, 2, 3, 1)]
    for n1, m1, n2, m2 in pairs:
        if n1 > n_max or n2 > n_max:
            continue
        exact_val = inner_product(params, build_psi(params, n1, m1), build_psi(params, n2, m2))
        est = quadrature_oracle(fparams, build_psi(fparams, n1, m1), build_psi(fparams, n2, m2))
        scale = max(1.0, abs(complex(exact_val)))
        worst_f = max(worst_f, abs(est - complex(exact_val)) / scale)
    ms = (time.perf_counter() - start) * 1e3
    reports.append(Report("integrals.oracle", "moment recursion vs Gauss-Hermite on sampled pairs",
                          mode, worst_f <= oracle_tol, repr(worst_f), ms))
    return reports


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_suites(
    params: Params,
    suites: Iterable[str],
    n_max: int = 10,
    tol: float = DEFAULT_TOL,
    catalog_path: str | None = None,
) -> list[Report]:
    reports: list[Report] = []
    for suite in suites:
        if suite == "structure":
            reports += check_structure(params, load_relations(catalog_path), tol)
            reports += check_explicit_forms(params, tol)
        elif suite == "actions":
            reports += check_actions(params, n_max, tol)
        elif suite == "irrep":
            reports += check_irrep(params, n_max, tol)
        elif suite == "pseudo":
            reports.append(check_pseudo_hermiticity(params, tol))
        elif suite == "integrals":
            reports += check_integrals(params, min(n_max, 8), tol)
        else:
            raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return reports
