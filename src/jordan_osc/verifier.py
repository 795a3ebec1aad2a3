"""Machine verification suites.

Every identity the model asserts is checked here, grouped into five suites:

* structure  -- (anti)commutator and operator identities, driven by the
                shipped relation catalog (data, not code),
* actions    -- operator actions on the basis functions psi_{n,m},
* irrep      -- su(2)/superalgebra ladder coefficients on the rescaled
                functions phi (squared-value checks in exact mode, direct
                tolerance checks, read in floats, in both modes),
* pseudo     -- pseudo-Hermiticity swap(H) == adjoint(H),
* integrals  -- biorthogonality, Jordan blocks of the pairing, truncated
                resolution of identity, and the quadrature cross-check.

The actions and irrep suites are two readings of the same images op.psi_{n,m},
so one image pass serves both. It runs in the chain variables (w, zbar),
w = a z + b zbar (see model): every psi, image and phi it reads is a chain
form, so a float residual is the largest coefficient over (w, zbar) monomials. It runs
basis-outer: each psi_{n,m} gets one derivative table that every operator
applied to it reads (``apply`` reads each catalog conjugation from the point's
store), and each image is built once, handed to every check that reads it, and
dropped, as is the table. A residual is read off the image and its targets in
one pass over their terms (``weyl.residual_magnitude``): no difference
polynomial is built. The exact squared-value report irrep.<rule>.sq derives
from the same operator's action rule: op psi_{n,m} = c psi_{n',m'} with the
ladder target, c >= 0, and c^2 m!(n'-m')!/((n-m)! m'!) = coeff_sq, decided in
integers, so its residual also carries the image's residual against the action
rule. irrep.J0 and irrep.K likewise check the J0 and K images and compare the
action coefficient with the eigenvalue. The direct reports irrep.<rule>.float
read the same image in both modes, in floats and rescaled to op phi, against
the run's own psi_{n',m'} times sqrt(coeff_sq) and its su(2) factor
sqrt(m'!/(n'-m')!) (``su2_factor``), the only irrational number of an exact
run. A float run evaluates each claim at j = n/2, mu = m - n/2 in floats,
which hold those values exactly. The quadrature oracle too reads the run's own
basis, so an exact run builds nothing in floats; a reading that leaves the
float range skips its check, unless a residual already failed it.

The structure suite proves each catalog relation once per process, at
p = q = 1. Every catalog operator and explicit form is a tree of the prefix
grammar (see model) over the generators z, zbar, dz, dzbar, which are the
same at every point, and scalar literals c*f^k*... in a, b, ab, p, q. The
Weyl algebra automorphism sigma_P (z -> lambda z, zbar -> mu zbar,
dz -> dz/lambda, dzbar -> dzbar/mu, lambda = q/a, mu = 1/q) gives each
generator and factor a weight, and so each tree one (model._weight), derived
through the definitions of the operators it names: sigma_P(tree at P) =
p^alpha q^beta (tree at p = q = 1) when the two sides of every add and sub
have one weight. Such a relation holds at P if and only if it holds at
p = q = 1, so at an exact point a homogeneous relation that holds there
reports pass with residual 0, with nothing built at P; the explicit forms
are checked the same way. Everything else is evaluated directly, so a
failing report keeps its residual: an inhomogeneous relation, one that fails
at p = q = 1, and every float relation. pseudo.H is computed at every point.

Every report is built by one accumulator, ``_Check``: it keeps the check's
worst residual and where it sits, times the work done inside ``with check:``,
and gives the verdict. Exact mode is authoritative: a pass there means
residual identically zero. Float mode compares residuals against a tolerance,
and a NaN residual counts as the worst, so a check that met one fails. A check
that cannot run at the given point is reported as skipped, never as passed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from importlib import resources
from math import factorial, isfinite, sqrt
from typing import Callable, Iterable

from .gaussint import (
    OracleUnavailableError,
    expand_in_basis,
    gram_block,
    h_block,
    inner_product,
    quadrature_oracle,
)
from .model import (
    EXPLICIT_FORMS,
    EXPLICIT_NAMES,
    Params,
    _weight,
    apply,
    build_psi,
    chain_psi,
    energy,
    eval_expression,
    make_operator,
    parse_expression,
    su2_factor,
)
from .weyl import (
    EXACT,
    FLOAT,
    Poly2,
    adjoint,
    max_or_nan,
    residual_magnitude,
    swap_vars,
    zero,
)

DEFAULT_TOL = 1e-10
DEFAULT_NMAX = 10
SUITES = ("structure", "actions", "irrep", "pseudo", "integrals")
#: the kinds a catalog relation may declare
RELATION_KINDS = ("commutator", "anticommutator", "identity")
#: the id namespaces of the built-in checks, which no catalog relation may use
BUILTIN_ID_PREFIXES = ("explicit.", "pseudo.", "action.", "irrep.", "integrals.")
#: the integrals suite stops at level min(n_max, INTEGRALS_NMAX), and its
#: resolution check at degree min(n_max, RESOLUTION_DEGREE)
INTEGRALS_NMAX = 8
RESOLUTION_DEGREE = 5
#: the relative tolerance of integrals.oracle, the quadrature cross-check
ORACLE_TOL = 1e-8
#: the anchor of a float cross-check (irrep.*.float, integrals.oracle) skipped
#: because the point leaves the float range: a value read in floats overflows,
#: or (the oracle's a) underflows to zero; the exact checks still run
FLOAT_OVERFLOW = "float cross-check skipped: the point leaves the float range"


@dataclass(frozen=True)
class Report:
    """Outcome of one verified relation (or one aggregated family).

    A skipped check did not run: it is neither passed nor failed.
    """

    relation_id: str
    anchor: str
    mode: str
    passed: bool
    residual: str
    ms: float
    skipped: bool = False

    def __post_init__(self) -> None:
        if self.passed and self.skipped:
            raise ValueError("a skipped check cannot pass")

    @property
    def failed(self) -> bool:
        return not (self.passed or self.skipped)

    @property
    def status(self) -> str:
        """``pass``, ``fail`` or ``skip``."""
        if self.skipped:
            return "skip"
        return "pass" if self.passed else "fail"


class _Check:
    """The one builder of a Report: the check's id, anchor and mode, its worst
    residual and the (n, m) where that sits, the time spent inside its
    ``with check:`` blocks, and the verdict (exact: residual == 0, float:
    residual <= tol). A NaN residual beats any number and is kept, so a check
    that met one fails; a zero never replaces the worst. A found failure beats
    a skip: a skipped check whose residuals so far fail reports the failure."""

    def __init__(self, relation_id: str, anchor: str, mode: str, tol: float) -> None:
        self.relation_id, self.anchor, self.mode, self.tol = relation_id, anchor, mode, tol
        self.worst = zero(mode)
        self.at, self.seconds, self.skipped = None, 0.0, None  # skipped: why, if the check was

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.seconds += time.perf_counter() - self._start

    def add(self, residual, at: tuple | None = None) -> None:
        """Keep ``residual``, found at basis index ``at``, if it is the worst so far."""
        if not residual:
            return
        if residual > self.worst or (residual != residual and self.worst == self.worst):
            self.worst, self.at = residual, at

    def skip(self, why: str) -> None:
        """The check cannot run (any further) here: report it as skipped, with
        ``why`` as its anchor, unless a residual already failed it."""
        self.skipped = why

    def report(self) -> Report:
        passed = self.worst == 0 if self.mode == EXACT else self.worst <= self.tol
        if self.skipped and passed:
            return Report(self.relation_id, self.skipped, self.mode, False, "n/a", self.seconds * 1e3, True)
        anchor = self.anchor if self.at is None else f"{self.anchor} [worst at n,m={self.at}]"
        anchor += f"; {self.skipped}" if self.skipped else ""
        return Report(self.relation_id, anchor, self.mode, passed, str(self.worst), self.seconds * 1e3)


@dataclass(frozen=True)
class RelationSpec:
    """One catalog line: a named relation lhs == rhs in the prefix grammar."""

    rel_id: str
    kind: str
    lhs: str
    rhs: str


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------

def parse_relations(text: str) -> list[RelationSpec]:
    """The relations of a catalog, each side checked against the prefix grammar."""
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise ValueError(f"catalog line {lineno}: expected 4 '|'-separated fields")
        if fields[1] not in RELATION_KINDS:
            raise ValueError(f"catalog line {lineno}: unknown kind {fields[1]!r}; "
                             f"choose from {', '.join(RELATION_KINDS)}")
        try:
            parse_expression(fields[2]), parse_expression(fields[3])
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from None
        specs.append(RelationSpec(*fields))
    ids = [s.rel_id for s in specs]
    duplicates = [rel_id for rel_id, count in Counter(ids).items() if count > 1]
    if duplicates:
        raise ValueError(f"duplicate relation ids in catalog: {', '.join(duplicates)}")
    builtin = [rel_id for rel_id in ids if rel_id.startswith(BUILTIN_ID_PREFIXES)]
    if builtin:
        raise ValueError(f"catalog ids {', '.join(builtin)} lie in a built-in namespace {BUILTIN_ID_PREFIXES}")
    return specs


@cache
def _shipped(name: str) -> tuple[RelationSpec, ...]:
    # a shipped catalog is read and parsed once per process
    return tuple(parse_relations(resources.files("jordan_osc").joinpath(f"data/{name}").read_text()))


def load_relations(path: str | None = None) -> list[RelationSpec]:
    """Load the shipped v1 catalog, or any catalog file in the same format
    (read anew on every call); each call returns a new list."""
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return parse_relations(fh.read())
    return list(_shipped("relations_v1.txt"))


def load_negative_controls() -> list[RelationSpec]:
    return list(_shipped("negative_controls_v1.txt"))


# ---------------------------------------------------------------------------
# the unit point: each relation proven once per process
# ---------------------------------------------------------------------------

#: where each homogeneous relation is proven for every exact point
_UNIT = Params.exact(1, 1)


@lru_cache(maxsize=1024)
def _proven(lhs: str, rhs: str) -> bool:
    """Whether lhs == rhs is homogeneous (the two sides of every add and sub,
    in the definitions of the operators it names too, of one weight) and
    holds at _UNIT, so at every exact point. Text only: kept and shared,
    like parse_expression."""
    if _weight(("sub", parse_expression(lhs), parse_expression(rhs))) is None:
        return False
    return (eval_expression(lhs, _UNIT) - eval_expression(rhs, _UNIT)).is_zero()


def _check_equal(check: _Check, params: Params, lhs: str, rhs: str) -> None:
    """lhs == rhs at params into ``check``: nothing to add if it is proven and
    the point exact, else the residual of direct evaluation."""
    with check:
        if params.mode != EXACT or not _proven(lhs, rhs):
            check.add((eval_expression(lhs, params) - eval_expression(rhs, params)).max_magnitude())


def check_relation(params: Params, spec: RelationSpec, tol: float = DEFAULT_TOL) -> Report:
    """lhs == rhs at params: in exact mode a pass with residual 0 if it is
    proven at _UNIT, else evaluated directly."""
    check = _Check(spec.rel_id, f"{spec.lhs} == {spec.rhs}", params.mode, tol)
    _check_equal(check, params, spec.lhs, spec.rhs)
    return check.report()


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
# basis, as (n', m', coefficient) triples, one formula for every 0 <= m <= n:
# zero coefficients are dropped, and a target outside the grid (m' < 0 or
# m' > n') reads as zero, as no basis function sits there.
ActionTerms = Callable[[Params, int, int], list]


@dataclass(frozen=True)
class ActionRule:
    rule_id: str
    op_name: str
    anchor: str
    terms: ActionTerms


ACTION_RULES: tuple[ActionRule, ...] = (
    ActionRule(
        "action.B-", "B-", "B- psi = 4(n-m) sqrt(ab) psi[n-1,m] + (1/2) sqrt(b/a) psi[n-1,m-1]",
        lambda P, n, m: [(n - 1, m, 4 * (n - m) * P.sqrt_ab), (n - 1, m - 1, P.sqrt_b_over_a / 2)],
    ),
    ActionRule(
        "action.B+", "B+", "B+ psi = -4(m+1) sqrt(ab) psi[n+1,m+1] - (1/2) sqrt(b/a) psi[n+1,m]",
        lambda P, n, m: [
            (n + 1, m + 1, -4 * (m + 1) * P.sqrt_ab),
            (n + 1, m, -P.sqrt_b_over_a / 2),
        ],
    ),
    ActionRule(
        "action.A-", "A-", "A- psi = (1/2) sqrt(a/b) psi[n-1,m-1] (0 at m=0)",
        lambda P, n, m: [(n - 1, m - 1, P.sqrt_a_over_b / 2)],
    ),
    ActionRule(
        "action.A+", "A+", "A+ psi = -(1/2) sqrt(a/b) psi[n+1,m]",
        lambda P, n, m: [(n + 1, m, -P.sqrt_a_over_b / 2)],
    ),
    ActionRule(
        "action.jordan-H", "H", "(H - 4a(n+1)) psi[n,m] = psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [(n, m, energy(P, n)), (n, m - 1, P.s(1))],
    ),
    ActionRule(
        "action.R", "R", "R psi = -(a/4b) psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [(n, m - 1, -P.a / (4 * P.b))],
    ),
    ActionRule(
        "action.S", "S",
        "S psi = -(b/4a) psi[n,m-1] - 2bn psi[n,m] - 16ab(n-m)(m+1) psi[n,m+1]",
        lambda P, n, m: [
            (n, m - 1, -P.b / (4 * P.a)),
            (n, m, -2 * n * P.b),
            (n, m + 1, -16 * (n - m) * (m + 1) * P.a * P.b),
        ],
    ),
    ActionRule(
        "action.T", "T", "T psi = -2a(n-2m) psi[n,m]",
        lambda P, n, m: [(n, m, -2 * (n - 2 * m) * P.a)],
    ),
    ActionRule(
        "action.U", "U", "U psi = -2an psi[n,m] - (1/2) psi[n,m-1] (last term absent at m=0)",
        lambda P, n, m: [(n, m, -2 * n * P.a), (n, m - 1, P.s(Fraction(-1, 2)))],
    ),
    ActionRule(
        "action.J0", "J0", "J0 psi = (m - n/2) psi[n,m]",
        lambda P, n, m: [(n, m, P.s(Fraction(2 * m - n, 2)))],
    ),
    ActionRule(
        "action.J+", "J+", "J+ psi = (n-m)(m+1) psi[n,m+1]",
        lambda P, n, m: [(n, m + 1, P.s((n - m) * (m + 1)))],
    ),
    ActionRule(
        "action.J-", "J-", "J- psi = psi[n,m-1] (0 at m=0)",
        lambda P, n, m: [(n, m - 1, P.s(1))],
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
        lambda P, n, m: [(n - 1, m - 1, P.s(1))],
    ),
    ActionRule(
        "action.a2+", "a2+", "a2+ psi = psi[n+1,m]",
        lambda P, n, m: [(n + 1, m, P.s(1))],
    ),
    ActionRule(
        "action.a2-", "a2-", "a2- psi = (n-m) psi[n-1,m]",
        lambda P, n, m: [(n - 1, m, P.s(n - m))],
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
        lambda P, n, m: [(n - 2, m - 2, P.s(1))],
    ),
    ActionRule(
        "action.D-12", "D-12", "D-12 psi = (n-m) psi[n-2,m-1] (0 at m=0)",
        lambda P, n, m: [(n - 2, m - 1, P.s(n - m))],
    ),
    ActionRule(
        "action.D-22", "D-22", "D-22 psi = (n-m)(n-m-1) psi[n-2,m]",
        lambda P, n, m: [(n - 2, m, P.s((n - m) * (n - m - 1)))],
    ),
)


# ---------------------------------------------------------------------------
# irrep rules
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


# ---------------------------------------------------------------------------
# the image pass shared by the action and irrep suites
# ---------------------------------------------------------------------------


def _split_terms(terms: list, n2: int, m2: int):
    """An action expansion's coefficient at psi[n2,m2], and the largest
    magnitude it puts anywhere else (nonzero when the action and irrep claims
    name different targets)."""
    coeff = stray = 0
    for t_n, t_m, c in terms:
        if t_n == n2 and t_m == m2:
            coeff += c
        else:
            stray = max_or_nan(stray, abs(c))
    return coeff, stray


# Each irrep residual reads one image op.psi_{n,m}: its arguments are the
# parameters, the irrep rule, n, m, the rule's claimed value there (the
# eigenvalue or coeff_sq at j = n/2, mu = m - n/2, computed once for all
# reports of the rule), the action rule's expansion terms, the image, and the
# image's residual against those terms.


def _eigenvalue_residual(params, rule, n, m, eigenvalue, terms, image, image_residual):
    """op psi_{n,m} = c psi_{n,m} holds (the image residual) and c equals the
    irrep eigenvalue."""
    coeff, stray = _split_terms(terms, n, m)
    return max_or_nan(image_residual, stray, abs(coeff - eigenvalue))


def _squared_ladder_residual(params, rule, n, m, c2, terms, image, image_residual):
    """Exact mode: op psi_{n,m} = c psi_{n',m'} holds (the image residual), the
    action target is the ladder target, c >= 0, and, as phi is psi scaled by
    sqrt(m!/(n-m)!), c^2 m!(n'-m')!/((n-m)! m'!) equals c2 = coeff_sq;
    outside the grid coeff_sq must vanish."""
    n2, m2 = n + rule.dn, m + rule.dm
    coeff, stray = _split_terms(terms, n2, m2)
    if not (0 <= m2 <= n2):
        return max_or_nan(image_residual, stray, abs(c2))
    if coeff < 0:
        # the su(2)-type coefficients are nonnegative
        return max_or_nan(image_residual, stray, abs(coeff))
    # c^2 ratio == c2 with ratio = m!(n'-m')!/((n-m)! m'!), decided in integers;
    # only a failure, or a coefficient that is no Fraction (the int 0 when no
    # term meets the target), builds the Fraction residual
    if isinstance(coeff, Fraction) and (
            coeff.numerator ** 2 * factorial(m) * factorial(n2 - m2) * c2.denominator
            == c2.numerator * coeff.denominator ** 2 * factorial(n - m) * factorial(m2)):
        return max_or_nan(image_residual, stray)
    ratio = Fraction(factorial(m) * factorial(n2 - m2), factorial(n - m) * factorial(m2))
    return max_or_nan(image_residual, stray, abs(coeff * coeff * ratio - c2))


def _float_ladder_residual(params, rule, n, m, c2, terms, image, image_residual, *, basis, sizes):
    """Float, direct: op phi_{n,m} against sqrt(coeff_sq) phi_{n',m'},
    normalized by the size of the target. phi is psi times its su(2) factor,
    so op phi is the image times the factor of (n, m), and the target is the
    run's own psi_{n',m'} = basis(n', m') times c = sqrt(c2) su2_factor(n', m'),
    both read in floats. Rounding is monotone, so for c >= 0 the largest
    magnitude of c * psi is c times sizes(n', m'), that of psi, bit for bit.
    OverflowError where a scaled reading in an exact run overflows (inf, or
    NaN = inf - inf)."""
    scale = su2_factor(n, m)
    n2, m2 = n + rule.dn, m + rule.dm
    if not (0 <= m2 <= n2):
        return max_or_nan(abs(float(c2)), residual_magnitude(FLOAT, [], image, scale))
    psi, c = basis(n2, m2), sqrt(c2) * su2_factor(n2, m2)
    residual, size = residual_magnitude(FLOAT, [(c, psi)], image, scale), c * sizes(n2, m2)
    if params.mode == EXACT and not isfinite(residual + size):  # both >= 0 or NaN
        raise OverflowError("a float reading of the exact image or target leaves the float range")
    return residual / max_or_nan(1.0, size)


def _irrep_checks(mode: str, rule: DiagonalRule | LadderRule, tol: float, direct: Callable) -> tuple[Callable, list]:
    """The claimed value of one irrep rule as a function of (j, mu), and the
    (report, residual function) of each of its reports, in report order; the
    direct reports of every rule share the residual function ``direct``."""
    if isinstance(rule, DiagonalRule):
        return rule.eigenvalue, [(_Check(rule.rule_id, rule.anchor, mode, tol), _eigenvalue_residual)]
    squared = _Check(f"{rule.rule_id}.sq", f"{rule.anchor} (squared values)", EXACT, tol)
    direct_check = _Check(f"{rule.rule_id}.float", f"{rule.anchor} (direct, normalized residual)", FLOAT, tol)
    checks = [(squared, _squared_ladder_residual)] if mode == EXACT else []
    return rule.coeff_sq, checks + [(direct_check, direct)]


def _image_pass(
    params: Params, suites: Iterable[str], n_max: int, tol: float
) -> tuple[list[Report], list[Report]]:
    """Reports of the actions and irrep suites among ``suites``, each in report
    order.

    Basis-outer: each psi_{n,m} (0 <= m <= n <= n_max) gets one derivative
    table, read by every operator's image op.psi_{n,m} and dropped after the
    step. Each image is built once, compared with the action rule's expansion,
    handed to the irrep reports of the same operator, and dropped, so each
    report still meets its residuals in (n, m) order. The image's cost is
    timed into the action report, or into the first irrep report otherwise.
    """
    irrep_rules = DIAGONAL_RULES + LADDER_RULES if "irrep" in suites else ()
    by_op = {rule.op_name: rule for rule in irrep_rules}
    # psi_{n,m} by (n, m), and its largest magnitude in floats: the pass reads
    # each at up to a dozen steps, and from the point's store once
    basis = cache(partial(chain_psi, params))
    sizes = cache(lambda n, m: float(basis(n, m).max_magnitude()))
    direct = partial(_float_ladder_residual, basis=basis, sizes=sizes)
    # (action rule, its report, irrep rule, its claimed value, irrep reports,
    # image clock)
    plan = []
    for rule in ACTION_RULES:
        irrep_rule = by_op.get(rule.op_name)
        if irrep_rule is None and "actions" not in suites:
            continue
        action = _Check(rule.rule_id, rule.anchor, params.mode, tol)
        claim, checks = (None, []) if irrep_rule is None else _irrep_checks(params.mode, irrep_rule, tol, direct)
        image_clock = action if "actions" in suites else checks[0][0]
        plan.append((rule, action, irrep_rule, claim, checks, image_clock))
    if not plan:
        return [], []  # neither suite asked for: no image feeds a check
    for n in range(n_max + 1):
        for m in range(n + 1):
            psi = basis(n, m)
            derivatives: dict = {}  # the derivative table of psi_{n,m}
            # halves of small integers, exact in floats too, as is each claim,
            # which is so a coefficient of the mode as it stands
            j, mu = (Fraction(n, 2), Fraction(2 * m - n, 2)) if params.mode == EXACT else (n / 2, m - n / 2)
            for rule, action, irrep_rule, claim, checks, image_clock in plan:
                with image_clock:
                    terms = rule.terms(params, n, m)
                    value = None if claim is None else claim(j, mu)
                    image = apply(params, rule.op_name, psi, derivatives)
                    # image - sum c psi, with the image last so that a float
                    # sum rounds as image - (sum c psi) does
                    image_residual = residual_magnitude(
                        params.mode, [(c, basis(n2, m2)) for n2, m2, c in terms if c and 0 <= m2 <= n2], image)
                action.add(image_residual, (n, m))
                for check, residual in checks:
                    with check:
                        try:
                            check.add(residual(params, irrep_rule, n, m, value, terms, image, image_residual), (n, m))
                        except OverflowError:
                            check.skip(FLOAT_OVERFLOW)
    actions = [action.report() for _, action, *_ in plan] if "actions" in suites else []
    irrep = {irrep_rule.rule_id: [check.report() for check, _ in checks]
             for _, _, irrep_rule, _, checks, *_ in plan if irrep_rule is not None}
    return actions, [report for rule in irrep_rules for report in irrep[rule.rule_id]]


def check_actions(params: Params, n_max: int = DEFAULT_NMAX, tol: float = DEFAULT_TOL) -> list[Report]:
    """Compare op.psi_{n,m} against the asserted expansion for every action
    formula and every 0 <= m <= n <= n_max; one report per formula."""
    return _image_pass(params, ("actions",), n_max, tol)[0]


def check_irrep(params: Params, n_max: int = DEFAULT_NMAX, tol: float = DEFAULT_TOL) -> list[Report]:
    """su(2)/superalgebra coefficients on phi, read off the action images: the
    diagonal reports, then per ladder rule an exact squared-value report (exact
    mode only) and a float direct report."""
    return _image_pass(params, ("irrep",), n_max, tol)[1]


# ---------------------------------------------------------------------------
# pseudo-Hermiticity and explicit-form suites
# ---------------------------------------------------------------------------


def check_pseudo_hermiticity(params: Params, tol: float = DEFAULT_TOL) -> Report:
    """swap_vars(H) == adjoint(H): H is Hermitian up to the z <-> zbar swap."""
    check = _Check("pseudo.H", "swap_vars(H) == adjoint(H)", params.mode, tol)
    with check:
        ham = make_operator(params, "H")
        check.add((swap_vars(ham) - adjoint(ham)).max_magnitude())
    return check.report()


def check_explicit_forms(params: Params, tol: float = DEFAULT_TOL) -> list[Report]:
    """Catalog operators against their independently transcribed z/zbar
    forms, each proven or evaluated as a catalog relation is."""
    reports = []
    for name in EXPLICIT_NAMES:
        check = _Check(f"explicit.{name}", f"make_operator({name}) == explicit_form({name})", params.mode, tol)
        _check_equal(check, params, name, EXPLICIT_FORMS[name])
        reports.append(check.report())
    return reports


# ---------------------------------------------------------------------------
# integral suite
# ---------------------------------------------------------------------------


def _fixed_test_poly(params: Params, n_max: int, salt: int) -> Poly2:
    # deterministic full-degree chain form with varied rational coefficients;
    # w = a z + b zbar is an invertible change of variables, so the degree
    # <= n_max polynomials are the same space in either coordinates
    terms = {}
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            num = ((i + 2) * (j + 3) + salt * (7 * i + j)) % 11 - 5
            den = (i + j + salt) % 4 + 1
            if num:
                terms[(i, j)] = params.s(Fraction(num, den))
    return Poly2(params.mode, terms)


def check_integrals(params: Params, n_max: int = INTEGRALS_NMAX, tol: float = DEFAULT_TOL) -> list[Report]:
    """Biorthogonality (gram blocks are anti-diagonal identities), Jordan form
    of the pairing with H, ground norm, truncated resolution of identity, and
    the exact-vs-quadrature cross-check (skipped with a note when a <= b)."""
    mode, span = params.mode, min(n_max, RESOLUTION_DEGREE)
    gram = _Check("integrals.gram", f"gram blocks equal anti-diagonal identity, n <= {n_max}", mode, tol)
    jordan = _Check("integrals.jordan", f"<<psi|H psi>> blocks equal E_n I + superdiagonal, n <= {n_max}",
                    mode, tol)
    norms = _Check("integrals.norms", f"<<psi00|psi00>> = 1 and <<psi_n0|psi_n0>> = 0 for 1 <= n <= {n_max}",
                   mode, tol)
    resolution = _Check("integrals.resolution", f"truncated resolution of identity on degree <= {span} functions",
                        mode, tol)
    oracle = _Check("integrals.oracle", "chain pairing vs Gauss-Hermite on sampled pairs", FLOAT, ORACLE_TOL)

    heads = []  # <<psi_n0|psi_n0>> = G[0][0] of level n, for integrals.norms
    with gram:
        for n in range(n_max + 1):
            block = gram_block(params, n)
            heads.append(block[0][0])
            for m in range(n + 1):
                for mp in range(n + 1):
                    gram.add(abs(block[m][mp] - params.s(1 if m + mp == n else 0)))

    with jordan:
        for n in range(n_max + 1):
            block = h_block(params, n)
            e_n = energy(params, n)
            for k in range(n + 1):
                for m in range(n + 1):
                    want = e_n if k == m else params.s(1 if m == k + 1 else 0)
                    jordan.add(abs(block[k][m] - want))

    with norms:
        norms.add(abs(heads[0] - params.s(1)))
        for n in range(1, n_max + 1):
            norms.add(abs(heads[n]))

    with resolution:
        for salt in (1, 2):
            f = _fixed_test_poly(params, span, salt)
            resolution.add((expand_in_basis(params, f, span) - f).max_magnitude())

    with oracle:
        try:
            for n1, m1, n2, m2 in [(0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 3, 1), (2, 1, 2, 1), (3, 2, 3, 1)]:
                if n1 > n_max or n2 > n_max:
                    continue
                exact_val = inner_product(params, chain_psi(params, n1, m1), chain_psi(params, n2, m2))
                est = quadrature_oracle(params, build_psi(params, n1, m1), build_psi(params, n2, m2))
                scale = max(1.0, abs(complex(exact_val)))
                oracle.add(abs(est - complex(exact_val)) / scale)
        except OracleUnavailableError:
            oracle.skip("quadrature cross-check skipped: needs a > b")
        except OverflowError:
            oracle.skip(FLOAT_OVERFLOW)
    return [check.report() for check in (gram, jordan, norms, resolution, oracle)]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def check_suites(suites: tuple[str, ...]) -> None:
    """Raise ValueError unless the suites are known, at least one, and each
    named once (a repeated suite would report each of its ids twice)."""
    if not suites:
        raise ValueError(f"suites must be a nonempty subset of {', '.join(SUITES)}")
    for i, suite in enumerate(suites):
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
        if suite in suites[:i]:
            raise ValueError(f"suite {suite!r} is named twice")


def suite_cutoffs(suites: Iterable[str], n_max: int) -> dict[str, int | None]:
    """The basis cutoff each suite runs at, given ``n_max``, in suite order.

    structure and pseudo check operator identities and pair no basis
    functions, so their cutoff is None; the integrals suite also names the
    degree of its resolution check, as "integrals.resolution".
    """
    cutoffs: dict[str, int | None] = {}
    for suite in suites:
        if suite in ("structure", "pseudo"):
            cutoffs[suite] = None
        elif suite == "integrals":
            cutoffs[suite] = min(n_max, INTEGRALS_NMAX)
            cutoffs["integrals.resolution"] = min(cutoffs[suite], RESOLUTION_DEGREE)
        else:
            cutoffs[suite] = n_max
    return cutoffs


def run_suites(
    params: Params,
    suites: Iterable[str],
    n_max: int = DEFAULT_NMAX,
    tol: float = DEFAULT_TOL,
    relations: Iterable[RelationSpec] | None = None,
) -> list[Report]:
    """Reports of the given suites, suite by suite in the given order; the
    actions and irrep suites share one image pass, and the structure suite
    checks ``relations`` (default: the shipped catalog)."""
    suites = tuple(suites)
    check_suites(suites)
    action_reports, irrep_reports = _image_pass(params, suites, n_max, tol)
    cutoffs = suite_cutoffs(suites, n_max)
    reports: list[Report] = []
    for suite in suites:
        if suite == "structure":
            reports += check_structure(params, relations, tol)
            reports += check_explicit_forms(params, tol)
        elif suite == "actions":
            reports += action_reports
        elif suite == "irrep":
            reports += irrep_reports
        elif suite == "pseudo":
            reports.append(check_pseudo_hermiticity(params, tol))
        else:
            reports += check_integrals(params, cutoffs[suite], tol)
    return reports
