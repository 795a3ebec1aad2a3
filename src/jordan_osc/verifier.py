"""Machine verification suites.

Every identity the model asserts is checked here, grouped into five suites:

* structure  -- (anti)commutator and operator identities, driven by the
                shipped relation catalog (data, not code),
* actions    -- operator actions on the basis functions psi_{n,m},
* irrep      -- su(2)/superalgebra ladder coefficients on the rescaled
                functions phi (squared-value checks in exact mode, relative
                tolerance checks, read in floats, in both modes),
* pseudo     -- pseudo-Hermiticity swap(H) == adjoint(H),
* integrals  -- biorthogonality, Jordan blocks of the pairing, truncated
                resolution of identity (exact checks at the point's twin, in
                both modes), and the quadrature cross-check.

The actions and irrep suites are two readings of the same images op.psi_{n,m},
so one image pass serves both, in the chain variables (w, zbar),
w = a z + b zbar (see model), level-outer, on charge lines. The charge of
w^e zbar^i is e - i, and every term of psi_{n,m} has charge 2m - n (a term
off its line fails its step in every check that reads it, and in
integrals.gram), so the psi of one level sum to one polynomial Lambda_n, with
one derivative table. A term w^i zbar^j dw^k dzbar^l of an operator
(``model.conjugated``) shifts the charge by i - j - k + l, so each operator
is split into parts of one shift each, and a part's image of Lambda_n holds
each op psi_{n,m} on its own line.

Each action rule (``ACTION_RULES``) is one line of text, its data and its
report anchor (see ActionRule). Its terms' targets lie on distinct charge
lines, or the rule is refused when it is built, so each line of a part's
image is one step with one target, kept in one record (``_Line``), and one
walk reads the image against them (``_read_lines``): no difference
polynomial is built, nor a Fraction for a step that passes. A residual is
relative per charge line, in both modes: the line's largest magnitude over
|w| T, w the step's action coefficient and T the largest coefficient of its
target psi_{n',m'}, so it is scale-free, and a failing exact report reads the
same at every point sigma_P relates; a nonzero residue with no target reads 1.

A rule of one term may carry an irrep claim, read off the step's action
coefficient w: irrep.J0 and irrep.K compare w with the eigenvalue, and the
exact irrep.<op>.sq decides w >= 0 and w^2 m!(n'-m')!/((n-m)! m'!) == claim
in integers. irrep.<op>.float, in both modes, reads no image of its own: it
compares s w with sqrt(claim) s', s and s' the su(2) factors (``su2_factor``,
the only irrational numbers of an exact run), relatively, and takes the
step's relative residual with it (see _float_ladder_residual).

An action verdict is derived, read, or read as a fallback. The boson rules action.a1+, a2+, a1-
and a2- make the basis the two-boson Fock module, psi_{n,m} = x^m y^(n-m)/m! with the a's acting as
x, y, dx, dy (Schwinger's realization of su(2)). A rule is derived once per process (``_derived``) if
its operator in that chart (``_fock_generators``) acts on x^m y^(n-m)/m! as its terms say, as
polynomials in (n, m), so for every n. A pass reads the boson rules at every level; if all four are
derived and pass, each other derived rule reads only the levels whose targets lie beyond n_max + 1,
which the boson rules tie to no Fock state (D+11, D+12, D+22 at n = n_max), with image residual 0 at
its other steps. A refuted rule, and every rule where a boson rule is missing, not derived or
failing, is read at every level.

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
p = q = 1, so a homogeneous relation that holds there reports pass with
residual 0, with nothing built at P; the explicit forms are checked the same
way. Everything else (an inhomogeneous relation, one that fails at p = q = 1,
pseudo.H) is evaluated exactly at the point's dyadic twin (``Params.twin``),
so a failing report keeps its residual. These are exact checks in both
modes: a float point builds no operator of its own.

Every report is built by one accumulator, ``_Check``: it keeps the check's
worst residual and where it sits, times the work done inside ``with check:``,
and gives the verdict. Exact mode is authoritative: a pass there means
residual identically zero. Float mode compares residuals against a tolerance,
and a NaN residual counts as the worst, so a check that met one fails. A check
that cannot run at the given point is reported as skipped, never as passed.
"""

from __future__ import annotations

import ast
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from importlib import resources
from math import factorial, lcm, sqrt
from sys import float_info
from typing import Callable, Iterable

from . import model
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
    _SCALAR_TOKEN,
    Params,
    _per_point,
    _scalar,
    _weight,
    apply,  # not called here, but kept bound: perfbench/test_perfbench.py asserts verifier.apply is model.apply
    build_psi,
    canonical_name,
    chain_psi,
    energy,
    eval_expression,
    make_operator,
    parse_expression,
    su2_factor,
    substitute,
)
from .weyl import (
    EXACT,
    FLOAT,
    DiffOp,
    Poly2,
    adjoint,
    commutator,
    lift,
    max_or_nan,
    swap_vars,
    to_ints,
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
#: the anchor of integrals.oracle, the quadrature cross-check, skipped because
#: the point leaves the float range: a value read in floats overflows, or (the
#: oracle's a) underflows to zero; the exact checks still run
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


def _check_nmax(n_max) -> None:
    """A cutoff is an int >= 0: below 0 no level would be read, and every check would pass unrun."""
    if type(n_max) is not int or n_max < 0:
        raise ValueError(f"n_max must be an int >= 0, not {n_max!r}")


class _Check:
    """The one builder of a Report: the check's id, anchor and mode, its worst
    residual and the (n, m) where that sits, the time spent inside its
    ``with check:`` blocks, and the verdict (exact: residual == 0, float:
    residual <= tol). A NaN residual beats any number and is kept, so a check
    that met one fails; a zero never replaces the worst. A found failure beats
    a skip: a skipped check whose residuals so far fail reports the failure."""

    def __init__(self, relation_id: str, anchor: str, mode: str, tol: float = 0.0) -> None:
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
    """lhs == rhs at params into ``check``: nothing to add if it is proven,
    else the residual of exact evaluation at the point's twin."""
    with check:
        if not _proven(lhs, rhs):
            check.add((eval_expression(lhs, params.twin) - eval_expression(rhs, params.twin)).max_magnitude())


def check_relation(params: Params, spec: RelationSpec) -> Report:
    """lhs == rhs at params, an exact check in either mode: a pass with
    residual 0 if it is proven at _UNIT, else evaluated at the point's twin."""
    check = _Check(spec.rel_id, f"{spec.lhs} == {spec.rhs}", EXACT)
    _check_equal(check, params, spec.lhs, spec.rhs)
    return check.report()


def check_structure(params: Params, relations: Iterable[RelationSpec] | None = None) -> list[Report]:
    """Check every catalog relation at the given parameter point."""
    if relations is None:
        relations = load_relations()
    return [check_relation(params, spec) for spec in relations]


# ---------------------------------------------------------------------------
# action suite
# ---------------------------------------------------------------------------


#: the symbols of an index polynomial, as polynomials in (n, m): an action
#: term's are n and m, an irrep claim's j = n/2 and mu = m - n/2
_TERM_SYMBOLS = {"n": Poly2.z(EXACT), "m": Poly2.zbar(EXACT)}
_CLAIM_SYMBOLS = {"j": Poly2.z(EXACT) * Fraction(1, 2), "mu": Poly2.zbar(EXACT) - Poly2.z(EXACT) * Fraction(1, 2)}
_ARITHMETIC = {ast.Add: Poly2.__add__, ast.Sub: Poly2.__sub__, ast.Mult: Poly2.__mul__}
#: a rule's term: a scalar literal, an optional index polynomial, the target
_TERM = re.compile(r"(\S+)(?: (.+?))? psi\[n([+-]\d+)?,m([+-]\d+)?\]")


def _index_poly(text: str, symbols: dict) -> tuple:
    """The exact coefficient table (den, (((i, k), c), ...)) of p = sum c n^i m^k / den, read with
    ast from integers and ``symbols`` under unary minus, +, - and *; else a ValueError or SyntaxError."""
    def poly(node) -> Poly2:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Poly2.monomial(0, 0, node.value)
        if isinstance(node, ast.Name) and node.id in symbols:
            return symbols[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -poly(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            return _ARITHMETIC[type(node.op)](poly(node.left), poly(node.right))
        raise ValueError(f"{ast.unparse(node)!r} in {text!r}: an index polynomial takes integers, "
                         f"{', '.join(symbols)}, unary minus, +, - and * only")

    p = poly(ast.parse(text, mode="eval").body)
    return p.den, tuple(sorted(p.nums.items()))


def _parse_rule(text: str, irrep: str) -> tuple:
    """(op_name, terms, claim) of an action rule's text (see ActionRule)."""
    op_name, _, rhs = text.partition(" psi = ")  # without " psi = ", the text names no operator
    want, terms = _weight(canonical_name(op_name)), []
    for term in rhs.split(" + "):
        match = _TERM.fullmatch(term)
        if match is None or not _SCALAR_TOKEN.fullmatch(match[1]):
            raise ValueError(f"the term {term!r} is no 'c*f^k*... [polynomial] psi[n+dn,m+dm]'")
        literal, poly, dn, dm = match[1], match[2], int(match[3] or 0), int(match[4] or 0)
        alpha, beta = _weight(parse_expression(literal))
        if (alpha + dn - 2 * dm, beta) != want:
            raise ValueError(f"the term {literal} psi[n{dn:+},m{dm:+}] has weight {(alpha + dn - 2 * dm, beta)}, "
                             f"the operator {want}")
        terms.append((dn, dm, literal, _index_poly(poly or "1", _TERM_SYMBOLS)))
    shifts = [2 * dm - dn for dn, dm, *_ in terms]
    if len(set(shifts)) < len(shifts):  # each charge part of the operator meets one target
        raise ValueError(f"two terms shift the charge 2dm - dn by one amount, {shifts}")
    if irrep and len(terms) != 1:
        raise ValueError(f"an irrep claim needs a rule of one term, not {len(terms)}")
    return op_name, tuple(terms), _index_poly(irrep, _CLAIM_SYMBOLS) if irrep else None


@cache
def _levels(table: tuple, n_max: int) -> tuple:
    """p(n, m), m = 0..n, per level n <= n_max of p's table (see _index_poly), by Horner's rule in m: ints
    where its den is 1, else Fractions, in both modes. Kept: no level depends on the point."""
    den, nums = table
    levels, degree = [], max((k for (_, k), _ in nums), default=0)
    for n in range(n_max + 1):
        cs = [0] * (degree + 1)  # p's coefficients of m^k at n
        for (i, k), c in nums:
            cs[k] += c * n**i
        values = [cs[-1]] * (n + 1)
        for c in cs[-2::-1]:
            values = [v * m + c for m, v in enumerate(values)]
        levels.append(tuple(values) if den == 1 else tuple(Fraction(v, den) for v in values))
    return tuple(levels)


@dataclass(frozen=True)
class ActionRule:
    """op psi_{n,m}, 0 <= m <= n, as text "op psi = term + term ...", a term "literal [polynomial]
    psi[n+dn,m+dm]" (the polynomial 1 if left out, written without spaces; a target off the grid reads
    as zero). ``irrep``, on a rule of one term, claims op phi = claim phi in j and mu if the term keeps
    (n, m), else op phi = sqrt(claim) phi[j+dn/2,mu+dm-dn/2]. Parsed once into op_name, the terms (dn, dm,
    literal, table) and the claim's table or None (see _index_poly), and checked: weight(op) =
    weight(literal) + (dn - 2 dm, 0) per term, and no two terms shift the charge 2dm - dn by one
    amount. A fault is a ValueError naming the rule."""

    rule_id: str
    anchor: str
    irrep: str = ""
    op_name: str = field(init=False)
    terms: tuple = field(init=False)
    claim: tuple | None = field(init=False)

    def __post_init__(self) -> None:
        try:
            parsed = _parse_rule(self.anchor, self.irrep)
        except (ValueError, SyntaxError) as exc:  # a SyntaxError from ast.parse
            raise ValueError(f"{self.rule_id}: {exc}") from None
        for name, value in zip(("op_name", "terms", "claim"), parsed):
            object.__setattr__(self, name, value)


ACTION_RULES: tuple[ActionRule, ...] = (
    ActionRule("action.B-", "B- psi = 4*p*q (n-m) psi[n-1,m] + 1/2*q*p^-1 psi[n-1,m-1]"),
    ActionRule("action.B+", "B+ psi = -4*p*q (m+1) psi[n+1,m+1] + -1/2*q*p^-1 psi[n+1,m]"),
    ActionRule("action.A-", "A- psi = 1/2*p*q^-1 psi[n-1,m-1]"),
    ActionRule("action.A+", "A+ psi = -1/2*p*q^-1 psi[n+1,m]"),
    ActionRule("action.jordan-H", "H psi = 4*a (n+1) psi[n,m] + 1 psi[n,m-1]"),
    ActionRule("action.R", "R psi = -1/4*a*b^-1 psi[n,m-1]"),
    ActionRule("action.S", "S psi = -1/4*b*a^-1 psi[n,m-1] + -2*b n psi[n,m] + -16*a*b (n-m)*(m+1) psi[n,m+1]"),
    ActionRule("action.T", "T psi = -2*a (n-2*m) psi[n,m]"),
    ActionRule("action.U", "U psi = -2*a n psi[n,m] + -1/2 psi[n,m-1]"),
    ActionRule("action.J0", "J0 psi = 1/2 (2*m-n) psi[n,m]", "mu"),
    ActionRule("action.J+", "J+ psi = 1 (n-m)*(m+1) psi[n,m+1]", "(j-mu)*(j+mu+1)"),
    ActionRule("action.J-", "J- psi = 1 psi[n,m-1]", "(j+mu)*(j-mu+1)"),
    ActionRule("action.K", "K psi = 1 (n+1) psi[n,m]", "2*j+1"),
    ActionRule("action.a1+", "a1+ psi = 1 (m+1) psi[n+1,m+1]", "j+mu+1"),
    ActionRule("action.a1-", "a1- psi = 1 psi[n-1,m-1]", "j+mu"),
    ActionRule("action.a2+", "a2+ psi = 1 psi[n+1,m]", "j-mu+1"),
    ActionRule("action.a2-", "a2- psi = 1 (n-m) psi[n-1,m]", "j-mu"),
    ActionRule("action.D+11", "D+11 psi = 1 (m+1)*(m+2) psi[n+2,m+2]", "(j+mu+1)*(j+mu+2)"),
    ActionRule("action.D+12", "D+12 psi = 1 (m+1) psi[n+2,m+1]", "(j-mu+1)*(j+mu+1)"),
    ActionRule("action.D+22", "D+22 psi = 1 psi[n+2,m]", "(j-mu+1)*(j-mu+2)"),
    ActionRule("action.D-11", "D-11 psi = 1 psi[n-2,m-2]", "(j+mu)*(j+mu-1)"),
    ActionRule("action.D-12", "D-12 psi = 1 (n-m) psi[n-2,m-1]", "(j-mu)*(j+mu)"),
    ActionRule("action.D-22", "D-22 psi = 1 (n-m)*(n-m-1) psi[n-2,m]", "(j-mu)*(j-mu-1)"),
)


# ---------------------------------------------------------------------------
# the Fock module: action rules derived for every n
# ---------------------------------------------------------------------------

#: the boson operators, in the order of the Fock module's x, y, dx, dy, whose
#: keys are those of z, zbar, dz, dzbar (_UNITS): a Fock key (i, j, k, l) reads
#: a1+^i a2+^j a1-^k a2-^l, normal-ordered, and psi_{n,m} is x^m y^(n-m)/m!
_BOSONS = ("a1+", "a2+", "a1-", "a2-")
_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@_per_point
def _fock_generators(params: Params) -> tuple | None:
    """The Fock chart at params (_UNIT): the images of z, zbar, dz, dzbar in x, y, dx, dy, or None unless
    the a's are linear forms in the generators and the images keep the Weyl relations. A linear form L
    goes to sum_i [a_i-, L] x_i - [a_i+, L] dx_i: a chart that keeps the relations keeps every bracket,
    so [dx_i, chart(L)] = [a_i-, L] = [chart(a_i-), chart(L)] for every L, chart(a_i-) = dx_i, and
    likewise chart(a_i+) = x_i. This inverts the 4x4 matrix of the a's exactly."""
    bosons, units = [make_operator(params, name) for name in _BOSONS], [DiffOp.monomial(key, 1) for key in _UNITS]
    if any(key not in _UNITS for op in bosons for key in op.nums):
        return None
    images = tuple(DiffOp.linear_combination(EXACT, [  # the bracket with the partner, a1+ with a1- and so on
        ((1 if t < 2 else -1) * commutator(bosons[(t + 2) % 4], g).terms.get((0, 0, 0, 0), 0), units[t])
        for t in range(4)]) for g in units)
    weyl = all(commutator(images[h], images[g]).terms == ({(0, 0, 0, 0): 1} if h == g + 2 else {})
               for g in range(4) for h in range(g + 1, 4))  # [dz, z] = [dzbar, zbar] = 1, the rest 0
    return images if weyl else None


@cache
def _derived(rule: ActionRule) -> bool:
    """Whether the rule holds on the Fock module, so for every n. Its operator at _UNIT in the chart
    (model.substitute), a sum of c x^i y^j dx^k dy^l, sends x^m y^(n-m)/m! to the sum of c (m-k+1)...(m-k+i)
    (n-m)(n-m-1)...(n-m-l+1) psi[n+i+j-k-l,m+i-k], each a polynomial in (n, m) that vanishes where dx^k or
    dy^l meets a lower power; derived iff they sum, per target, to the rule's terms (literal at _UNIT
    times table) exactly. Rules are weight-checked when built, so this holds at every point (see
    _proven). Kept per rule, derived at first use."""
    if _fock_generators(_UNIT) is None:
        return False
    n, m, one = _TERM_SYMBOLS["n"], _TERM_SYMBOLS["m"], Poly2.one(EXACT)
    # target (dn, dm) -> the Fock action minus the rule's term there
    sums = {(dn, dm): Poly2._normalized(EXACT, dict(nums), den) * -_scalar(literal, _UNIT)
            for dn, dm, literal, (den, nums) in rule.terms}
    for (i, j, k, l), c in substitute(_UNIT, _fock_generators, make_operator(_UNIT, rule.op_name)).terms.items():
        p = Poly2.monomial(0, 0, c)
        for t in range(i):
            p *= m + one.scale(t + 1 - k)
        for t in range(l):
            p *= n - m - one.scale(t)
        sums[i + j - k - l, i - k] = sums.get((i + j - k - l, i - k), Poly2.zero(EXACT)) + p
    return all(p.is_zero() for p in sums.values())


# ---------------------------------------------------------------------------
# the image pass shared by the action and irrep suites
# ---------------------------------------------------------------------------


# Each irrep residual reads one step op.psi_{n,m} of the pass: its arguments
# are n, m, the rule's claimed value there (at j = n/2, mu = m - n/2,
# computed once for all reports of the rule), the one action term (c, n', m')
# of the step, and the image's residual against the action rule.


def _eigenvalue_residual(n, m, eigenvalue, target, image_residual):
    """op psi_{n,m} = c psi_{n,m} holds (the image residual) and c equals the
    irrep eigenvalue."""
    return max_or_nan(image_residual, abs(target[0] - eigenvalue))


def _squared_ladder_residual(n, m, c2, target, image_residual):
    """Exact mode: op psi_{n,m} = c psi_{n',m'} holds (the image residual),
    c >= 0, and, as phi is psi scaled by sqrt(m!/(n-m)!),
    c^2 m!(n'-m')!/((n-m)! m'!) equals c2 = claim; outside the grid the
    claim must vanish."""
    c, n2, m2 = target
    if not (0 <= m2 <= n2):
        return max_or_nan(image_residual, abs(c2))
    if not c >= 0:
        # the su(2)-type coefficients are nonnegative (and a NaN is none)
        return max_or_nan(image_residual, abs(c))
    # c^2 ratio == c2 with ratio = m!(n'-m')!/((n-m)! m'!), decided in
    # integers; only a failure builds the Fraction residual
    if (c.numerator ** 2 * factorial(m) * factorial(n2 - m2) * c2.denominator
            == c2.numerator * c.denominator ** 2 * factorial(n - m) * factorial(m2)):
        return image_residual
    ratio = Fraction(factorial(m) * factorial(n2 - m2), factorial(n - m) * factorial(m2))
    return max_or_nan(image_residual, abs(c * c * ratio - c2))


def _float_ladder_residual(n, m, c2, target, rho):
    """op phi_{n,m} = sqrt(c2) phi_{n',m'}, read off the step in floats. With s, s' the su(2) factors
    of (n, m) and (n', m'), w the action coefficient and op psi = w psi' + E, op phi - sqrt(c2) s' psi' =
    s E + (s w - sqrt(c2) s') psi'; over max(|s w|, sqrt(c2) s') T, T the largest coefficient of psi',
    that is at most rho + d, rho = |E| / (|w| T) the step's relative residual and
    d = |s w - sqrt(c2) s'| / max(|s w|, sqrt(c2) s'), and the residual is max(rho, d); off the grid,
    max(rho, |c2|). An exact run's rho, a Fraction, is read in floats, as the largest float beyond
    the float range; a float run's passes unchanged."""
    w, n2, m2 = target
    rho = float(min(rho, float_info.max)) if type(rho) is Fraction else rho
    if not 0 <= m2 <= n2:
        return max_or_nan(rho, abs(float(c2)))
    sw, c = su2_factor(n, m) * w, sqrt(c2) * su2_factor(n2, m2)
    return max_or_nan(rho, abs(sw - c) / max(abs(sw), c)) if sw or c else rho


def _offset(x: Fraction) -> str:
    return f"{'+' if x > 0 else '-'}{abs(x)}" if x else ""


def _irrep_checks(mode: str, rule: ActionRule, tol: float) -> list:
    """The (report, residual function) of each report of a rule's irrep claim,
    in report order, each anchored on the claim and the action term's shift."""
    (dn, dm, *_), rule_id, op = rule.terms[0], f"irrep.{rule.op_name}", rule.op_name
    if (dn, dm) == (0, 0):
        claim = rule.irrep if rule.irrep.isidentifier() else f"({rule.irrep})"
        return [(_Check(rule_id, f"{op} phi = {claim} phi", mode, tol), _eigenvalue_residual)]
    anchor = f"{op} phi = sqrt({rule.irrep}) phi[j{_offset(Fraction(dn, 2))},mu{_offset(dm - Fraction(dn, 2))}]"
    squared = [(_Check(f"{rule_id}.sq", f"{anchor} (squared values)", EXACT), _squared_ladder_residual)]
    return (squared if mode == EXACT else []) + [
        (_Check(f"{rule_id}.float", f"{anchor} (in floats, relative residual)", FLOAT, tol), _float_ladder_residual)]


def _charge_parts(op: DiffOp) -> dict:
    """op split by the charge shift i - j - k + l of its terms w^i zbar^j
    dw^k dzbar^l: shift -> the part, which maps a monomial of charge e - i
    (w^e zbar^i) to monomials of charge e - i + shift."""
    parts: dict = {}
    for key, v in op.nums.items():
        i, j, k, l = key
        parts.setdefault(i - j - k + l, {})[key] = v
    return {shift: DiffOp._normalized(op.mode, nums, op.den) for shift, nums in parts.items()}


def _off_line(psi: Poly2, n: int, m: int):
    """The largest coefficient magnitude of psi_{n,m} off its line 2m - n; the int 0 if none."""
    off = [abs(u) for (e, i), u in psi.nums.items() if e - i != 2 * m - n]
    return max_or_nan(*off) / lift(psi.den, psi.mode) if off else 0


def _level(psis: list) -> tuple[Poly2, dict]:
    """Lambda_n, the sum of psi_{n,m}, m = 0..n, over one denominator, and its derivative table."""
    den = lcm(*(psi.den for psi in psis))
    return Poly2._normalized(psis[0].mode, {key: u * (den // psi.den) for psi in psis
                                            for key, u in psi.nums.items()}, den), {}


def _terms(params: Params, rule: ActionRule, n_max: int) -> dict:
    """Shift 2dm - dn -> the rule's term (dn, dm, numerator, denominator, levels up to n_max) that
    shifts the charge by that, its literal read at the twin (see model)."""
    return {2 * dm - dn: (dn, dm, *to_ints(params.mode, [lift(_scalar(literal, params.twin), params.mode)]),
                          _levels(table, n_max)) for dn, dm, literal, table in rule.terms}


def _reads(params: Params, rule: ActionRule, terms: dict) -> list:
    """(shift, op's part of that charge shift or None, the term of that shift (see _terms) or None)
    for each shift of op's parts or terms, op's conjugation read at the twin (see model)."""
    parts = _charge_parts(model.conjugated(params, rule.op_name))
    return [(shift, parts.get(shift), terms.get(shift)) for shift in parts.keys() | terms]


def _action_terms(term: tuple, n: int) -> list:
    """The action term (w, n', m') of each step m of level n under a rule's one term (see _terms)."""
    dn, dm, [num], den, levels = term
    return [(num * v if den == 1 else Fraction(num * v, den), n + dn, m + dm) for m, v in enumerate(levels[n])]


class _Line:
    """The record of step m of a level under one charge part: the multipliers a and b of the
    kernel u a - t b, u an image and t a target numerator (exact: the term's den times
    psi_{n',m'}.den, and its numerator times image.den; float: 1 and the weight w), the
    target line psi_{n',m'}.nums or {}, the running maximum."""

    __slots__ = ("a", "b", "target", "worst")

    def __init__(self) -> None:
        self.a, self.b = 1, 0
        self.target, self.worst = {}, 0


def _read_lines(image: Poly2, lines: dict) -> None:
    """Read one image into its records' maxima, charge -> _Line: per line the
    largest magnitude of u a - t b over the line's monomials, u of the image and
    t of the target, as linear_combination then max_magnitude give it, bit for
    bit (exact: decided in integers). One walk looks each monomial up in its
    line; a match count finds the target monomials the image lacks; a monomial
    on no line is skipped."""
    inums, matched = image.nums, 0
    for key, u in inums.items():
        line = lines.get(key[0] - key[1])
        if line is None:
            continue
        t = line.target.get(key)
        if t is None:
            v = u * line.a
        else:
            matched, v = matched + 1, u * line.a - t * line.b
        if v and (abs(v) > line.worst or v != v):  # the largest, a NaN winning
            line.worst = abs(v)
    if matched < sum(len(line.target) for line in lines.values()):  # a target monomial the image lacks
        for line in lines.values():
            for key in line.target.keys() - inums.keys():
                line.worst = max_or_nan(line.worst, abs(line.target[key] * line.b))


def _read_level(reads: list, level: tuple, off: list, basis: Callable, size: Callable) -> list:
    """Per step m of ``level`` (see _level), from its off-line residual ``off[m]``,
    each part's image read against one record per step (_Line): the residual of op
    psi_{n,m} against the rule's terms. Each nonzero line maximum over |b| T,
    T = size(n', m') the target's largest numerator, is the line's largest magnitude
    over |w| times the target's largest coefficient, so scale-free; a nonzero residue
    with no target (off[m], or a line without one) reads 1, a NaN winning."""
    (source, derivatives), n = level, len(off) - 1
    mode = source.mode
    worst, one = [r and r / r for r in off], lift(1, mode)
    for shift, part, term in reads:
        image = Poly2.zero(mode) if part is None else part.apply_to(source, derivatives)
        lines = {2 * m - n + shift: _Line() for m in range(n + 1)}
        if term is not None:
            dn, dm, [num], den, levels = term
            for m, (line, value) in enumerate(zip(lines.values(), levels[n])):
                n2, m2, w = n + dn, m + dm, num * value
                if w and 0 <= m2 <= n2:  # a target to read: a zero weight reads nothing, so 0 * inf makes no NaN
                    psi = basis(n2, m2)
                    line.a, line.b, line.target = den * psi.den, w * image.den, psi.nums
        _read_lines(image, lines)
        for m, line in enumerate(lines.values()):  # max_or_nan, inline; a Fraction only for a nonzero exact maximum
            if line.worst:
                r = one * line.worst / (abs(line.b) * size(n + dn, m + dm) if line.target else line.worst)
                if r > worst[m] or r != r:
                    worst[m] = r
    return worst


def _image_pass(
    params: Params, suites: Iterable[str], n_max: int, tol: float
) -> tuple[list[Report], list[Report]]:
    """Reports of the actions and irrep suites among ``suites``, each in the
    order of ACTION_RULES: level-outer, on charge lines, the four boson rules
    first, then each other rule at the levels it reads (see the module
    docstring). The images' cost is timed into the action report, or into the
    first irrep report otherwise."""
    _check_nmax(n_max)
    mode, irrep = params.mode, "irrep" in suites
    # psi_{n,m} by (n, m), its off-line residual and its largest numerator T:
    # the pass reads each at up to a dozen steps, and from the point's store once
    basis = cache(partial(chain_psi, params))
    off_line = cache(lambda n, m: _off_line(basis(n, m), n, m))
    size = cache(lambda n, m: max_or_nan(0, *map(abs, basis(n, m).nums.values())))
    # each level and its off-line residuals, built once for every rule that reads it
    level = cache(lambda n: (_level([basis(n, m) for m in range(n + 1)]), [off_line(n, m) for m in range(n + 1)]))
    # (rule, its terms, action report, the claim's levels, irrep reports, image clock, the rule's reads)
    plan = []
    for rule in ACTION_RULES:
        claims = _levels(rule.claim, n_max) if irrep and rule.claim is not None else None
        if claims is None and "actions" not in suites:
            continue
        action, terms = _Check(rule.rule_id, rule.anchor, mode, tol), _terms(params, rule, n_max)
        checks = [] if claims is None else _irrep_checks(mode, rule, tol)
        plan.append((rule, terms, action, claims, checks, action if "actions" in suites else checks[0][0],
                     cache(partial(_reads, params, rule, terms))))  # conjugated at the first level read
    if not plan:
        return [], []  # neither suite asked for: no image feeds a check

    def read(entries: list, start: Callable) -> None:
        # each rule's images from level start(rule) up; below it, each step's image residual is 0
        for n in range(n_max + 1):
            for rule, terms, action, claims, checks, image_clock, reads in entries:
                with image_clock:
                    worst = _read_level(reads(), *level(n), basis, size) if n >= start(rule) else [0] * (n + 1)
                    steps = claims and _action_terms(next(iter(terms.values())), n)
                for m in range(n + 1):
                    action.add(worst[m], (n, m))
                for check, residual in checks:
                    with check:
                        for m, claim in enumerate(claims[n]):
                            check.add(residual(n, m, claim, steps[m], worst[m]), (n, m))

    bosons = [entry for entry in plan if entry[0].op_name in _BOSONS]
    if sorted(rule.op_name for rule, *_ in bosons) != sorted(_BOSONS) or not all(_derived(rule) for rule, *_ in bosons):
        bosons = []  # no chart to the Fock module: every rule reads every level
    read(bosons, lambda rule: 0)
    fock = bosons and all(action.report().passed for _, _, action, *_ in bosons)
    read([entry for entry in plan if not bosons or entry[0].op_name not in _BOSONS],
         lambda rule: n_max + 2 - max(dn for dn, *_ in rule.terms) if fock and _derived(rule) else 0)
    actions = [action.report() for _, _, action, *_ in plan] if "actions" in suites else []
    return actions, [check.report() for *_, checks, _, _ in plan for check, _ in checks]


def check_actions(params: Params, n_max: int = DEFAULT_NMAX, tol: float = DEFAULT_TOL) -> list[Report]:
    """Compare op.psi_{n,m} against the asserted expansion for every action
    formula and every 0 <= m <= n <= n_max; one report per formula. A rule
    derived on the Fock module reads residual 0 wherever the four boson rules,
    passing, reach its targets (see the module docstring)."""
    return _image_pass(params, ("actions",), n_max, tol)[0]


def check_irrep(params: Params, n_max: int = DEFAULT_NMAX, tol: float = DEFAULT_TOL) -> list[Report]:
    """su(2)/superalgebra coefficients on phi, read off each step's action term and image residual (see
    check_actions), in the order of ACTION_RULES: a diagonal rule's report, or a ladder rule's exact
    squared-value report (exact mode only) and its float direct report."""
    return _image_pass(params, ("irrep",), n_max, tol)[1]


# ---------------------------------------------------------------------------
# pseudo-Hermiticity and explicit-form suites
# ---------------------------------------------------------------------------


def check_pseudo_hermiticity(params: Params) -> Report:
    """swap_vars(H) == adjoint(H) at the point's twin: H is Hermitian up to the z <-> zbar swap."""
    check = _Check("pseudo.H", "swap_vars(H) == adjoint(H)", EXACT)
    with check:
        ham = make_operator(params.twin, "H")
        check.add((swap_vars(ham) - adjoint(ham)).max_magnitude())
    return check.report()


def check_explicit_forms(params: Params) -> list[Report]:
    """Catalog operators against their independently transcribed z/zbar
    forms, each proven or evaluated as a catalog relation is."""
    reports = []
    for name in EXPLICIT_NAMES:
        check = _Check(f"explicit.{name}", f"make_operator({name}) == explicit_form({name})", EXACT)
        _check_equal(check, params, name, EXPLICIT_FORMS[name])
        reports.append(check.report())
    return reports


# ---------------------------------------------------------------------------
# integral suite
# ---------------------------------------------------------------------------


def _fixed_test_poly(n_max: int, salt: int) -> Poly2:
    # deterministic full-degree chain form with varied rational coefficients;
    # w = a z + b zbar is an invertible change of variables, so the degree
    # <= n_max polynomials are the same space in either coordinates
    terms = {}
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            num = ((i + 2) * (j + 3) + salt * (7 * i + j)) % 11 - 5
            den = (i + j + salt) % 4 + 1
            if num:
                terms[(i, j)] = Fraction(num, den)
    return Poly2(EXACT, terms)


def check_integrals(params: Params, n_max: int = INTEGRALS_NMAX) -> list[Report]:
    """Biorthogonality (gram blocks are anti-diagonal identities), Jordan form
    of the pairing with H, ground norm, truncated resolution of identity, and
    the exact-vs-quadrature cross-check (skipped with a note when a <= b).
    The four pairing claims are exact checks at the point's twin; the oracle
    reads the basis of a float point, or of an exact one dilated to (p/2^j, q/2^j),
    p q/4^j in (1/4, 2) so that its floats stay in range, against the twin's
    pairing, which has weight 0, so is the same at both."""
    _check_nmax(n_max)
    twin, span, near = params.twin, min(n_max, RESOLUTION_DEGREE), params
    if params.mode == EXACT:
        pq = params.p * params.q
        j = (pq.numerator.bit_length() - pq.denominator.bit_length() + 1) // 2
        near = Params.exact(params.p / Fraction(2) ** j, params.q / Fraction(2) ** j) if j else params
    gram = _Check("integrals.gram", f"gram blocks equal anti-diagonal identity, n <= {n_max}", EXACT)
    jordan = _Check("integrals.jordan", f"<<psi|H psi>> blocks equal E_n I + superdiagonal, n <= {n_max}", EXACT)
    norms = _Check("integrals.norms", f"<<psi00|psi00>> = 1 and <<psi_n0|psi_n0>> = 0 for 1 <= n <= {n_max}",
                   EXACT)
    resolution = _Check("integrals.resolution", f"truncated resolution of identity on degree <= {span} functions",
                        EXACT)
    oracle = _Check("integrals.oracle", "chain pairing vs Gauss-Hermite on sampled pairs", FLOAT, ORACLE_TOL)

    heads = []  # <<psi_n0|psi_n0>> = G[0][0] of level n, for integrals.norms
    with gram:
        for n in range(n_max + 1):
            block = gram_block(twin, n)
            heads.append(block[0][0])
            for m in range(n + 1):
                # psi_{n,m} lies on charge line 2m - n; a term off it escapes the within-level pairs
                gram.add(_off_line(chain_psi(twin, n, m), n, m), (n, m))
                for mp in range(n + 1):
                    gram.add(abs(block[m][mp] - (1 if m + mp == n else 0)))

    with jordan:
        for n in range(n_max + 1):
            block = h_block(twin, n)
            e_n = energy(twin, n)
            for k in range(n + 1):
                for m in range(n + 1):
                    want = e_n if k == m else 1 if m == k + 1 else 0
                    jordan.add(abs(block[k][m] - want))

    with norms:
        norms.add(abs(heads[0] - 1))
        for n in range(1, n_max + 1):
            norms.add(abs(heads[n]))

    with resolution:
        for salt in (1, 2):
            f = _fixed_test_poly(span, salt)
            resolution.add((expand_in_basis(twin, f, span) - f).max_magnitude())

    with oracle:
        try:
            for n1, m1, n2, m2 in [(0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 3, 1), (2, 1, 2, 1), (3, 2, 3, 1)]:
                if n1 > n_max or n2 > n_max:
                    continue
                exact_val = inner_product(twin, chain_psi(twin, n1, m1), chain_psi(twin, n2, m2))
                est = quadrature_oracle(near, build_psi(near, n1, m1), build_psi(near, n2, m2))
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
            reports += check_structure(params, relations)
            reports += check_explicit_forms(params)
        elif suite == "actions":
            reports += action_reports
        elif suite == "irrep":
            reports += irrep_reports
        elif suite == "pseudo":
            reports.append(check_pseudo_hermiticity(params))
        else:
            reports += check_integrals(params, cutoffs[suite])
    return reports
