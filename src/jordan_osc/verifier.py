"""Machine verification suites.

Every identity the model asserts is checked here, grouped into five suites:

* structure  -- (anti)commutator and operator identities, driven by the
                shipped relation catalog (data, not code),
* actions    -- operator actions on the basis functions psi_{n,m},
* irrep      -- su(2)/superalgebra ladder coefficients on the rescaled
                functions phi (squared values, exact mode only, and the same
                relative residuals shown in floats),
* pseudo     -- pseudo-Hermiticity swap(H) == adjoint(H),
* integrals  -- biorthogonality, Jordan blocks of the pairing, truncated
                resolution of identity (exact checks at the point's twin, in
                both modes), and the quadrature cross-check.

The structure suite proves each catalog relation once per process, at p = q = 1 (``_UNIT``). Every
catalog operator and explicit form is a tree of the prefix grammar (see model) over the generators z,
zbar, dz, dzbar and scalar literals c*f^k*... in a, b, ab, p, q. The Weyl algebra automorphism sigma_P
(z -> lambda z, zbar -> mu zbar, dz -> dz/lambda, dzbar -> dzbar/mu, lambda = q/a, mu = 1/q) gives each
generator and factor a weight, and so each tree one (model._weight), derived through the definitions
of the operators it names: sigma_P(tree at P) = p^alpha q^beta (tree at p = q = 1) when the two sides
of every add and sub have one weight. Such a relation holds at P if and only if it holds at _UNIT,
where it is decided over the Fock chart's images of z, zbar, dz, dzbar (model._evaluate), in which a
catalog operator has 1 to 4 terms: they keep the Weyl relations, so the substitution is an injective
algebra homomorphism. A homogeneous relation that holds reports pass with residual 0; the explicit
forms are checked the same way. Everything else (an inhomogeneous relation, one that fails at _UNIT,
any where there is no chart, pseudo.H) is evaluated exactly at the point's dyadic twin
(``Params.twin``), so a failing report keeps its residual, in both modes.

The action and irrep suites read one image pass, run exactly at _UNIT once per process, rule set and
cutoff (``_image_pass``). Every action rule is weight-checked when it is built and psi_{n,m} has weight
(n - 2m, 0) (model._psi_weight), and each residual is relative per charge line, so the pass's reports
are every point's. An exact point reports them as they are; a float point keeps each verdict, exact,
its residual shown in floats, as every irrep.*.float report shows it. So verify builds no float basis.

The pass reads the images op.psi_{n,m} in the chain variables (w, zbar), w = a z + b zbar (see model),
level-outer, on charge lines. The charge of w^e zbar^i is e - i, and every term of psi_{n,m} has charge
2m - n (a term off its line fails its step in every check that reads it, and in integrals.gram), so the
psi of one level sum to one polynomial Lambda_n, with one derivative table. A term w^i zbar^j dw^k
dzbar^l of an operator (``model.conjugated``) shifts the charge by i - j - k + l, so each operator is
split into parts of one shift each, and a part's image of Lambda_n holds each op psi_{n,m} on its own
line. Each action rule (``ACTION_RULES``) is one line of text, its data and its report anchor (see
ActionRule). Its terms' targets lie on distinct charge lines, or the rule is refused when it is built,
so each line of a part's image is one step with one target, kept in one record (``_Line``), and one
walk reads the image against them (``_read_lines``), in integers. A residual is the line's largest
magnitude over |w| T, w the step's action coefficient and T the largest coefficient of its target
psi_{n',m'}, so it is scale-free; a nonzero residue with no target reads 1.

A rule of one term may carry an irrep claim, in j and mu, on its step's action coefficient w, so its
literal must be a number: irrep.J0 and irrep.K that w is the eigenvalue, irrep.<op>.sq that w >= 0 and
w^2 m!(n'-m')!/((n-m)! m'!) == claim, and irrep.<op>.float the same in floats on phi. Each irrep report
is its rule's action check, the .float one shown in floats; the claim is decided once, as a polynomial
identity in (n, m) (``_claimed``). The sign w >= 0 is proven where the expansion of w in binomials
of the steps has no negative coefficient; else it is read up to n_max, and the reports say "read".

An action verdict is derived, read or refuted. The boson rules action.a1+, a2+, a1- and a2- make the
basis the two-boson Fock module, psi_{n,m} = x^m y^(n-m)/m! with the a's acting as x, y, dx, dy
(Schwinger's realization of su(2)). A rule is derived once per process (``_derived``) if its operator
in that chart (``_fock_generators``) acts on x^m y^(n-m)/m! as its terms say, as polynomials in
(n, m), so for every n. The pass reads each basis function once under a raising operator: a2+ on every
step of levels 0..n_max+1, a1+ on each level's top function psi_{n,n} alone, and a1- and a2- on
psi_00. If all four are derived, the four bosons as read keep the Weyl relations (``_weyl``) and every
read at n <= n_max passes, these give psi_{n,m} = (a1+)^m (a2+)^(n-m) psi_00/m! up to the reach,
level n_max + 2, with a_i- psi_00 = 0. The reads at level n_max + 1 only decide the reach: they
enter no report, which speaks of n <= n_max, and where one fails the reach is n_max + 1. Each
derived rule then reads only the levels n >= reach + 1 - max dn, whose targets lie beyond the reach,
with image residual 0 below: a1+ off its top steps, a1- and a2- past n = 0 and every other rule
read no level, but D+11, D+12 and D+22 read n = n_max where the reach is n_max + 1. Otherwise every
rule is read at every level. A proof that refutes a rule or claim gives its counterexample, the first
(n, m), in level order, where the identity fails, and the relative discrepancy of its two exact sides
there (``_counterexample``): a refuted check fails, its report its reading where that fails, else the
counterexample, whose (n, m) may lie beyond n_max. With no Fock chart no rule is decided.

Every report is built by one accumulator, ``_Check``: it keeps the check's worst residual and where it
sits, times the work inside ``with check:``, and gives the verdict: a pass means residual identically
zero, at every point, for every check but one. integrals.oracle, the float cross-check, compares its
residual against ORACLE_TOL, a NaN counting as the worst. A check that cannot run at the given point is
reported as skipped, never as passed. Each report says whether its verdict was derived, proven (a
claim or relation proven once, for every point), read or refuted (``Report.how``).
"""

from __future__ import annotations

import ast
import re
import time
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain
from importlib import resources
from math import lcm, prod
from sys import float_info
from typing import Callable, Iterable, NamedTuple

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
    EXACT,
    EXPLICIT_FORMS,
    EXPLICIT_NAMES,
    FLOAT,
    _SCALAR_TOKEN,
    Params,
    _literal,
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
)
from .weyl import DiffOp, Poly2, adjoint, commutator, swap_vars

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
#: the relative tolerance of integrals.oracle, the quadrature cross-check: the package's only tolerance
ORACLE_TOL = 1e-8
#: the anchor of integrals.oracle, the quadrature cross-check, skipped because
#: the point leaves the float range: a value read in floats overflows, or (the
#: oracle's a) underflows to zero; the exact checks still run
FLOAT_OVERFLOW = "float cross-check skipped: the point leaves the float range"
#: how a report's verdict was reached (see the module docstring)
HOWS = ("derived", "proven", "read", "refuted")


class _ReportFields(NamedTuple):
    relation_id: str
    anchor: str
    mode: str
    passed: bool
    residual: str
    ms: float
    skipped: bool = False
    how: str = "read"


class Report(_ReportFields):
    """Outcome of one verified relation (or one aggregated family).

    A skipped check did not run: it is neither passed nor failed. ``how`` is one of HOWS (see the module
    docstring); a refuted check fails.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Report":
        report = super().__new__(cls, *args, **kwargs)
        if report.how not in HOWS or report.passed and (report.skipped or report.how == "refuted"):
            raise ValueError(f"how is one of {', '.join(HOWS)}, and no skipped or refuted check passes: {report}")
        return report

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


def _in_floats(rho):
    """An exact residual in floats, as the largest float beyond the float range; a float as it is."""
    return rho if type(rho) is float else float(min(rho, float_info.max))


class _Check:
    """The one builder of a Report: the check's id, anchor and mode (FLOAT: its residual shown in
    floats), its worst residual and the (n, m) where that sits, the time spent inside its ``with check:``
    blocks, and the verdict, residual <= tol: with the default tol 0, residual == 0. A NaN residual beats
    any number and is kept, so a check that met one fails; a zero never replaces the worst. A found
    failure beats a skip: a skipped check whose residuals so far fail reports the failure. A refuted
    check fails: where its residuals pass, it reports the counterexample."""

    def __init__(self, relation_id: str, anchor: str, mode: str, tol: float = 0) -> None:
        self.relation_id, self.anchor, self.mode, self.tol = relation_id, anchor, mode, tol
        self.worst, self.counterexample = 0, None
        self.at, self.seconds, self.skipped, self.how = None, 0.0, None, "read"  # skipped: why, if the check was

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

    def refute(self, discrepancy, at: tuple) -> None:
        """A proof found the check's identity false at basis index ``at``, by ``discrepancy`` (exact)."""
        self.how, self.counterexample = "refuted", (discrepancy, at)

    def skip(self, why: str) -> None:
        """The check cannot run (any further) here: report it as skipped, with
        ``why`` as its anchor, unless a residual already failed it."""
        self.skipped = why

    def report(self, mode: str | None = None) -> Report:
        """The report, in ``mode`` (the check's own by default): in FLOAT its residual shown in floats
        (_in_floats), its verdict the same."""
        worst, at, where, mode = self.worst, self.at, "worst", mode or self.mode
        passed = worst <= self.tol  # exact: a Fraction compares with a float exactly; False for a NaN
        if passed and self.how == "refuted":  # the counterexample stands in for the reading
            (worst, at), where, passed = self.counterexample, "refuted", False
        if self.skipped and passed:
            return Report(self.relation_id, self.skipped, mode, False, "n/a", self.seconds * 1e3, True, self.how)
        anchor = self.anchor if at is None else f"{self.anchor} [{where} at n,m={at}]"
        anchor += f"; {self.skipped}" if self.skipped else ""
        residual = _in_floats(worst) if mode == FLOAT else worst
        return Report(self.relation_id, anchor, mode, passed, str(residual), self.seconds * 1e3, how=self.how)


class RelationSpec(NamedTuple):
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
# the unit point and its Fock chart: each relation proven once per process
# ---------------------------------------------------------------------------

#: where each homogeneous relation is proven for every exact point
_UNIT = Params.exact(1, 1)


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
    images = tuple(DiffOp.linear_combination([  # the bracket with the partner, a1+ with a1- and so on
        ((1 if t < 2 else -1) * commutator(bosons[(t + 2) % 4], g).terms.get((0, 0, 0, 0), 0), units[t])
        for t in range(4)]) for g in units)
    weyl = all(commutator(images[h], images[g]).terms == ({(0, 0, 0, 0): 1} if h == g + 2 else {})
               for g in range(4) for h in range(g + 1, 4))  # [dz, z] = [dzbar, zbar] = 1, the rest 0
    return images if weyl else None


@lru_cache(maxsize=1024)
def _proven(lhs: str, rhs: str) -> bool:
    """Whether lhs == rhs is homogeneous (the two sides of every add and sub, in the definitions of
    the operators it names too, of one weight) and holds in the Fock chart at _UNIT, so at every exact
    point; False where there is no chart. Text only: kept and shared, like parse_expression."""
    if _weight(("sub", parse_expression(lhs), parse_expression(rhs))) is None or _fock_generators(_UNIT) is None:
        return False
    return eval_expression(lhs, _UNIT, _fock_generators) == eval_expression(rhs, _UNIT, _fock_generators)


def _check_equal(check: _Check, params: Params, lhs: str, rhs: str) -> None:
    """lhs == rhs at params into ``check``: nothing to add if it is proven,
    else the residual of exact evaluation at the point's twin."""
    with check:
        if _proven(lhs, rhs):
            check.how = "proven"
        else:
            check.add((eval_expression(lhs, params) - eval_expression(rhs, params)).max_magnitude())


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
_TERM_SYMBOLS = {"n": Poly2.z(), "m": Poly2.zbar()}
_CLAIM_SYMBOLS = {"j": Poly2.z() * Fraction(1, 2), "mu": Poly2.zbar() - Poly2.z() * Fraction(1, 2)}
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
    if irrep and _literal(terms[0][2])[1]:  # a claim is point-free, so its action coefficient must be too
        raise ValueError(f"an irrep claim needs a number for its rule's literal, not {terms[0][2]!r}")
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


class ActionRule:
    """op psi_{n,m}, 0 <= m <= n, as text "op psi = term + term ...", a term "literal [polynomial]
    psi[n+dn,m+dm]" (the polynomial 1 if left out, written without spaces; a target off the grid reads
    as zero). ``irrep``, on a rule of one term, claims op phi = claim phi in j and mu if the term keeps
    (n, m), else op phi = sqrt(claim) phi[j+dn/2,mu+dm-dn/2]. Parsed once into op_name, the terms (dn, dm,
    literal, table) and the claim's table or None (see _index_poly), and checked: weight(op) =
    weight(literal) + (dn - 2 dm, 0) per term, no two terms shift the charge 2dm - dn by one
    amount, and a rule with a claim has a number for its literal. A fault is a ValueError naming the rule.
    Two rules are equal where their six fields are; a rule hashes its text."""

    _FIELDS = ("rule_id", "anchor", "irrep", "op_name", "terms", "claim")

    def __init__(self, rule_id: str, anchor: str, irrep: str = "") -> None:
        self.rule_id, self.anchor, self.irrep = rule_id, anchor, irrep
        try:
            self.op_name, self.terms, self.claim = _parse_rule(anchor, irrep)
        except (ValueError, SyntaxError) as exc:  # a SyntaxError from ast.parse
            raise ValueError(f"{rule_id}: {exc}") from None

    def _key(self) -> tuple:
        return self.rule_id, self.anchor, self.irrep, self.op_name, self.terms, self.claim

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:  # the other fields are parsed from the text; a str caches its hash
        return hash((self.rule_id, self.anchor, self.irrep))

    def __repr__(self) -> str:
        return f"ActionRule({', '.join(f'{name}={value!r}' for name, value in zip(self._FIELDS, self._key()))})"


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

#: the answer of _derived where there is no Fock chart to decide in, and of _claimed where a sign
#: holds up to the cutoff but no certificate shows it for every n
_UNDECIDED = "cannot decide"


def _counterexample(steps: Iterable) -> tuple | None:
    """(discrepancy, (n, m)) of the first of ``steps``, each (n, m, left, right) with two exact sides, whose
    sides differ: |left - right| / max(|left|, |right|), 1 where one side is 0, 2 where only the signs differ."""
    return next(((Fraction(abs(left - right)) / max(abs(left), abs(right)), (n, m))
                 for n, m, left, right in steps if left != right), None)


@cache
def _derived(rule: ActionRule):
    """The rule on the Fock module, for every n: None where it holds, _UNDECIDED with no chart, else its
    counterexample (discrepancy, (n, m)). Its operator in the chart at _UNIT, a sum of c x^i y^j dx^k dy^l,
    sends x^m y^(n-m)/m! to the sum of c (m-k+1)...(m-k+i) (n-m)(n-m-1)...(n-m-l+1) psi[n+i+j-k-l,m+i-k],
    which must sum, per target, to the rule's terms (literal at _UNIT times table): polynomials in (n, m)
    of degree D, equal iff equal on D + 1 levels of steps onto the grid, so at n <= D + |dn| + |dm|; at a
    step where several targets fail, the first gives the discrepancy. Rules are weight-checked when built,
    so this holds at every point (see _proven)."""
    if _fock_generators(_UNIT) is None:
        return _UNDECIDED
    n, m, one, zero = _TERM_SYMBOLS["n"], _TERM_SYMBOLS["m"], Poly2.one(), Poly2.zero()
    # target (dn, dm) -> [the Fock action there, the rule's term]
    sides = {(dn, dm): [zero, Poly2._normalized(dict(nums), den) * _scalar(literal, _UNIT)]
             for dn, dm, literal, (den, nums) in rule.terms}
    for (i, j, k, l), c in eval_expression(rule.op_name, _UNIT, _fock_generators).terms.items():
        p = Poly2.monomial(0, 0, c)
        for t in range(i):
            p *= m + one.scale(t + 1 - k)
        for t in range(l):
            p *= n - m - one.scale(t)
        sides.setdefault((i + j - k - l, i - k), [zero, zero])[0] += p
    wrong = [(dn, dm, pair) for (dn, dm), pair in sides.items() if pair[0] != pair[1]]
    top = max((p.total_degree() + abs(dn) + abs(dm) for dn, dm, pair in wrong for p in pair), default=-1)
    value = lambda p, n, m: Fraction(sum(c * n**i * m**k for (i, k), c in p.nums.items()), p.den)
    return _counterexample((n, m, *(value(p, n, m) for p in pair)) for n in range(top + 1) for m in range(n + 1)
                           for dn, dm, pair in wrong if 0 <= m + dm <= n + dn)


def _nonnegative(corner: list) -> bool:
    """Whether every coefficient c_ik = Delta_s^i Delta_t^k w(0, 0) of w(s, t) = sum c_ik C(s, i) C(t, k),
    w a polynomial of degree D read on the corner s, t = 0..D (``corner[s][t]``), is >= 0: a certificate
    that w >= 0 at all integers s, t >= 0, where every C(s, i) C(t, k) is."""
    def differences(xs: list) -> list:  # x_0, Delta x_0, ..., Delta^D x_0
        out = []
        while xs:
            out.append(xs[0])
            xs = [y - x for x, y in zip(xs, xs[1:])]
        return out

    return all(c >= 0 for column in zip(*map(differences, corner)) for c in differences(list(column)))


@cache
def _claimed(rule: ActionRule, n_max: int):
    """The rule's irrep claim, w its term's table times its literal, a number: None where it holds, else
    its counterexample (see _derived), or _UNDECIDED where w >= 0 is read up to n_max alone. A diagonal
    rule: w == claim. A ladder rule to (n', m'): w^2 m!(n'-m')! == claim (n-m)! m'!, each side divided
    by the factorials the other shares, decided as in _derived, up to level D + s0 + t0; the claim 0
    where the target leaves the grid (sides 0 and the claim); and w >= 0 at every step onto the grid,
    s = m - s0 >= 0 and t = n - m - t0 >= 0, s0 = max(0, -dm), t0 = max(0, dm - dn): read up to n_max
    (sides w and -w), and for every n where w, a polynomial in (s, t), is certified (_nonnegative)."""
    [(dn, dm, literal, table)], e = rule.terms, rule.terms[0][0] - rule.terms[0][1]
    s0, t0 = max(0, -dm), max(0, -e)
    degree = lambda t: max((i + k for (i, k), _ in t[1]), default=0)
    top = max(2 * degree(table), degree(rule.claim)) + abs(dm) + abs(e) + s0 + t0
    num, den = _literal(literal)[0].as_integer_ratio()
    ws, claims = _levels(table, max(top, n_max)), _levels(rule.claim, top)
    rising = lambda s, d: [prod(range(x + s + 1, x + s + d + 1)) for x in range(top + 1)]  # (x+s+1)...(x+s+d)
    a, b, c, d = rising(dm, -dm), rising(0, e), rising(0, dm), rising(e, -e)

    def sides(n: int, m: int) -> tuple:
        w, claim = num * ws[n][m], claims[n][m]
        if not 0 <= m + dm <= n + dn:
            return 0, claim
        if (dn, dm) == (0, 0):
            return w, claim * den
        left, right = w * w * a[m] * b[n - m], claim * den**2 * c[m] * d[n - m]
        return (w, -w) if left == right and w < 0 and n <= n_max else (left, right)

    signs = ((n, m, w, abs(w)) for n in range(top + 1, n_max + 1 if dn or dm else 0)  # beyond, the sign alone
             for m in range(s0, n + 1 - t0) if (w := num * ws[n][m]) < 0)
    found = _counterexample(chain(((n, m, *sides(n, m)) for n in range(top + 1) for m in range(n + 1)), signs))
    span = range(degree(table) + 1)  # the corner s, t <= D lies within the levels up to top
    corner = [[num * ws[s + t + s0 + t0][s + s0] for t in span] for s in span]
    return found if found or (dn, dm) == (0, 0) or _nonnegative(corner) else _UNDECIDED


# ---------------------------------------------------------------------------
# the image pass of the action suite, once per process at _UNIT
# ---------------------------------------------------------------------------


def _charge_parts(op: DiffOp) -> dict:
    """op split by the charge shift i - j - k + l of its terms w^i zbar^j
    dw^k dzbar^l: shift -> the part, which maps a monomial of charge e - i
    (w^e zbar^i) to monomials of charge e - i + shift."""
    parts: dict = {}
    for key, v in op.nums.items():
        i, j, k, l = key
        parts.setdefault(i - j - k + l, {})[key] = v
    return {shift: DiffOp._normalized(nums, op.den) for shift, nums in parts.items()}


def _off_line(psi: Poly2, n: int, m: int):
    """The largest coefficient magnitude of psi_{n,m} off its line 2m - n; the int 0 if none."""
    off = max((abs(u) for (e, i), u in psi.nums.items() if e - i != 2 * m - n), default=0)
    return Fraction(off, psi.den) if off else 0


def _level(psis: list) -> tuple[Poly2, dict]:
    """Lambda_n, the sum of psi_{n,m}, m = 0..n, over one denominator, and its derivative table."""
    den = lcm(*(psi.den for psi in psis))
    return Poly2._normalized({key: u * (den // psi.den) for psi in psis for key, u in psi.nums.items()},
                             den), {}


def _terms(rule: ActionRule, n_max: int) -> dict:
    """Shift 2dm - dn -> the rule's term (dn, dm, numerator, denominator, levels up to n_max) that
    shifts the charge by that, its literal read at _UNIT."""
    return {2 * dm - dn: (dn, dm, *_scalar(literal, _UNIT).as_integer_ratio(), _levels(table, n_max))
            for dn, dm, literal, table in rule.terms}


def _reads(rule: ActionRule, n_max: int) -> list:
    """(shift, op's part of that charge shift or None, the term of that shift (see _terms, up to level
    n_max) or None) for each shift of op's parts or terms, op's conjugation read at _UNIT (see model)."""
    parts, terms = _charge_parts(model.conjugated(_UNIT, rule.op_name)), _terms(rule, n_max)
    return [(shift, parts.get(shift), terms.get(shift)) for shift in parts.keys() | terms]


class _Line:
    """The record of step m of a level under one charge part: the multipliers a and b of the
    kernel u a - t b, u an image and t a target numerator (a the term's den times psi_{n',m'}.den,
    b its numerator times image.den), the target line psi_{n',m'}.nums or {}, the running maximum."""

    __slots__ = ("a", "b", "target", "worst")

    def __init__(self) -> None:
        self.a, self.b = 1, 0
        self.target, self.worst = {}, 0


def _read_lines(image: Poly2, lines: dict) -> None:
    """Read one image into its records' maxima, charge -> _Line: per line the
    largest magnitude of u a - t b over the line's monomials, u of the image and
    t of the target, as linear_combination then max_magnitude give it, in
    integers. One walk looks each monomial up in its line; a match count finds
    the target monomials the image lacks; a monomial on no line is skipped."""
    inums, matched = image.nums, 0
    for key, u in inums.items():
        line = lines.get(key[0] - key[1])
        if line is None:
            continue
        t = line.target.get(key)
        if t is None:
            v = abs(u * line.a)
        else:
            matched, v = matched + 1, abs(u * line.a - t * line.b)
        if v > line.worst:
            line.worst = v
    if matched < sum(len(line.target) for line in lines.values()):  # a target monomial the image lacks
        for line in lines.values():
            for key in line.target.keys() - inums.keys():
                line.worst = max(line.worst, abs(line.target[key] * line.b))


def _read_level(reads: list, n: int, source: tuple, off: dict, basis: Callable, size: Callable) -> dict:
    """Per step m of level n in ``off`` (m -> its off-line residual), each part's image of ``source``
    (Lambda_n, or psi_{n,n} alone, and its derivative table; see _level) read against one record per
    step (_Line): the residual of op psi_{n,m} against the rule's terms. Each nonzero line maximum over
    |b| T, T = size(n', m') the target's largest numerator, is the line's largest magnitude over |w|
    times the target's largest coefficient, so scale-free; a nonzero residue with no target (off[m], or
    a line without one) reads 1."""
    poly, derivatives = source
    worst = {m: 1 if r else 0 for m, r in off.items()}
    for shift, part, term in reads:
        image = Poly2.zero() if part is None else part.apply_to(poly, derivatives)
        lines = {2 * m - n + shift: _Line() for m in off}
        if term is not None:
            dn, dm, num, den, levels = term
            for m, line in zip(off, lines.values()):
                n2, m2, w = n + dn, m + dm, num * levels[n][m]
                if w and 0 <= m2 <= n2:  # a target to read
                    psi = basis(n2, m2)
                    line.a, line.b, line.target = den * psi.den, w * image.den, psi.nums
        _read_lines(image, lines)
        for m, line in zip(off, lines.values()):  # a Fraction only for a nonzero maximum
            if line.worst:
                r = Fraction(line.worst, abs(line.b) * size(n + dn, m + dm)) if line.target else 1
                worst[m] = max(worst[m], r)
    return worst


def _weyl(ops) -> bool:
    """Whether four operators, in the order of x, y, dx, dy (or of z, zbar, dz, dzbar, or of _BOSONS) keep
    the Weyl relations exactly: [ops[2], ops[0]] = [ops[3], ops[1]] = 1, every other bracket 0."""
    return all(commutator(ops[h], ops[g]).terms == ({(0, 0, 0, 0): 1} if h == g + 2 else {})
               for g in range(4) for h in range(g + 1, 4))


@cache
def _image_pass(rules: tuple, n_max: int) -> tuple:
    """The action check of each of ``rules``, in their order, as (worst, at, how, counterexample), read
    exactly at _UNIT: the boson rules' reads first, up to level n_max + 1, then each rule at the levels
    it reads (see the module docstring). Kept per rules and cutoff: it is every point's."""
    # psi_{n,m} by (n, m), its off-line residual and its largest numerator T:
    # the pass reads each at up to a dozen steps, and from _UNIT's store once
    basis = cache(partial(chain_psi, _UNIT))
    off_line = cache(lambda n, m: _off_line(basis(n, m), n, m))
    size = cache(lambda n, m: max(map(abs, basis(n, m).nums.values()), default=0))
    # the sources a rule reads at level n, each built once for every rule that reads it: the level,
    # or its top function psi_{n,n} alone, each with its derivative table and off-line residuals
    level = cache(lambda n: (_level([basis(n, m) for m in range(n + 1)]),
                             {m: off_line(n, m) for m in range(n + 1)}))
    top = cache(lambda n: ((basis(n, n), {}), {n: off_line(n, n)}))
    plan, derived = [], {}  # (rule, its check, its reads), and whether it is derived
    for rule in rules:
        action, verdict = _Check(rule.rule_id, rule.anchor, EXACT), _derived(rule)
        derived[rule] = verdict is None
        if verdict not in (None, _UNDECIDED):
            action.refute(*verdict)
        plan.append((rule, action, cache(partial(_reads, rule, n_max + 1))))  # at the rule's first read

    def read(entry: tuple, n: int, source: tuple) -> list:
        # the (residual, (n, m)) of each step of source
        return [(r, (n, m)) for m, r in _read_level(entry[2](), n, *source, basis, size).items()]

    # the boson rules' reads: a2+ on every step, a1+ on each level's top function, up to level
    # n_max + 1, and a1- and a2- on psi_00; those at n_max + 1 only decide the reach. a1+ off its
    # top steps, and a1- and a2- past psi_00, need the four bosons, as read, to keep the Weyl relations
    bosons = {entry[0].op_name: entry for entry in plan if entry[0].op_name in _BOSONS}
    fock = (bosons.keys() == set(_BOSONS) and all(derived[rule] for rule, *_ in bosons.values())
            and _weyl([model.conjugated(_UNIT, op) for op in _BOSONS]))
    met = {op: [] for op in bosons}  # the (residual, (n, m)) of each step read, in (n, m) order
    for n in range(n_max + 2 if fock else 0):
        met["a1+"] += read(bosons["a1+"], n, top(n))
        met["a2+"] += read(bosons["a2+"], n, level(n))
    for op in _BOSONS[2:] if fock else ():
        met[op] += read(bosons[op], 0, top(0))
    within = {op: [(r, at) for r, at in steps if at[0] <= n_max] for op, steps in met.items()}
    fock = fock and not any(r for steps in within.values() for r, _ in steps)
    reach = n_max + 2 if fock and not any(r for steps in met.values() for r, _ in steps) else n_max + 1
    for op, steps in within.items() if fock else ():
        action = bosons[op][1]
        for residual, at in steps:
            action.add(residual, at)
        if len({n for _, (n, _) in steps}) <= n_max:  # a level it did not read: a1- and a2- past n = 0
            action.how = "derived"
    # each other rule, or with no Fock module every rule, from its start up; below it each step's
    # image residual is 0
    start = lambda rule: reach + 1 - max(dn for dn, *_ in rule.terms) if fock and derived[rule] else 0
    rest = [entry for entry in plan if not (fock and entry[0].op_name in bosons)]
    for n in range(n_max + 1):
        for entry in rest:
            if n < start(entry[0]):
                entry[1].how = "derived"
                continue
            for residual, at in read(entry, n, level(n)):
                entry[1].add(residual, at)
    return tuple((action.worst, action.at, action.how, action.counterexample) for _, action, _ in plan)


def _action_reports(mode: str, rules: tuple, readings: tuple, seconds: float) -> list[Report]:
    """The action report of each of ``rules`` from its reading (see _image_pass), in ``mode``, the first
    timed with ``seconds``, the pass's time."""
    reports = []
    for rule, reading in zip(rules, readings):
        action = _Check(rule.rule_id, rule.anchor, EXACT)
        action.worst, action.at, action.how, action.counterexample = reading
        action.seconds, seconds = seconds, 0.0
        reports.append(action.report(mode))
    return reports


def check_actions(params: Params, n_max: int = DEFAULT_NMAX) -> list[Report]:
    """Compare op.psi_{n,m} against the asserted expansion for every action
    formula and every 0 <= m <= n <= n_max; one report per formula. A rule
    derived on the Fock module, a1+ below each level's top step and a1- and
    a2- past level 0 among them, reads residual 0 wherever the boson rules
    reach, up to level n_max + 2 (see the module docstring)."""
    return run_suites(params, ("actions",), n_max)


# ---------------------------------------------------------------------------
# the irrep suite: each report its rule's action check, its claim proven or refuted
# ---------------------------------------------------------------------------


def _offset(x: Fraction) -> str:
    return f"{'+' if x > 0 else '-'}{abs(x)}" if x else ""


def _irrep_checks(mode: str, rule: ActionRule) -> list[_Check]:
    """The check of each report of a rule's irrep claim, in report order, each
    anchored on the claim and the action term's shift. Each verdict is
    exact; a FLOAT check only shows its residual in floats."""
    (dn, dm, *_), rule_id, op = rule.terms[0], f"irrep.{rule.op_name}", rule.op_name
    if (dn, dm) == (0, 0):
        claim = rule.irrep if rule.irrep.isidentifier() else f"({rule.irrep})"
        return [_Check(rule_id, f"{op} phi = {claim} phi", mode)]
    anchor = f"{op} phi = sqrt({rule.irrep}) phi[j{_offset(Fraction(dn, 2))},mu{_offset(dm - Fraction(dn, 2))}]"
    squared = [_Check(f"{rule_id}.sq", f"{anchor} (squared values)", EXACT)]
    return (squared if mode == EXACT else []) + [
        _Check(f"{rule_id}.float", f"{anchor} (in floats, relative residual)", FLOAT)]


def _irrep_reports(mode: str, rules: tuple, readings: tuple, n_max: int, seconds: float) -> list[Report]:
    """The reports of the claims of ``rules`` (see _irrep_checks), each its rule's reading in ``readings``
    (see _image_pass), proven, read or refuted by ``_claimed``. The proof is timed
    into the rule's first irrep report, and ``seconds``, the pass's time, into the first of all."""
    reports = []
    for rule, (worst, at, *_) in zip(rules, readings):
        if rule.claim is None:
            continue
        checks = _irrep_checks(mode, rule)
        with checks[0]:
            verdict = _claimed(rule, n_max)
        checks[0].seconds, seconds = checks[0].seconds + seconds, 0.0
        for check in checks:
            check.add(worst, at)
            if verdict is None:
                check.how = "proven"
            elif verdict != _UNDECIDED:
                check.refute(*verdict)
        reports += [check.report() for check in checks]
    return reports


def check_irrep(params: Params, n_max: int = DEFAULT_NMAX) -> list[Report]:
    """su(2)/superalgebra coefficients on phi, in the order of ACTION_RULES: a diagonal rule's report, or
    a ladder rule's exact squared-value report (exact mode only) and its direct report, shown in floats,
    each its rule's action report (see check_actions), failed by the claim's counterexample where it is
    refuted."""
    return run_suites(params, ("irrep",), n_max)


# ---------------------------------------------------------------------------
# pseudo-Hermiticity and explicit-form suites
# ---------------------------------------------------------------------------


def check_pseudo_hermiticity(params: Params) -> Report:
    """swap_vars(H) == adjoint(H) at the point's twin: H is Hermitian up to the z <-> zbar swap."""
    check = _Check("pseudo.H", "swap_vars(H) == adjoint(H)", EXACT)
    with check:
        ham = make_operator(params, "H")
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
    return Poly2(terms)


def check_integrals(params: Params, n_max: int = INTEGRALS_NMAX) -> list[Report]:
    """Biorthogonality (gram blocks are anti-diagonal identities), Jordan form
    of the pairing with H, ground norm, truncated resolution of identity, and
    the exact-vs-quadrature cross-check (skipped with a note when a <= b).
    The four pairing claims are exact checks at the point's twin; the oracle
    reads the basis of the twin dilated to (p/2^j, q/2^j), p q/4^j in (1/4, 2)
    so that its floats stay in range, in both modes, against the twin's
    pairing, which has weight 0, so is the same at both."""
    _check_nmax(n_max)
    twin, span = params.twin, min(n_max, RESOLUTION_DEGREE)
    pq = twin.p * twin.q
    j = (pq.numerator.bit_length() - pq.denominator.bit_length() + 1) // 2
    near = Params.exact(twin.p / Fraction(2) ** j, twin.q / Fraction(2) ** j) if j else twin
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
    relations: Iterable[RelationSpec] | None = None,
) -> list[Report]:
    """Reports of the given suites, suite by suite in the given order; the action and irrep suites read
    the one image pass (see _image_pass), timed into the first report that waits on it, and the structure
    suite checks ``relations`` (default: the shipped catalog)."""
    suites = tuple(suites)
    check_suites(suites)
    _check_nmax(n_max)
    rules = tuple(ACTION_RULES) if "actions" in suites or "irrep" in suites else ()
    start = time.perf_counter()
    readings = _image_pass(rules, n_max)
    seconds = time.perf_counter() - start
    cutoffs = suite_cutoffs(suites, n_max)
    reports: list[Report] = []
    for suite in suites:
        if suite == "structure":
            reports += check_structure(params, relations)
            reports += check_explicit_forms(params)
        elif suite == "actions":
            reports += _action_reports(params.mode, rules, readings, seconds)
            seconds = 0.0
        elif suite == "irrep":
            reports += _irrep_reports(params.mode, rules, readings, n_max, seconds)
            seconds = 0.0
        elif suite == "pseudo":
            reports.append(check_pseudo_hermiticity(params))
        else:
            reports += check_integrals(params, cutoffs[suite])
    return reports
