"""Model layer: parameters, basis functions, and the operator catalog.

The model is the 2D oscillator in the variables z, zbar

    H = -4 dz dzbar + 4 a^2 z zbar + 8 a b zbar^2,        a > 0, b > 0,

whose eigenvalue problem is solved by functions of the form

    function = kappa * P(z, zbar) * exp(-a z zbar - b zbar^2),
    kappa    = sqrt(2a / pi).

A basis function is the ``Poly2`` P: kappa and the envelope are implied by
the parameter point and never materialized. H has eigenvalues E_n = 4a(n+1);
each level carries an (n+1)-dimensional Jordan block spanned by functions
psi_{n,m} (0 <= m <= n) obeying (H - E_n) psi_{n,m} = psi_{n,m-1}.

Two coordinate systems carry basis functions. The chain variables (w, zbar),
w = a z + b zbar, are where psi_{n,m} has one closed form, a Laguerre
polynomial in 2 w zbar as for the two-dimensional real oscillator, graded by
(pq)^(n-2m) (see ``chain_psi``), and the envelope is exp(-w zbar).
``conjugate_through_envelope`` returns operators in (w, zbar), and ``apply``
acts on chain forms, so neither the image pass nor the pairing (see gaussint)
expands a power of w. ``from_chain`` writes a chain form in (z, zbar), where
the quadrature oracle and the printed output live; ``build_psi`` is
``from_chain`` of ``chain_psi``.

The operator catalog is text. Each catalog operator (``DEFINITIONS``) and
each explicit form (``EXPLICIT_FORMS``) is one expression of the prefix
grammar the relation catalog uses too (``parse_expression``): the generators
z, zbar, dz, dzbar, scalar literals c*f^k*... (f one of a, b, ab, p, q),
operator names, and neg, smul, add, sub, mul, comm, acomm. ``make_operator``
evaluates a definition at a point, reading the operators it names from the
point's store; ``explicit_form`` evaluates a form, which names no catalog
operator. The weight of a tree under the scaling automorphism sigma_P (see
verifier) is derived from the trees (``_weight``), never declared. The
tables are read-only, so an edit in place raises rather than go unseen by
the weights and proofs kept per process.

At an exact point a = p^2, b = q^2 for positive rationals p, q, so sqrt(ab),
sqrt(a/b) and sqrt(b/a) are rational and every coefficient is a ``Fraction``.
A float point is its dyadic twin (``Params.twin``, the same p, q read as
rationals): every basis function, operator, form, conjugation and energy at
a float point is its twin's, exact, so the twin decides its identities too
(see verifier). Floats are left to the edges, where a value is printed (cli,
verifier's residuals) or integrated by quadrature (gaussint's oracle).

Polynomials and operators store integer numerators over one denominator (see
weyl), which ``chain_psi``, ``from_chain`` and ``conjugate_through_envelope``
build directly. Every basis function psi, operator and catalog conjugation
(``conjugated``, read by ``apply`` and by the image pass) of a point lives in
one store per point (``point_cache``), kept for the last few points only; phi
is not stored; a float point shares its twin's store. A ``Params`` computes
its hash, twin and scalar views once.
"""

from __future__ import annotations

import math
import operator
import re
from collections import defaultdict
from fractions import Fraction
from functools import cache, cached_property, lru_cache, wraps
from math import comb, factorial
from types import MappingProxyType

from .weyl import DiffOp, Poly2, anticommutator, commutator, lift, to_ints

#: the two kinds of parameter point: exact (p, q Fractions) and float (p, q floats, read as their twin)
EXACT = "exact"
FLOAT = "float"

#: the definition of each catalog operator in the prefix grammar (see
#: parse_expression); D+21/D-21 are accepted as aliases. H, A+/-, B+/- are
#: written in the generators z, zbar, dz, dzbar, every composite name (R, S,
#: T, U, the gl(2) and boson generators, E_ij, D+/-_ij) in those by products
#: and linear combinations, never hand-expanded. Read-only, as are EXPLICIT_FORMS,
#: GENERATORS and _FACTORS: the weights and proofs drawn from them are kept per
#: process, where an edit in place would go unseen
DEFINITIONS = MappingProxyType({
    "H": "add add smul -4 mul dz dzbar smul 4*a^2 mul z zbar smul 8*ab mul zbar zbar",
    "A+": "add dz smul -1*a zbar",
    "A-": "add dz smul 1*a zbar",
    "B+": "add add dzbar smul -1*a z smul -2*b zbar",
    "B-": "add add dzbar smul 1*a z smul 2*b zbar",
    "R": "mul A+ A-",
    "S": "mul B+ B-",
    "T": "sub mul A+ B- mul B+ A-",
    "U": "add mul A+ B- mul B+ A-",
    "J0": "smul 1/4*a^-1 T",
    "J+": "smul -1/16*a^-1*b^-1 sub add S smul 1*a^-2*b^2 R smul 1*a^-1*b U",
    "J-": "smul -4*a^-1*b R",
    "K": "smul 1/2*a^-1 add sub smul 2*a^-1*b R U 2*a",
    "a1+": "smul 1/4*p^-3*q^-1 sub smul 1*b A+ smul 1*a B+",
    "a1-": "smul 2*q*p^-1 A-",
    "a2+": "smul -2*q*p^-1 A+",
    "a2-": "smul -1/4*p^-3*q^-1 sub smul 1*b A- smul 1*a B-",
    # E_ij = (1/2){a_i+, a_j-}, D+/-_ij = (1/2){a_i+/-, a_j+/-}
    "E11": "smul 1/2 acomm a1+ a1-",
    "E12": "smul 1/2 acomm a1+ a2-",
    "E21": "smul 1/2 acomm a2+ a1-",
    "E22": "smul 1/2 acomm a2+ a2-",
    "D+11": "smul 1/2 acomm a1+ a1+",
    "D+12": "smul 1/2 acomm a1+ a2+",
    "D+22": "smul 1/2 acomm a2+ a2+",
    "D-11": "smul 1/2 acomm a1- a1-",
    "D-12": "smul 1/2 acomm a1- a2-",
    "D-22": "smul 1/2 acomm a2- a2-",
})
CATALOG_NAMES = tuple(DEFINITIONS)

# first-order pieces of the explicit forms: X = b dz - a dzbar, and
# W = a z + b zbar as a multiplication operator (X and W commute)
_X = "sub smul 1*b dz smul 1*a dzbar"
_W = "add smul 1*a z smul 1*b zbar"

#: the independently transcribed explicit z/zbar form of the 14 superalgebra
#: generators, in the generators only: no form names a catalog operator, so
#: agreement with the catalog is a genuine cross-check
EXPLICIT_FORMS = MappingProxyType({
    "a1+": f"smul 1/4*p^-3*q^-1 add {_X} smul 1*a {_W}",
    "a1-": "smul 2*q*p^-1 add dz smul 1*a zbar",
    "a2+": "smul -2*q*p^-1 add dz smul -1*a zbar",
    "a2-": f"smul -1/4*p^-3*q^-1 sub {_X} smul 1*a {_W}",
    "J0": "smul 1/2*a^-1 add add smul 1*a mul z dz smul 2*b mul zbar dz smul -1*a mul zbar dzbar",
    "J+": f"smul -1/16*a^-3*b^-1 sub mul {_X} {_X} smul 1*a^2 mul {_W} {_W}",
    "J-": "smul -4*a^-1*b sub mul dz dz smul 1*a^2 mul zbar zbar",
    "K": "smul 1*a^-2 add add add smul 1*b mul dz dz smul -1*a mul dz dzbar"
         " smul 1*a^3 mul z zbar smul 1*a^2*b mul zbar zbar",
    "D+11": f"smul 1/16*a^-3*b^-1 add add mul {_X} {_X} smul 2*a mul {_W} {_X} smul 1*a^2 mul {_W} {_W}",
    "D+12": "smul -1/2*a^-2 add add add add add add smul 1*b mul dz dz smul -1*a mul dz dzbar"
            " smul 1*a^2 mul z dz smul 1*a^2 mul zbar dzbar smul -1*a^3 mul z zbar smul -1*a^2*b mul zbar zbar"
            " 1*a^2",
    "D+22": "smul 4*a^-1*b add add mul dz dz smul -2*a mul zbar dz smul 1*a^2 mul zbar zbar",
    "D-11": "smul 4*a^-1*b add add mul dz dz smul 2*a mul zbar dz smul 1*a^2 mul zbar zbar",
    "D-12": "smul -1/2*a^-2 add add add add add add smul 1*b mul dz dz smul -1*a mul dz dzbar"
            " smul -1*a^2 mul z dz smul -1*a^2 mul zbar dzbar smul -1*a^3 mul z zbar smul -1*a^2*b mul zbar zbar"
            " -1*a^2",
    "D-22": f"smul 1/16*a^-3*b^-1 add add mul {_X} {_X} smul -2*a mul {_W} {_X} smul 1*a^2 mul {_W} {_W}",
})
EXPLICIT_NAMES = tuple(EXPLICIT_FORMS)

_ALIASES = {"D+21": "D+12", "D-21": "D-12"}


class Params:
    """Model parameters, stored through their square roots p = sqrt(a), q = sqrt(b): Fractions at an
    exact point (a float is refused, TypeError), floats at a float point; two points are equal, and hash
    alike, when their mode, p and q are."""

    def __init__(self, mode: str, p, q) -> None:
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, not {mode!r}")
        if mode == FLOAT and not all(isinstance(x, (int, float, Fraction)) for x in (p, q)):
            raise TypeError(f"cannot read {p!r}, {q!r} as float parameters")
        # read once, so that every view of them has one type
        self.mode, self.p, self.q = mode, *((lift(p), lift(q)) if mode == EXACT else (float(p), float(q)))
        if mode == FLOAT and not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("parameters must be finite")
        if not (self.p > 0 and self.q > 0):
            raise ValueError("parameters require a > 0 and b > 0")
        # every per-point cache lookup hashes the point, so hash it once; the
        # mode enters as a bool, not a str, so the hash survives pickling
        self._hash = hash((mode == EXACT, self.p, self.q))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mode, self.p, self.q) == (other.mode, other.p, other.q)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Params(mode={self.mode!r}, p={self.p!r}, q={self.q!r})"

    # ---- constructors ----
    @staticmethod
    def exact(p: int | str | Fraction, q: int | str | Fraction) -> "Params":
        return Params(EXACT, Fraction(p), Fraction(q))

    @staticmethod
    def from_ab(a: float, b: float) -> "Params":
        if not (a > 0 and b > 0):
            raise ValueError("parameters require a > 0 and b > 0")
        return Params(FLOAT, math.sqrt(a), math.sqrt(b))

    @staticmethod
    def from_frequencies(omega1: float, omega2: float) -> "Params":
        """Float-mode parameters of the nonseparable oscillator with the given
        frequencies; requires omega1 > omega2 > 0 so the coupling is positive."""
        if not (omega1 > omega2 > 0):
            raise ValueError("need omega1 > omega2 > 0 for the nonseparable branch")
        lam = math.sqrt((omega1**2 + omega2**2) / 2)
        g = (omega1**2 - omega2**2) / 2
        return Params.from_ab(lam / 2, g / (4 * lam))

    @cached_property
    def twin(self) -> "Params":
        """The same p, q read as Fractions (a finite float is a dyadic rational); an exact point itself.
        Every basis function, operator and scalar the model builds at a float point is its twin's."""
        return self if self.mode == EXACT else Params.exact(self.p, self.q)

    # ---- scalar views, in the type of p and q, each computed on first read and kept ----
    @cached_property
    def a(self) -> Fraction | float:
        return self.p * self.p

    @cached_property
    def b(self) -> Fraction | float:
        return self.q * self.q

    @cached_property
    def sqrt_ab(self) -> Fraction | float:
        return self.p * self.q


# ---------------------------------------------------------------------------
# the per-point store
# ---------------------------------------------------------------------------

# params -> the store of that point; the oldest point is dropped first
_POINTS: dict = {}
_POINTS_MAX = 4


def point_cache(params: Params) -> dict:
    """The store of everything fixed once the parameter point is: basis
    functions, operators and the quadrature grids (see gaussint); a float
    point's is its twin's. Only the last few points keep a store, so memory
    stays bounded over a sweep of points."""
    params = params.twin
    cache = _POINTS.get(params)
    if cache is None:
        if len(_POINTS) >= _POINTS_MAX:
            del _POINTS[next(iter(_POINTS))]
        cache = _POINTS[params] = {}
    return cache


def _per_point(fn):
    """fn(params.twin, *args), kept in the store of the twin."""

    @wraps(fn)
    def cached(params: Params, *args):
        params, key = params.twin, (fn, *args)
        try:
            return _POINTS[params][key]
        except KeyError:
            pass
        value = point_cache(params)[key] = fn(params, *args)
        return value

    return cached


# ---------------------------------------------------------------------------
# basis functions
# ---------------------------------------------------------------------------


def _check_index(n: int, m: int) -> None:
    if not (isinstance(n, int) and isinstance(m, int) and 0 <= m <= n):
        raise ValueError(f"need integers 0 <= m <= n, got n={n!r}, m={m!r}")


def from_chain(params: Params, g: Poly2) -> Poly2:
    """The polynomial g(w, zbar), w = a z + b zbar, written in (z, zbar) at the point's twin.

    Each w^e zbar^i expands binomially into C(e,t) a^t b^(e-t) z^t zbar^(i+e-t),
    summed as integers over g's denominator times d^E, with a = A/d and
    b = B/d over one denominator d and E the largest power of w. The
    numerators C(e,t) A^t B^(e-t) of w^e come row by row from Pascal's rule.
    """
    top = max((e for e, _ in g.nums), default=0)
    if not top:
        return g  # no power of w: the same polynomial in both coordinates
    twin = params.twin
    (a, b), d = to_ints([twin.a, twin.b])
    rows = [[1]]
    while len(rows) <= top:
        last = rows[-1]
        rows.append([b * last[0], *(a * x + b * y for x, y in zip(last, last[1:])), a * last[-1]])
    sums: dict = defaultdict(int)
    for (e, i), u in g.nums.items():
        weight, degree = u * d ** (top - e), i + e
        for t, c in enumerate(rows[e]):
            sums[t, degree - t] += weight * c
    return Poly2._normalized(sums, g.den * d**top)


@_per_point
def chain_psi(params: Params, n: int, m: int) -> Poly2:
    """Basis function psi_{n,m} in the chain variables (w, zbar), for every
    0 <= m <= n, from one closed form: the coefficient of zbar^i w^e is

        (-1)^(n-m) (2pq)^(n-2m) (-2)^i C(n-m, i) / e!,    e = i - (n-2m) >= 0,

    one term per i from max(0, n-2m) to n-m, at most min(m, n-m) + 1 of them,
    summed as integers over m! times the denominator of (2pq)^(n-2m), which
    is built in ints. The integer
    c_i = (-2)^i C(k, i) m!/e!, k = n-m, comes from the one before it by the
    recurrence

        c_{i+1} = c_i (-2)(k-i) / ((i+1)(i+1-(n-2m))),

    an exact division, so no term builds a binomial or a factorial of its own,
    and each coefficient is the closed form's, bit for bit. For n >= 2m this reads

        psi_{n,m} = (-1)^(n-m) (-4pq)^(n-2m) zbar^(n-2m) L_m^(n-2m)(2 w zbar),

    with L the associated Laguerre polynomial, as for the two-dimensional
    real oscillator; the head psi_{n,0} is (4pq)^n zbar^n. The point enters
    only through (pq)^(n-2m), psi_{n,m}'s grading (``_psi_weight``). It
    equals the paper's associated-function sum, whose n! and (8ab)^n cancel
    (tests/reference_forms.py)."""
    _check_index(n, m)
    k, shift = n - m, n - 2 * m  # e = i - shift
    # (2pq)^shift is (num/den)^|shift|, reduced with the sums
    num, den = params.sqrt_ab.as_integer_ratio()
    num, den = (2 * num, den) if shift >= 0 else (den, 2 * num)
    lead, den = (-1) ** k * num ** abs(shift), den ** abs(shift) * factorial(m)
    i = max(0, shift)
    c = (-2) ** i * comb(k, i) * (factorial(m) // factorial(i - shift))
    sums = {(i - shift, i): lead * c}
    for i in range(i, k):
        c = c * -2 * (k - i) // ((i + 1) * (i + 1 - shift))
        sums[i + 1 - shift, i + 1] = lead * c
    return Poly2._normalized(sums, den)


@_per_point
def build_psi(params: Params, n: int, m: int) -> Poly2:
    """Basis function psi_{n,m} in (z, zbar), for the oracle and for printing: ``from_chain`` of ``chain_psi``."""
    return from_chain(params, chain_psi(params, n, m))


def build_phi(params: Params, n: int, m: int) -> dict:
    """The su(2)-normalized function phi = sqrt(m!/(n-m)!) psi_{n,m}, j = n/2, mu = m - n/2, in the
    chain variables (w, zbar): key -> its coefficient in floats, the square root of the exact
    c^2 m!/(n-m)! read in floats, signed as c (the square root is irrational in general). No package
    code calls it; the benchmark traces it by name."""
    scale = Fraction(factorial(m), factorial(n - m))
    return {key: math.copysign(math.sqrt(c * c * scale), c) for key, c in chain_psi(params, n, m).terms.items()}


def energy(params: Params, n: int) -> Fraction:
    """Level-n eigenvalue E_n = 4a(n+1), at the point's twin."""
    return 4 * (n + 1) * params.twin.a


# ---------------------------------------------------------------------------
# operator catalog
# ---------------------------------------------------------------------------


def canonical_name(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown operator {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    return name


@_per_point
def make_operator(params: Params, name: str) -> DiffOp:
    """Catalog operator by name: its definition evaluated at the point, every
    operator the definition names read from a store. Unknown names raise ValueError."""
    return eval_expression(canonical_name(name), params)


def explicit_form(params: Params, name: str) -> DiffOp:
    """The explicit z/zbar form of one of the 14 superalgebra generators,
    evaluated at the point."""
    if name not in EXPLICIT_FORMS:
        raise ValueError(f"no explicit form for {name!r}; available: {', '.join(EXPLICIT_NAMES)}")
    return eval_expression(EXPLICIT_FORMS[name], params)


# ---------------------------------------------------------------------------
# the prefix grammar of definitions and relations
# ---------------------------------------------------------------------------

#: the generators of the Weyl algebra, the same at every point: each one's key
#: and its weight (alpha, beta) under the scaling automorphism sigma_P,
#: z -> lambda z, zbar -> mu zbar, dz -> dz / lambda, dzbar -> dzbar / mu with
#: lambda = q/a, mu = 1/q
GENERATORS = MappingProxyType({"z": ((1, 0, 0, 0), (-2, 1)), "zbar": ((0, 1, 0, 0), (0, -1)),
                               "dz": ((0, 0, 1, 0), (2, -1)), "dzbar": ((0, 0, 0, 1), (0, 1))})
#: the factors f of a scalar literal c*f^k*..., ab being a times b, each with
#: its weight (a = p^2, b = q^2); c is a rational, k an integer (1 if left out)
_FACTORS = MappingProxyType({"a": (2, 0), "b": (0, 2), "p": (1, 0), "q": (0, 1)})
_FACTOR = re.compile(r"\*(ab|[abpq])(?:\^([+-]?\d+))?")
_SCALAR_TOKEN = re.compile(rf"[+-]?\d+(?:/0*[1-9]\d*)?(?:{_FACTOR.pattern})*")
#: the binary operations of the prefix grammar
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "comm": commutator, "acomm": anticommutator}
#: the weight of an expression that is zero at every point, which has every weight
_ANY_WEIGHT = "any"


def _parse_prefix(tokens: list[str], pos: int) -> tuple:
    """(tree, next position) of the expression at tokens[pos]: a generator,
    an operator name, a scalar literal, or (operation, *arguments), smul's
    scalar a literal."""
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "neg":
        arg, pos = _parse_prefix(tokens, pos + 1)
        return (tok, arg), pos
    if tok in _BINARY:
        left, pos = _parse_prefix(tokens, pos + 1)
        right, pos = _parse_prefix(tokens, pos)
        return (tok, left, right), pos
    if tok == "smul":
        if pos + 1 >= len(tokens) or not _SCALAR_TOKEN.fullmatch(tokens[pos + 1]):
            raise ValueError("smul needs a scalar literal c*f^k*...: c a rational with a nonzero denominator, "
                             "each f one of a, b, ab, p, q and k an integer")
        arg, end = _parse_prefix(tokens, pos + 2)
        return (tok, tokens[pos + 1], arg), end
    if tok not in GENERATORS and not _SCALAR_TOKEN.fullmatch(tok):
        canonical_name(tok)  # an unknown name or a bad literal stops here
    return tok, pos + 1


@lru_cache(maxsize=1024)
def parse_expression(expr: str) -> tuple | str:
    """The tree of one prefix expression; ValueError if it is not exactly one.
    A tree is nested tuples and strings, so the recent ones are kept and
    shared: a definition or a catalog side is parsed once, though it is
    evaluated at every point."""
    tokens = expr.split()
    tree, pos = _parse_prefix(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in expression {expr!r}")
    return tree


@cache
def _literal(token: str) -> tuple[Fraction, tuple]:
    """(c, ((f, k), ...)) of a scalar literal, ab read as a, then b."""
    return Fraction(token.split("*", 1)[0]), tuple(
        (view, int(k or 1)) for factor, k in _FACTOR.findall(token) for view in factor)


def _scalar(token: str, params: Params) -> Fraction:
    value, factors = _literal(token)
    for view, k in factors:
        value = value * getattr(params, view) ** k
    return value


def _generators(params: Params) -> tuple[DiffOp, ...]:
    """The images of z, zbar, dz, dzbar in the chart every definition and form is written in: themselves."""
    return tuple(DiffOp.monomial(key, 1) for key, _ in GENERATORS.values())


def _evaluate(params: Params, generators, tree) -> DiffOp:
    """The value of a tree at the point's twin, z, zbar, dz, dzbar read as their images ``generators(params)``
    (see substitute), an operator name as its definition's value. Each subtree below the root, a named
    definition included, is kept in the point's store (``_subtree``), so one that recurs is built once there."""
    if isinstance(tree, str):  # a generator, an operator name or a scalar literal
        if tree in GENERATORS:
            return generators(params)[tuple(GENERATORS).index(tree)]
        if tree in DEFINITIONS or tree in _ALIASES:
            return _subtree(params, generators, parse_expression(DEFINITIONS[canonical_name(tree)]))
        return DiffOp.constant(_scalar(tree, params))
    tok, *args = tree
    if tok == "neg":
        return -_subtree(params, generators, args[0])
    if tok == "smul":
        return _subtree(params, generators, args[1]).scale(_scalar(args[0], params))
    return _BINARY[tok](_subtree(params, generators, args[0]), _subtree(params, generators, args[1]))


# X in mul X X, or a subtree shared by several forms and relations, is
# evaluated once per point and chart; a root is not kept
_subtree = _per_point(_evaluate)


def eval_expression(expr: str, params: Params, generators=_generators) -> DiffOp:
    """expr at the point's twin, with z, zbar, dz, dzbar read as ``generators(params)``."""
    return _evaluate(params.twin, generators, parse_expression(expr))


@cache
def _token_weight(token: str):
    if token in GENERATORS:
        return GENERATORS[token][1]
    if token in DEFINITIONS or token in _ALIASES:  # an operator: the weight of its definition
        return _weight(parse_expression(DEFINITIONS[canonical_name(token)]))
    c, factors = _literal(token)
    if not c:
        return _ANY_WEIGHT
    return (sum(k * _FACTORS[view][0] for view, k in factors),
            sum(k * _FACTORS[view][1] for view, k in factors))


def _psi_weight(n: int, m: int) -> tuple[int, int]:
    """psi_{n,m}'s weight under sigma_P (w -> q w, zbar -> zbar/q), as _weight gives an operator's: its term
    w^e zbar^i at P is (pq)^(i-e) times the term at p = q = 1, and i - e = n - 2m."""
    return n - 2 * m, 0


def _weight(tree):
    """The weight (alpha, beta) of an expression tree under sigma_P, derived
    from the generators' and factors' weights and, for an operator name, from
    its definition: sigma_P(tree at P) = p^alpha q^beta (tree at p = q = 1).
    _ANY_WEIGHT for a zero literal or product; None if the two sides of an
    add or sub, the definitions included, differ in weight."""
    if isinstance(tree, str):
        return _token_weight(tree)
    tok, *args = tree
    weights = [_weight(arg) for arg in args]  # smul's scalar literal included
    if None in weights:
        return None
    if tok == "neg":
        return weights[0]
    if tok in ("add", "sub"):
        left, right = weights
        return right if left == _ANY_WEIGHT else left if right in (_ANY_WEIGHT, left) else None
    if _ANY_WEIGHT in weights:
        return _ANY_WEIGHT
    (a1, b1), (a2, b2) = weights
    return a1 + a2, b1 + b2


# ---------------------------------------------------------------------------
# envelope-conjugated application
# ---------------------------------------------------------------------------


@_per_point
def _chain_generators(params: Params) -> tuple[DiffOp, ...]:
    # the images of z, zbar, dz and dzbar under conjugation through the
    # envelope, in the chain variables (w, zbar), where the envelope is
    # exp(-w zbar): z -> (w - b zbar)/a, zbar -> zbar, dz -> a (dw - zbar),
    # dzbar -> b dw + dzbar - w - b zbar; the two derivative images commute
    a, b = params.a, params.b
    mono = DiffOp.monomial
    return (
        mono((1, 0, 0, 0), 1 / a) + mono((0, 1, 0, 0), -b / a),
        mono((0, 1, 0, 0), 1),
        mono((0, 0, 1, 0), a) + mono((0, 1, 0, 0), -a),
        mono((0, 0, 1, 0), b) + mono((0, 0, 0, 1), 1) + mono((1, 0, 0, 0), -1) + mono((0, 1, 0, 0), -b),
    )


def substitute(params: Params, generators, op: DiffOp) -> DiffOp:
    """op with z, zbar, dz, dzbar replaced by their images ``generators(params)``, four exact DiffOps: each
    term z^i zbar^j dz^k dzbar^l by the product of the images' powers in that order, kept in the point's
    store. A homomorphism of the Weyl algebra where the images keep its relations, as the envelope's do."""
    return DiffOp.linear_combination((
        (Fraction(v, op.den), _monomial_image(params, generators, key)) for key, v in op.nums.items()))


@_per_point
def _monomial_image(params: Params, generators, key: tuple) -> DiffOp:
    # the image of the monomial with its last factor taken off, times that
    # factor's image: each product is built once per point and chart
    if not any(key):
        return DiffOp.identity()
    last = max(g for g, e in enumerate(key) if e)
    rest = (*key[:last], key[last] - 1, *key[last + 1:])
    return _monomial_image(params, generators, rest) * generators(params)[last]


def conjugate_through_envelope(params: Params, op: DiffOp) -> DiffOp:
    """exp(a z zbar + b zbar^2) . op . exp(-a z zbar - b zbar^2) as a DiffOp in
    the chain variables (w, zbar), w = a z + b zbar: its keys (i, j, k, l) read
    w^i zbar^j dw^k dzbar^l, and it acts on a basis function's chain form. At the point's twin."""
    return substitute(params.twin, _chain_generators, op)


@_per_point
def conjugated(params: Params, name: str) -> DiffOp:
    """The envelope conjugation of catalog operator ``name``."""
    return conjugate_through_envelope(params, make_operator(params, name))


def apply(params: Params, op: str | DiffOp, fn: Poly2) -> Poly2:
    """Act with an operator, a catalog name (conjugated once per point, see
    conjugated) or any DiffOp (conjugated anew), on the
    basis function whose chain form is fn (see chain_psi); the image is in
    chain form too. The envelope is never materialized: the conjugated
    operator, in (w, zbar), acts on fn."""
    return (conjugated(params, op) if isinstance(op, str) else conjugate_through_envelope(params, op)).apply_to(fn)
