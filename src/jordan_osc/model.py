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
w = a z + b zbar, are where the paper writes psi_{n,m}: ``chain_psi`` has one
term per term of that sum, and the envelope is exp(-w zbar).
``conjugate_through_envelope`` returns operators in (w, zbar), and ``apply``
acts on chain forms, so neither the image pass nor the pairing (see gaussint)
expands a power of w. ``from_chain`` writes a chain form in (z, zbar), where
the quadrature oracle and the printed output live; ``build_psi`` is
``from_chain`` of ``chain_psi``.

Exactness strategy: in exact mode the parameters are a = p^2, b = q^2 for
positive rationals p, q, so sqrt(ab) = p q, sqrt(a/b) = p/q and sqrt(b/a) = q/p
are rational and all ladder/action coefficients are plain ``Fraction``s; in
float mode every coefficient is a ``float``. Either way p, q and every view of
them (a, b, sqrt_ab, ...) already are coefficients of the mode, so they enter
products directly; ``Params.s`` lifts a literal into the mode.

Polynomials and operators store integer numerators over one denominator (see
weyl), which ``chain_psi``, ``from_chain`` and ``conjugate_through_envelope``
build directly. Every basis function psi, operator and catalog conjugation
(``conjugated``, read by ``apply``) of a point lives in one store per point
(``point_cache``), kept for the last few points only; phi is not stored. A
float point's conjugations are rounded once from the exact ones at its dyadic
twin, the same point read as rationals. A ``Params`` computes its hash and
scalar views once. An exact run builds nothing in floats (see verifier).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import comb, factorial

from .weyl import (
    EXACT,
    FLOAT,
    Coeff,
    DiffOp,
    ModeMismatchError,
    Poly2,
    anticommutator,
    join_modes,
    lift,
    to_ints,
)

#: every name make_operator accepts (D+21/D-21 are accepted as aliases)
CATALOG_NAMES = (
    "H", "A+", "A-", "B+", "B-",
    "R", "S", "T", "U",
    "J0", "J+", "J-", "K",
    "a1+", "a1-", "a2+", "a2-",
    "E11", "E12", "E21", "E22",
    "D+11", "D+12", "D+22", "D-11", "D-12", "D-22",
)

#: generators with an independently transcribed explicit z/zbar form
EXPLICIT_NAMES = (
    "a1+", "a1-", "a2+", "a2-",
    "J0", "J+", "J-", "K",
    "D+11", "D+12", "D+22", "D-11", "D-12", "D-22",
)

#: the weight (alpha, beta) of each catalog operator X under the scaling
#: automorphism sigma_P of the Weyl algebra, z -> lambda z, zbar -> mu zbar,
#: dz -> dz / lambda, dzbar -> dzbar / mu with lambda = q/a, mu = 1/q:
#: sigma_P(X at P) = p^alpha q^beta (X at p = q = 1). Claims, which the
#: structure suite checks at every point where it relies on them (see verifier)
OPERATOR_WEIGHTS = {
    **dict.fromkeys(("H", "T", "U", "J-", "E21", "D+22", "D-11"), (2, 0)),
    **dict.fromkeys(("A+", "A-"), (2, -1)),
    **dict.fromkeys(("B+", "B-"), (0, 1)),
    "R": (4, -2),
    "S": (0, 2),
    **dict.fromkeys(("J0", "K", "E11", "E22", "D+12", "D-12"), (0, 0)),
    **dict.fromkeys(("J+", "E12", "D+11", "D-22"), (-2, 0)),
    **dict.fromkeys(("a1+", "a2-"), (-1, 0)),
    **dict.fromkeys(("a1-", "a2+"), (1, 0)),
}

_ALIASES = {"D+21": "D+12", "D-21": "D-12"}


@dataclass(frozen=True)
class Params:
    """Model parameters, stored through their square roots p = sqrt(a), q = sqrt(b)."""

    mode: str
    p: Coeff
    q: Coeff

    def __post_init__(self):
        for name in ("p", "q"):  # so that every view of them is a coefficient
            object.__setattr__(self, name, lift(getattr(self, name), self.mode))
        if self.mode == FLOAT and not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("parameters must be finite")
        if not (self.p > 0 and self.q > 0):
            raise ValueError("parameters require a > 0 and b > 0")
        # every per-point cache lookup hashes the point, so hash it once; the
        # mode enters as a bool, not a str, so the hash survives pickling
        object.__setattr__(self, "_hash", hash((self.mode == EXACT, self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash

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

    def to_float(self) -> "Params":
        return self if self.mode == FLOAT else Params(FLOAT, self.p, self.q)

    # ---- coefficient views (Fraction in exact mode, float in float mode),
    # each computed on first read and kept on the point ----
    def s(self, value) -> Coeff:
        return lift(value, self.mode)

    @cached_property
    def a(self) -> Coeff:
        return self.p * self.p

    @cached_property
    def b(self) -> Coeff:
        return self.q * self.q

    @cached_property
    def sqrt_ab(self) -> Coeff:
        return self.p * self.q

    @cached_property
    def sqrt_a_over_b(self) -> Coeff:
        return self.p / self.q

    @cached_property
    def sqrt_b_over_a(self) -> Coeff:
        return self.q / self.p


# ---------------------------------------------------------------------------
# the per-point store
# ---------------------------------------------------------------------------

# params -> the store of that point; the oldest point is dropped first
_POINTS: dict = {}
_POINTS_MAX = 4


def point_cache(params: Params) -> dict:
    """The store of everything fixed once the parameter point is: basis
    functions, operators and the quadrature grids (see gaussint). Only the
    last few points keep a store, so memory stays bounded over a sweep of
    points."""
    cache = _POINTS.get(params)
    if cache is None:
        if len(_POINTS) >= _POINTS_MAX:
            del _POINTS[next(iter(_POINTS))]
        cache = _POINTS[params] = {}
    return cache


def _per_point(fn):
    """Keep fn(params, *args) in the store of params."""

    @wraps(fn)
    def cached(params: Params, *args):
        key = (fn, *args)
        try:
            return _POINTS[params][key]
        except KeyError:
            pass
        value = point_cache(params)[key] = fn(params, *args)
        return value

    return cached


# ---------------------------------------------------------------------------
# combinatorial helpers
# ---------------------------------------------------------------------------


def pochhammer(x, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = 1
    for t in range(k):
        out = out * (x + t)
    return out


def alpha_coeffs(k: int) -> list[int]:
    """Expansion coefficients of the degree-k associated-function sum.

    alpha_0 = (-2)^k, alpha_k = 2^(2k), and for 0 < i < k
    alpha_i = (-2)^i (k-i+1)_i alpha_0 / i!. As (k-i+1)_i / i! = C(k, i),
    every alpha_i, the two ends included, is the integer (-2)^(k+i) C(k, i).
    """
    if k < 0:
        raise ValueError("alpha_coeffs needs k >= 0")
    return [(-2) ** (k + i) * comb(k, i) for i in range(k + 1)]


# ---------------------------------------------------------------------------
# basis functions
# ---------------------------------------------------------------------------


def _check_index(n: int, m: int) -> None:
    if not (isinstance(n, int) and isinstance(m, int) and 0 <= m <= n):
        raise ValueError(f"need integers 0 <= m <= n, got n={n!r}, m={m!r}")


def _cn0_reduced(params: Params, n: int) -> Coeff:
    # c_{n,0} / kappa = 4^n (ab)^(n/2) = (4 sqrt(ab))^n
    return (4 * params.sqrt_ab) ** n


def _cn_reduced(params: Params, n: int) -> Coeff:
    # c_n = c_{n,0} / ((8ab)^n n!); where the float denominator underflows to
    # 0, the quotient leaves the float range like any overflow
    denom = (8 * params.a * params.b) ** n * factorial(n)
    if not denom:
        raise OverflowError(f"(8ab)^{n} {n}! underflows to zero")
    return _cn0_reduced(params, n) / denom


def _chain_series(params: Params, n: int, m: int) -> Poly2:
    """The full associated-function sum in the chain variables (w, zbar),
    w = a z + b zbar, valid for every 0 <= m <= n:

    psi_{n,m} = c_n (2ab)^(n-m) sum_i alpha_i^(n-m) (2m-n+i+1)_(2n-2m-i) zbar^i w^(2m-n+i).

    The rising factorial vanishes exactly when e = 2m-n+i < 0, so the sum
    starts at i = max(0, n-2m): one term w^e zbar^i per i, at most
    min(m, n-m) + 1 of them.
    """
    _check_index(n, m)
    k = n - m
    alphas = alpha_coeffs(k)
    sums = {(2 * m - n + i, i): alphas[i] * pochhammer(2 * m - n + i + 1, 2 * n - 2 * m - i)
            for i in range(max(0, n - 2 * m), k + 1)}
    (front,), den = to_ints(params.mode, [_cn_reduced(params, n) * (2 * params.a * params.b) ** k])
    return Poly2._normalized(params.mode, {key: front * v for key, v in sums.items()}, den)


def from_chain(params: Params, g: Poly2) -> Poly2:
    """The polynomial g(w, zbar), w = a z + b zbar, written in (z, zbar).

    Each w^e zbar^i expands binomially into C(e,t) a^t b^(e-t) z^t zbar^(i+e-t),
    summed as integers over g's denominator times d^E, with a = A/d and
    b = B/d over one denominator d (in float mode A, B are the floats and
    d = 1) and E the largest power of w. The numerators C(e,t) A^t B^(e-t)
    of w^e come row by row from Pascal's rule, so a float overflows to inf
    where float ** int would raise.
    """
    mode = join_modes(params, g)
    top = max((e for e, _ in g.nums), default=0)
    if not top:
        return g  # no power of w: the same polynomial in both coordinates
    (a, b), d = to_ints(params.mode, [params.a, params.b])
    rows = [[1]]
    while len(rows) <= top:
        last = rows[-1]
        rows.append([b * last[0], *(a * x + b * y for x, y in zip(last, last[1:])), a * last[-1]])
    sums: dict = defaultdict(int)
    for (e, i), u in g.nums.items():
        weight, degree = u * d ** (top - e), i + e
        for t, c in enumerate(rows[e]):
            sums[t, degree - t] += weight * c
    return Poly2._normalized(mode, sums, g.den * d**top)


@_per_point
def chain_psi(params: Params, n: int, m: int) -> Poly2:
    """Basis function psi_{n,m} in the chain variables (w, zbar); m = 0 uses
    the direct chain-head form psi_{n,0} = c_{n,0} zbar^n, the same polynomial
    in both coordinates, m >= 1 the associated-function sum (which agrees at
    m = 0, tested)."""
    _check_index(n, m)
    if m == 0:
        return Poly2.monomial(0, n, _cn0_reduced(params, n))
    return _chain_series(params, n, m)


@_per_point
def build_psi(params: Params, n: int, m: int) -> Poly2:
    """Basis function psi_{n,m} in (z, zbar), for the pairing and for printing."""
    return from_chain(params, chain_psi(params, n, m))


def su2_factor(n: int, m: int) -> float:
    """The su(2) rescaling sqrt(m!/(n-m)!) of phi relative to psi, in floats,
    with no Fraction: int / int rounds as float(Fraction(m!, (n-m)!)) does."""
    return math.sqrt(factorial(m) / factorial(n - m))


def build_phi(params: Params, n: int, m: int) -> Poly2:
    """su(2)-normalized function phi = sqrt(m!/(n-m)!) psi_{n,m} with j = n/2,
    mu = m - n/2, in the chain variables (w, zbar). Float mode only: the
    square root is irrational in general."""
    if params.mode != FLOAT:
        raise ModeMismatchError(f"build_phi needs float parameters, got {params.mode!r}")
    return chain_psi(params, n, m).scale(su2_factor(n, m))


def energy(params: Params, n: int) -> Coeff:
    """Level-n eigenvalue E_n = 4a(n+1)."""
    return 4 * (n + 1) * params.a


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
    """Catalog operator by name.

    H, A+/-, B+/- are entered from their defining forms; every composite name
    (R, S, T, U, the gl(2) and boson generators, E_ij, D+/-_ij) is built
    compositionally from those via products and linear combinations, never
    hand-expanded. Unknown names raise ValueError.
    """
    name = canonical_name(name)
    s = params.s
    a, b = params.a, params.b
    mono = DiffOp.monomial

    if name == "H":
        return (
            mono((0, 0, 1, 1), s(-4))
            + mono((1, 1, 0, 0), 4 * a * a)
            + mono((0, 2, 0, 0), 8 * a * b)
        )
    if name in ("A+", "A-"):
        sign = -1 if name == "A+" else 1
        return mono((0, 0, 1, 0), s(1)) + mono((0, 1, 0, 0), sign * a)
    if name in ("B+", "B-"):
        sign = -1 if name == "B+" else 1
        return (
            mono((0, 0, 0, 1), s(1))
            + mono((1, 0, 0, 0), sign * a)
            + mono((0, 1, 0, 0), sign * 2 * b)
        )

    op = lambda nm: make_operator(params, nm)  # noqa: E731

    if name == "R":
        return op("A+") * op("A-")
    if name == "S":
        return op("B+") * op("B-")
    if name == "T":
        return op("A+") * op("B-") - op("B+") * op("A-")
    if name == "U":
        return op("A+") * op("B-") + op("B+") * op("A-")

    if name == "J0":
        return op("T").scale(1 / (4 * a))
    if name == "J+":
        inner = op("S") + op("R").scale(b * b / (a * a)) - op("U").scale(b / a)
        return inner.scale(-1 / (16 * a * b))
    if name == "J-":
        return op("R").scale(-4 * b / a)
    if name == "K":
        inner = op("R").scale(2 * b / a) - op("U") + DiffOp.constant(2 * a)
        return inner.scale(1 / (2 * a))

    if name in ("a1+", "a2-"):
        core = op("A+" if name == "a1+" else "A-").scale(b) - op("B+" if name == "a1+" else "B-").scale(a)
        core = core.scale(1 / (4 * a * params.sqrt_ab))
        return core if name == "a1+" else -core
    if name == "a1-":
        return op("A-").scale(2 * params.sqrt_b_over_a)
    if name == "a2+":
        return op("A+").scale(-2 * params.sqrt_b_over_a)

    if name.startswith("E"):
        i, j = int(name[1]), int(name[2])
        raising = op(f"a{i}+")
        lowering = op(f"a{j}-")
        return anticommutator(raising, lowering).scale(Fraction(1, 2))

    # D+ij / D-ij = (1/2){a_i^pm, a_j^pm}
    sign, i, j = name[1], int(name[2]), int(name[3])
    left = op(f"a{i}{sign}")
    right = op(f"a{j}{sign}")
    return anticommutator(left, right).scale(Fraction(1, 2))


def explicit_form(params: Params, name: str) -> DiffOp:
    """Independently transcribed explicit z/zbar form of the 14 superalgebra
    generators; built from first-order pieces only, never from make_operator,
    so agreement with the catalog is a genuine cross-check."""
    if name not in EXPLICIT_NAMES:
        raise ValueError(f"no explicit form for {name!r}; available: {', '.join(EXPLICIT_NAMES)}")
    s = params.s
    a, b = params.a, params.b
    mono = DiffOp.monomial

    # shared first-order pieces: X = b dz - a dzbar, W = (a z + b zbar) as
    # a multiplication operator (X and W commute)
    X = mono((0, 0, 1, 0), b) + mono((0, 0, 0, 1), -a)
    W = mono((1, 0, 0, 0), a) + mono((0, 1, 0, 0), b)

    if name == "a1+":
        return (X + W.scale(a)).scale(1 / (4 * a * params.sqrt_ab))
    if name == "a1-":
        return (mono((0, 0, 1, 0), s(1)) + mono((0, 1, 0, 0), a)).scale(2 * params.sqrt_b_over_a)
    if name == "a2+":
        return (mono((0, 0, 1, 0), s(1)) + mono((0, 1, 0, 0), -a)).scale(-2 * params.sqrt_b_over_a)
    if name == "a2-":
        return (X - W.scale(a)).scale(-1 / (4 * a * params.sqrt_ab))

    if name == "J0":
        return (
            mono((1, 0, 1, 0), a) + mono((0, 1, 1, 0), 2 * b) + mono((0, 1, 0, 1), -a)
        ).scale(1 / (2 * a))
    if name == "J+":
        return (X * X - (W * W).scale(a * a)).scale(-1 / (16 * a**3 * b))
    if name == "J-":
        return (mono((0, 0, 2, 0), s(1)) + mono((0, 2, 0, 0), -(a * a))).scale(-4 * b / a)
    if name == "K":
        return (
            mono((0, 0, 2, 0), b)
            + mono((0, 0, 1, 1), -a)
            + mono((1, 1, 0, 0), a**3)
            + mono((0, 2, 0, 0), a * a * b)
        ).scale(1 / (a * a))

    if name in ("D+11", "D-22"):
        sign = 1 if name == "D+11" else -1
        quad = X * X + (W * X).scale(sign * 2 * a) + (W * W).scale(a * a)
        return quad.scale(1 / (16 * a**3 * b))
    if name in ("D+22", "D-11"):
        sign = -1 if name == "D+22" else 1
        quad = mono((0, 0, 2, 0), s(1)) + mono((0, 1, 1, 0), sign * 2 * a) + mono((0, 2, 0, 0), a * a)
        return quad.scale(4 * b / a)

    # D+12 / D-12
    sign = 1 if name == "D+12" else -1
    quad = (
        mono((0, 0, 2, 0), b)
        + mono((0, 0, 1, 1), -a)
        + mono((1, 0, 1, 0), sign * a * a)
        + mono((0, 1, 0, 1), sign * a * a)
        + mono((1, 1, 0, 0), -(a**3))
        + mono((0, 2, 0, 0), -(a * a * b))
        + DiffOp.constant(sign * a * a)
    )
    return quad.scale(-1 / (2 * a * a))


# ---------------------------------------------------------------------------
# envelope-conjugated application
# ---------------------------------------------------------------------------


@_per_point
def _chain_generators(params: Params) -> tuple[DiffOp, DiffOp, DiffOp]:
    # the images of z, dz and dzbar under conjugation through the envelope, in
    # the chain variables (w, zbar), where the envelope is exp(-w zbar):
    # z -> (w - b zbar)/a, dz -> a (dw - zbar), dzbar -> b dw + dzbar - w - b zbar
    # (zbar is unchanged); the two derivative images commute
    a, b, one = params.a, params.b, params.s(1)
    mono = DiffOp.monomial
    return (
        mono((1, 0, 0, 0), one / a) + mono((0, 1, 0, 0), -b / a),
        mono((0, 0, 1, 0), a) + mono((0, 1, 0, 0), -a),
        mono((0, 0, 1, 0), b) + mono((0, 0, 0, 1), one) + mono((1, 0, 0, 0), -one) + mono((0, 1, 0, 0), -b),
    )


@_per_point
def _chain_image(params: Params, i: int, k: int, l: int) -> DiffOp:
    # the image of z^i dz^k dzbar^l (see _chain_generators)
    z_image, dz_image, dzb_image = _chain_generators(params)
    return z_image**i * dz_image**k * dzb_image**l


def conjugate_through_envelope(params: Params, op: DiffOp) -> DiffOp:
    """exp(a z zbar + b zbar^2) . op . exp(-a z zbar - b zbar^2) as a DiffOp in
    the chain variables (w, zbar), w = a z + b zbar: its keys (i, j, k, l) read
    w^i zbar^j dw^k dzbar^l, and it acts on a basis function's chain form."""
    if op.mode != params.mode:
        raise ModeMismatchError(f"operator is {op.mode!r}, parameters are {params.mode!r}")
    return DiffOp.linear_combination(params.mode, (
        (1, DiffOp._normalized(op.mode, {(0, j, 0, 0): v}, op.den) * _chain_image(params, i, k, l))
        for (i, j, k, l), v in op.nums.items()
    ))


@_per_point
def conjugated(params: Params, name: str) -> DiffOp:
    """The envelope conjugation of catalog operator ``name``. At a float point it
    is ``to_float`` of the exact one at the dyadic twin, the same p, q read as
    rationals (a finite float is a dyadic rational): the exact terms, each
    coefficient rounded once, with no residue where exact terms cancel."""
    twin = params if params.mode == EXACT else Params.exact(params.p, params.q)
    conjugate = conjugate_through_envelope(twin, make_operator(twin, name))
    return conjugate if twin is params else conjugate.to_float()


def apply(params: Params, op: str | DiffOp, fn: Poly2, derivatives: dict | None = None) -> Poly2:
    """Act with an operator, a catalog name (conjugated once per point, see
    conjugated) or any DiffOp (conjugated anew), on the basis function whose
    chain form is fn (see chain_psi); the image is in chain form too. The
    envelope is never materialized: the conjugated operator, in (w, zbar),
    acts on fn, reading fn's derivatives from ``derivatives`` if given."""
    conjugate = conjugated(params, op) if isinstance(op, str) else conjugate_through_envelope(params, op)
    return conjugate.apply_to(fn, derivatives)
