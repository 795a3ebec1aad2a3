"""Model layer: parameters, basis functions, and the operator catalog.

The model is the 2D oscillator in the variables z, zbar

    H = -4 dz dzbar + 4 a^2 z zbar + 8 a b zbar^2,        a > 0, b > 0,

whose eigenvalue problem is solved by reduced functions: every basis function
is stored as its polynomial part P with the global envelope and normalization

    function = kappa * P(z, zbar) * exp(-a z zbar - b zbar^2),
    kappa    = sqrt(2a / pi),

never materialized. H has eigenvalues E_n = 4a(n+1); each level carries an
(n+1)-dimensional Jordan block spanned by functions psi_{n,m} (0 <= m <= n)
obeying (H - E_n) psi_{n,m} = psi_{n,m-1}.

Exactness strategy: in exact mode the parameters are a = p^2, b = q^2 for
positive rationals p, q, so sqrt(ab) = p q, sqrt(a/b) = p/q and sqrt(b/a) = q/p
are rational and all ladder/action coefficients are plain ``Fraction``s; in
float mode every coefficient is a ``float``. Either way p, q and every view of
them (a, b, sqrt_ab, ...) already are coefficients of the mode, so they enter
products directly; ``Params.s`` lifts a literal into the mode.

Polynomials and operators store integer numerators over one denominator (see
weyl), which ``psi_series`` and ``conjugate_through_envelope`` build directly.
Every basis function (psi, and phi in float mode), operator and pairing moment
of a parameter point lives in one store per point (``point_cache``), kept for
the last few points only. ``apply`` keeps the envelope conjugations of the
last len(CATALOG_NAMES) operators applied, and hands a caller's derivative
table (see weyl) to ``apply_to``. A ``Params`` computes its hash once, so a
lookup in these stores does not rehash the point, and its float twin once.
"""

from __future__ import annotations

import math
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
        return self if self.mode == FLOAT else self._float_point

    @cached_property
    def _float_point(self) -> "Params":
        # built once per point; a point outside the float range raises each time
        return Params(FLOAT, self.p, self.q)

    # ---- coefficient views (Fraction in exact mode, float in float mode) ----
    def s(self, value) -> Coeff:
        return lift(value, self.mode)

    @property
    def a(self) -> Coeff:
        return self.p * self.p

    @property
    def b(self) -> Coeff:
        return self.q * self.q

    @property
    def sqrt_ab(self) -> Coeff:
        return self.p * self.q

    @property
    def sqrt_a_over_b(self) -> Coeff:
        return self.p / self.q

    @property
    def sqrt_b_over_a(self) -> Coeff:
        return self.q / self.p


@dataclass(frozen=True, eq=False)
class ReducedFn:
    """Polynomial part of kappa * P(z, zbar) * exp(-a z zbar - b zbar^2).

    The envelope and kappa are fixed once the parameters are; equality of
    reduced functions is equality of the stored polynomials.
    """

    poly: Poly2

    @property
    def mode(self) -> str:
        return self.poly.mode

    @staticmethod
    def zero(mode: str) -> "ReducedFn":
        return ReducedFn(Poly2.zero(mode))

    def __add__(self, other: "ReducedFn") -> "ReducedFn":
        return ReducedFn(self.poly + other.poly)

    def __sub__(self, other: "ReducedFn") -> "ReducedFn":
        return ReducedFn(self.poly - other.poly)

    def __neg__(self) -> "ReducedFn":
        return ReducedFn(-self.poly)

    def scale(self, value) -> "ReducedFn":
        return ReducedFn(self.poly.scale(value))

    def __mul__(self, value) -> "ReducedFn":
        return self.scale(value)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def to_float(self) -> "ReducedFn":
        return ReducedFn(self.poly.to_float())

    def close_to(self, other: "ReducedFn", tol: float) -> bool:
        return self.poly.close_to(other.poly, tol)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedFn):
            return NotImplemented
        return self.poly == other.poly

    __hash__ = None

    def __str__(self) -> str:
        return str(self.poly)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the per-point store
# ---------------------------------------------------------------------------

# params -> the store of that point; the oldest point is dropped first
_POINTS: dict = {}
_POINTS_MAX = 4


def point_cache(params: Params) -> dict:
    """The store of everything fixed once the parameter point is: basis
    functions, operators and the moment table (see gaussint). Only the last
    few points keep a store, so memory stays bounded over a sweep of points."""
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


def psi_series(params: Params, n: int, m: int) -> ReducedFn:
    """The full associated-function sum, valid for every 0 <= m <= n:

    psi_{n,m} = c_n (2ab)^(n-m) sum_i alpha_i^(n-m) (2m-n+i+1)_(2n-2m-i)
                zbar^i (a z + b zbar)^(2m-n+i).

    The rising factorial vanishes exactly when e = 2m-n+i < 0, so the sum
    starts at i = max(0, n-2m). Each power expands binomially into C(e,t)
    a^t b^(e-t) z^t zbar^(i+e-t), one monomial per (i, t), summed as integers
    over d^m with a, b over one denominator d. The powers of a and b are
    running products: a float overflows to inf, where float ** int would raise.
    """
    _check_index(n, m)
    mode, k = params.mode, n - m
    alphas = alpha_coeffs(k)
    (a, b), den = to_ints(mode, [params.a, params.b])
    a_pows, b_pows = [1], [1]
    for _ in range(m):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    sums = {}
    for i in range(max(0, n - 2 * m), k + 1):
        e = 2 * m - n + i
        weight = alphas[i] * pochhammer(e + 1, 2 * n - 2 * m - i) * den ** (m - e)
        for t in range(e + 1):
            sums[t, i + e - t] = weight * comb(e, t) * a_pows[t] * b_pows[e - t]
    front = _cn_reduced(params, n) * (2 * params.a * params.b) ** k
    return ReducedFn(Poly2._normalized(mode, sums, den**m).scale(front))


@_per_point
def build_psi(params: Params, n: int, m: int) -> ReducedFn:
    """Reduced basis function psi_{n,m}; m = 0 uses the direct chain-head form
    psi_{n,0} = c_{n,0} zbar^n, m >= 1 the associated-function sum
    (psi_series agrees at m = 0, tested)."""
    _check_index(n, m)
    if m == 0:
        return ReducedFn(Poly2.monomial(0, n, _cn0_reduced(params, n)))
    return psi_series(params, n, m)


def phi_scale_sq(n: int, m: int) -> Fraction:
    """Squared su(2) rescaling m!/(n-m)! of phi relative to psi."""
    _check_index(n, m)
    return Fraction(factorial(m), factorial(n - m))


@_per_point
def build_phi(params: Params, n: int, m: int) -> ReducedFn:
    """su(2)-normalized function phi = sqrt(m!/(n-m)!) psi_{n,m} with j = n/2,
    mu = m - n/2. Float mode only: the square root is irrational in general."""
    if params.mode != FLOAT:
        raise ModeMismatchError(f"build_phi needs float parameters, got {params.mode!r}")
    return build_psi(params, n, m).scale(math.sqrt(phi_scale_sq(n, m)))


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
def _shifted_derivative_powers(params: Params, k: int, l: int) -> DiffOp:
    # conjugation by the envelope sends dz -> dz - a zbar and
    # dzbar -> dzbar - a z - 2b zbar; the two shifted derivatives commute
    mode = params.mode
    dz_shift = DiffOp.dz(mode) + DiffOp.monomial((0, 1, 0, 0), -params.a)
    dzb_shift = (
        DiffOp.dzbar(mode)
        + DiffOp.monomial((1, 0, 0, 0), -params.a)
        + DiffOp.monomial((0, 1, 0, 0), -2 * params.b)
    )
    return dz_shift**k * dzb_shift**l


def conjugate_through_envelope(params: Params, op: DiffOp) -> DiffOp:
    """exp(a z zbar + b zbar^2) . op . exp(-a z zbar - b zbar^2) as a DiffOp."""
    if op.mode != params.mode:
        raise ModeMismatchError(f"operator is {op.mode!r}, parameters are {params.mode!r}")
    return DiffOp.linear_combination(params.mode, (
        (1, DiffOp._normalized(op.mode, {(i, j, 0, 0): v}, op.den) * _shifted_derivative_powers(params, k, l))
        for (i, j, k, l), v in op.nums.items()
    ))


# (params, id(op)) -> (op, conjugated op), one slot per catalog operator; an
# entry holds its operator, so the id cannot be reused while it is cached
_RECENT_CONJUGATIONS: dict = {}
_RECENT_MAX = len(CATALOG_NAMES)


def apply(params: Params, op: DiffOp, fn: ReducedFn, derivatives: dict | None = None) -> ReducedFn:
    """Act with an operator on a reduced function.

    The envelope is never materialized: the operator is conjugated through
    exp(-a z zbar - b zbar^2) and the substituted operator acts on the
    polynomial part, reading the derivatives of fn.poly from ``derivatives``
    if given; the last len(CATALOG_NAMES) conjugations are reused.
    """
    key = (params, id(op))
    entry = _RECENT_CONJUGATIONS.get(key)
    if entry is None:
        if len(_RECENT_CONJUGATIONS) >= _RECENT_MAX:
            del _RECENT_CONJUGATIONS[next(iter(_RECENT_CONJUGATIONS))]
        entry = _RECENT_CONJUGATIONS[key] = (op, conjugate_through_envelope(params, op))
    return ReducedFn(entry[1].apply_to(fn.poly, derivatives))
