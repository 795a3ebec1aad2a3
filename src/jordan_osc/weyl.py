"""Exact arithmetic for the Weyl algebra in two commuting formal variables.

Values come in two coefficient modes sharing one arithmetic contract:
``exact`` coefficients are ``Fraction``s, for which every identity checked by
the verification suites is decidable, and ``float`` coefficients are
``float`` doubles. Every coefficient is real, as every coefficient of the
model in (z, zbar) is. ``lift`` coerces a number into a mode (ints lift into
either) and refuses to let a float into exact mode. Equality is one bitwise
rule in both modes; a verdict that needs a tolerance reads a residual's size
instead (see verifier).

A term map stores its coefficients once: integer numerators ``nums`` over one
positive denominator ``den`` (in float mode, the floats over 1), canonical
with no zero and ``gcd(den, *nums) == 1``, so equality is equality of
both. Every kernel sums integers and builds its result with the one
normalizing constructor ``_normalized``, reducing once per result, never per
term, in one loop for both modes: ``linear_combination`` (behind ``+``, ``-``,
negation and ``scale``), ``_product`` (both ``*`` and ``commutator``),
``adjoint``, ``apply_to`` (whose table of derivatives several operators can
share), ``swap_vars`` and ``to_float``. ``residual_magnitude`` reads the
largest coefficient of a linear combination on each charge deg_z - deg_zbar
without building it. ``.terms`` (key -> ``Fraction`` or ``float``) is
derived on demand for readers such as printing; no kernel reads it.

Two layers build on the coefficients:

* ``Poly2``  -- a sparse polynomial in z, zbar,
* ``DiffOp`` -- a normally ordered differential operator: a finite sum of
  terms ``c * z^i * zbar^j * dz^k * dzbar^l`` with every multiplication
  operator to the left of every derivative.

z and zbar are independent commuting variables ([dz, z] = [dzbar, zbar] = 1,
all other generator pairs commute), so normal ordering gives each operator a
unique term map and operator equality reduces to map comparison.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, gcd, inf, lcm, perm

EXACT = "exact"
FLOAT = "float"

#: a coefficient: Fraction in exact mode, float in float mode
Coeff = Fraction | float


class ModeMismatchError(ValueError):
    """Raised when exact and float values meet in a single operation."""


def join_modes(first, *rest) -> str:
    for other in rest:
        if other.mode != first.mode:
            raise ModeMismatchError(f"cannot combine {first.mode!r} and {other.mode!r} values")
    return first.mode


def max_or_nan(first, *rest):
    """The largest of the arguments, or a NaN if any of them is one (a plain
    ``max`` keeps a NaN only when it comes first)."""
    for value in rest:
        if value > first or value != value:
            first = value
    return first


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def lift(value, mode: str) -> Coeff:
    """Coerce a number into the coefficient type of ``mode``.

    Ints and Fractions lift into either mode; floats only into float mode (an
    inexact value must not enter an exact computation). Any other number is
    no coefficient: TypeError.
    """
    if isinstance(value, (int, Fraction)):
        # a Fraction is immutable, so exact mode passes one through uncopied
        return (value if type(value) is Fraction else Fraction(value)) if mode == EXACT else float(value)
    if isinstance(value, float):
        if mode == EXACT:
            raise ModeMismatchError("cannot lift an inexact value into exact mode")
        return value
    raise TypeError(f"cannot interpret {value!r} as a coefficient")


def zero(mode: str) -> Coeff:
    return lift(0, mode)


def one(mode: str) -> Coeff:
    return lift(1, mode)


def to_ints(mode: str, values: list) -> tuple[list, int]:
    """(numerators, common denominator) of ``values``; (values, 1) in float mode."""
    if mode != EXACT:
        return values, 1
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


# ---------------------------------------------------------------------------
# term maps: the shared linear structure of Poly2 and DiffOp
# ---------------------------------------------------------------------------


class _TermMap:
    """Sparse map from exponent tuples to nonzero coefficients of one mode,
    stored as ``nums`` (key -> int numerator; the float coefficient in float
    mode) over ``den`` (a positive int; 1 in float mode).

    ``cls(mode, terms)`` takes a dict of coefficients; kernels pass their
    integer sums to ``_normalized``. Instances are treated as immutable.
    """

    __slots__ = ("mode", "nums", "den", "__weakref__")

    _ARITY = 0  # length of the exponent tuples
    _NAMES = ("z", "zb", "dz", "dzb")

    def __new__(cls, mode: str, terms: dict):
        nums, den = to_ints(mode, [lift(c, mode) for c in terms.values()])
        return cls._normalized(mode, dict(zip(terms, nums)), den)

    @classmethod
    def _normalized(cls, mode: str, sums: dict, den: int):
        """The map of ``sums`` (key -> numerator) over ``den`` in canonical form:
        zeros dropped, and in exact mode numerators and den divided by their gcd."""
        out = object.__new__(cls)
        nums = {key: v for key, v in sums.items() if v}
        if mode == EXACT:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {key: v // g for key, v in nums.items()}
                den //= g
        out.mode, out.nums, out.den = mode, nums, den
        return out

    @classmethod
    def zero(cls, mode: str):
        return cls(mode, {})

    @classmethod
    def _single(cls, key: tuple, coeff):
        # the coefficient's type picks the mode: a float makes a float map
        if any(e < 0 for e in key):
            raise ValueError("exponents must be nonnegative")
        return cls(FLOAT if isinstance(coeff, float) else EXACT, {key: coeff})

    @classmethod
    def linear_combination(cls, mode: str, pairs):
        """sum c * x over the (c, x) pairs with c != 0, over one denominator."""
        parts = []
        for c, x in pairs:
            if x.mode != mode:
                raise ModeMismatchError(f"cannot combine {mode!r} and {x.mode!r} values")
            # an int is its own numerator in either mode (+ and - pass 1 and -1)
            (c_num,), c_den = ([c], 1) if isinstance(c, int) else to_ints(mode, [lift(c, mode)])
            if c_num:
                parts.append((c_num, c_den, x.nums, x.den))
        common = lcm(*(c_den * den for _, c_den, _, den in parts))
        sums: dict = {}
        for c_num, c_den, nums, den in parts:
            factor = c_num * (common // (c_den * den))
            if not sums:  # one pass builds the dict (scale is a single pair)
                sums = {key: factor * u for key, u in nums.items()}
                continue
            for key, u in nums.items():
                sums[key] = sums.get(key, 0) + factor * u
        return cls._normalized(mode, sums, common)

    def __add__(self, other):
        return self.linear_combination(self.mode, ((1, self), (1, other)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.linear_combination(self.mode, ((1, self), (-1, other)))

    def scale(self, value):
        return self.linear_combination(self.mode, ((value, self),))

    __rmul__ = scale

    def _product(self, other, accumulate):
        """The product kernel: ``accumulate(sums, key1, key2, u1 * u2)`` for each
        pair of terms, over the product of the two denominators."""
        mode = join_modes(self, other)
        nums2 = other.nums
        sums: dict = {}
        for key1, u1 in self.nums.items():
            for key2, u2 in nums2.items():
                accumulate(sums, key1, key2, u1 * u2)
        return self._normalized(mode, sums, self.den * other.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = self._single((0,) * self._ARITY, one(self.mode))
        for _ in range(k):
            out = out * self
        return out

    # ---- inspection ----
    @property
    def terms(self) -> dict:
        """key -> coefficient, derived from ``nums`` and ``den``."""
        if self.mode != EXACT:
            return self.nums
        return {key: Fraction(v, self.den) for key, v in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def sorted_terms(self) -> list[tuple[tuple, Coeff]]:
        return sorted(self.terms.items())  # the keys are distinct, so no coefficients are compared

    def max_magnitude(self) -> Coeff:
        """The largest coefficient magnitude (zero if there is none), or a NaN
        if any coefficient is one."""
        return max_or_nan(0, *map(abs, self.nums.values())) / lift(self.den, self.mode)

    def to_float(self):
        if self.mode == FLOAT:
            return self
        # int / int rounds exactly like float(Fraction)
        return self._normalized(FLOAT, {k: v / self.den for k, v in self.nums.items()}, 1)

    def __eq__(self, other) -> bool:
        """The same mode and the same stored form: bitwise in float mode too."""
        if type(other) is not type(self):
            return NotImplemented
        return self.mode == other.mode and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            factors = [f"({c})"]
            for name, e in zip(self._NAMES, key):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# sparse polynomials in z, zbar
# ---------------------------------------------------------------------------


def _add_degrees(sums: dict, key1, key2, base) -> None:
    key = (key1[0] + key2[0], key1[1] + key2[1])
    sums[key] = sums.get(key, 0) + base


class Poly2(_TermMap):
    """Sparse polynomial in z, zbar: map (deg_z, deg_zbar) -> coefficient."""

    _ARITY = 2

    # ---- constructors ----
    @staticmethod
    def monomial(deg_z: int, deg_zbar: int, coeff) -> "Poly2":
        return Poly2._single((deg_z, deg_zbar), coeff)

    @staticmethod
    def one(mode: str) -> "Poly2":
        return Poly2.monomial(0, 0, one(mode))

    @staticmethod
    def z(mode: str) -> "Poly2":
        return Poly2.monomial(1, 0, one(mode))

    @staticmethod
    def zbar(mode: str) -> "Poly2":
        return Poly2.monomial(0, 1, one(mode))

    # the polynomial itself; only the benchmark probe coeff_mul_ns
    # (perfbench/worker.py), which reads build_psi(...).poly.terms, uses it
    @property
    def poly(self) -> "Poly2":
        return self

    # ---- ring operations ----
    def __mul__(self, other):
        return self._product(other, _add_degrees) if isinstance(other, Poly2) else self.scale(other)

    # ---- inspection ----
    def total_degree(self) -> int:
        """Max of deg_z + deg_zbar over stored terms; 0 for the zero polynomial."""
        return max((i + j for (i, j) in self.nums), default=0)

    def coeff(self, deg_z: int, deg_zbar: int) -> Coeff:
        return self.nums.get((deg_z, deg_zbar), 0) / lift(self.den, self.mode)


# ---------------------------------------------------------------------------
# normally ordered differential operators
# ---------------------------------------------------------------------------


def _accumulate_product(sums: dict, key1, key2, base, contractions_only: bool = False) -> None:
    """Add ``base`` times the normal ordering of (term1 . term2) into ``sums``.

    Uses dz^k z^i = sum_s C(k,s) C(i,s) s! z^(i-s) dz^(k-s) (same for the
    zbar pair); the z-family and zbar-family commute with each other. With
    ``contractions_only`` the leading term s = t = 0, which is the product
    with no derivative contracted against a variable, is left out.
    """
    i1, j1, k1, l1 = key1
    i2, j2, k2, l2 = key2
    for s in range(min(k1, i2) + 1):
        ws = comb(k1, s) * comb(i2, s) * factorial(s)
        for t in range(1 if contractions_only and not s else 0, min(l1, j2) + 1):
            wt = comb(l1, t) * comb(j2, t) * factorial(t)
            key = (i1 + i2 - s, j1 + j2 - t, k1 - s + k2, l1 - t + l2)
            sums[key] = sums.get(key, 0) + base * (ws * wt)


class DiffOp(_TermMap):
    """Normally ordered operator: map (i, j, k, l) -> coefficient for z^i zbar^j dz^k dzbar^l."""

    _ARITY = 4

    # ---- constructors ----
    @staticmethod
    def monomial(key: tuple[int, int, int, int], coeff) -> "DiffOp":
        return DiffOp._single(key, coeff)

    @staticmethod
    def identity(mode: str) -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 0), one(mode))

    @staticmethod
    def constant(coeff) -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 0), coeff)

    @staticmethod
    def z(mode: str) -> "DiffOp":
        return DiffOp.monomial((1, 0, 0, 0), one(mode))

    @staticmethod
    def zbar(mode: str) -> "DiffOp":
        return DiffOp.monomial((0, 1, 0, 0), one(mode))

    @staticmethod
    def dz(mode: str) -> "DiffOp":
        return DiffOp.monomial((0, 0, 1, 0), one(mode))

    @staticmethod
    def dzbar(mode: str) -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 1), one(mode))

    # ---- composition ----
    def __mul__(self, other):
        return self._product(other, _accumulate_product) if isinstance(other, DiffOp) else self.scale(other)

    def apply_to(self, poly: Poly2, derivatives: dict | None = None) -> Poly2:
        """Act on a plain polynomial (no envelope; see model.apply for that).

        ``derivatives`` is the table of poly's derivatives by order, (k, l) ->
        [(pz - k, pb - l, u, perm(pz, k) * perm(pb, l)) for each term u z^pz
        zbar^pb with pz >= k, pb >= l], in term order; an order is filled on
        first use, so a table passed to every operator applied to poly is built
        once for all of them (and one is made here if none is given)."""
        mode = join_modes(self, poly)
        derivatives = {} if derivatives is None else derivatives
        sums: dict = defaultdict(int)
        for (i, j, k, l), c in self.nums.items():
            rows = derivatives.get((k, l))
            if rows is None:
                rows = derivatives[k, l] = [(pz - k, pb - l, u, perm(pz, k) * perm(pb, l))
                                            for (pz, pb), u in poly.nums.items() if pz >= k and pb >= l]
            for dz, db, u, w in rows:
                sums[dz + i, db + j] += c * u * w
        return Poly2._normalized(mode, sums, self.den * poly.den)


#: sum c * poly over (c, poly) pairs, the linear kernel for polynomials
linear_combination = Poly2.linear_combination


def _float_values(x: _TermMap) -> dict:
    """The coefficients of x read in floats, key -> value: a float map's own
    ``nums``, an exact map's as to_float reads them, except that a coefficient
    beyond the float range reads as an infinity of its sign, as float
    arithmetic rounds an overflow, where to_float raises."""
    if x.mode == FLOAT:
        return x.nums
    values = {}
    for key, u in x.nums.items():
        try:
            values[key] = u / x.den
        except OverflowError:  # an int / int beyond the float range
            values[key] = inf if u > 0 else -inf
    return values


def residual_magnitude(mode: str, targets, image: Poly2, scale=1) -> dict:
    """Per charge deg_z - deg_zbar, the largest coefficient magnitude of
    sum (-c) x + scale * image over the (c, x) targets with c != 0, without
    building that polynomial: charge -> the value of ``linear_combination(mode,
    [*((-c, x) for c, x in targets), (scale, image)]).max_magnitude()`` over
    that charge's monomials, bit for bit, a NaN winning as there. A charge with
    no monomial in the targets or the image is absent. In float mode ``scale``
    may be a dict, charge -> the factor of the image's monomials of that
    charge.

    Exact: the numerators are summed over one common denominator, and only
    each charge's largest is a Fraction. Float: each monomial adds the targets
    in order and the image last, as linear_combination does, reading an exact
    polynomial in floats by ``_float_values``."""
    if mode == EXACT:
        parts = [(-c.numerator, c.denominator * x.den, x.nums) for c, x in targets if c]
        parts.append((scale.numerator, scale.denominator * image.den, image.nums))
        common = lcm(*(den for _, den, _ in parts))
        parts = [(num * (common // den), nums) for num, den, nums in parts]
    else:
        parts = [*((-c, _float_values(x)) for c, x in targets if c), (scale, _float_values(image))]
    sums: dict = {}
    for c, nums in parts:
        if type(c) is dict:
            for key, u in nums.items():
                sums[key] = sums.get(key, 0) + c[key[0] - key[1]] * u
        else:
            for key, u in nums.items():
                sums[key] = sums.get(key, 0) + c * u
    worst: dict = {}
    for (i, j), v in sums.items():
        v, charge = abs(v), i - j
        if charge not in worst or v > worst[charge] or v != v:
            worst[charge] = v
    if mode == EXACT:
        return {charge: Fraction(v, common) for charge, v in worst.items()}
    return worst


# ---------------------------------------------------------------------------
# algebra maps
# ---------------------------------------------------------------------------


def commutator(left: DiffOp, right: DiffOp) -> DiffOp:
    """[left, right] = left*right - right*left, with neither product formed.

    For each pair of terms, the leading term of the normal ordering (no
    derivative contracted against a variable) is the same in both orders, so
    it cancels in the difference and is never computed: only the contraction
    terms of the two orders are accumulated, and a pair with none is skipped.
    Exact results equal left*right - right*left; in float mode the cancelled
    terms leave no rounding residue.
    """
    return left._product(right, _accumulate_contractions)


def _accumulate_contractions(sums: dict, key1, key2, base) -> None:
    # base * (term1 . term2 - term2 . term1); nothing if no pair contracts
    (i1, j1, k1, l1), (i2, j2, k2, l2) = key1, key2
    if k1 and i2 or l1 and j2 or k2 and i1 or l2 and j1:
        _accumulate_product(sums, key1, key2, base, contractions_only=True)
        _accumulate_product(sums, key2, key1, -base, contractions_only=True)


def anticommutator(left: DiffOp, right: DiffOp) -> DiffOp:
    return left * right + right * left


def adjoint(op: DiffOp) -> DiffOp:
    """Formal adjoint: z <-> zbar, dz -> -dzbar, dzbar -> -dz, factor order
    reversed (a real coefficient is its own conjugate); the result is
    re-normal-ordered."""
    sums: dict = {}
    for (i, j, k, l), u in op.nums.items():
        sign = -1 if (k + l) % 2 else 1
        # (z^i zb^j dz^k dzb^l)^† = (-dz)^l (-dzb)^k z^j zb^i
        _accumulate_product(sums, (0, 0, l, k), (j, i, 0, 0), u * sign)
    return DiffOp._normalized(op.mode, sums, op.den)


def swap_vars(op: DiffOp) -> DiffOp:
    """The substitution z <-> zbar, dz <-> dzbar (coefficients untouched)."""
    return DiffOp._normalized(op.mode, {(j, i, l, k): v for (i, j, k, l), v in op.nums.items()}, op.den)
