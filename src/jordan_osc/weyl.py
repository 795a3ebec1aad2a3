"""Exact arithmetic for the Weyl algebra in two commuting formal variables.

Every coefficient is a rational, read as a ``Fraction``, so every identity
checked by the verification suites is decidable; and every coefficient is
real, as every coefficient of the model in (z, zbar) is. ``lift`` reads an int
or a ``Fraction`` as a coefficient and refuses anything else, a float
included (TypeError): a float point reaches this module only through its
exact dyadic twin (see model).

A term map stores its coefficients once: integer numerators ``nums`` over one
positive denominator ``den``, canonical with no zero and
``gcd(den, *nums) == 1``, so equality is equality of both. Every kernel sums
integers and builds its result with the one normalizing constructor
``_normalized``, reducing once per result, never per term:
``linear_combination`` (behind ``+``, ``-``, negation and ``scale``),
``_product`` (both ``*`` and ``commutator``), ``adjoint``, ``apply_to`` (whose
table of derivatives several operators can share) and ``swap_vars``.
``.terms`` (key -> ``Fraction``) is derived on demand for readers such as
printing; no kernel reads it.

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
from math import comb, factorial, gcd, lcm, perm


def lift(value) -> Fraction:
    """An int or a Fraction as a coefficient; any other value, a float included, is none: TypeError."""
    if isinstance(value, (int, Fraction)):
        return value if type(value) is Fraction else Fraction(value)  # a Fraction is immutable: not copied
    raise TypeError(f"cannot interpret {value!r} as a coefficient")


def to_ints(values: list) -> tuple[list, int]:
    """(numerators, common denominator) of ints and Fractions."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


# ---------------------------------------------------------------------------
# term maps: the shared linear structure of Poly2 and DiffOp
# ---------------------------------------------------------------------------


class _TermMap:
    """Sparse map from exponent tuples to nonzero rational coefficients,
    stored as ``nums`` (key -> int numerator) over ``den`` (a positive int).

    ``cls(terms)`` takes a dict of coefficients; kernels pass their integer
    sums to ``_normalized``. Instances are treated as immutable.
    """

    __slots__ = ("nums", "den", "__weakref__")

    _ARITY = 0  # length of the exponent tuples
    _NAMES = ("z", "zb", "dz", "dzb")

    def __new__(cls, terms: dict):
        nums, den = to_ints([lift(c) for c in terms.values()])
        return cls._normalized(dict(zip(terms, nums)), den)

    @classmethod
    def _normalized(cls, sums: dict, den: int):
        """The map of ``sums`` (key -> numerator) over ``den`` in canonical form:
        zeros dropped, numerators and den divided by their gcd."""
        out = object.__new__(cls)
        nums = {key: v for key, v in sums.items() if v}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {key: v // g for key, v in nums.items()}
            den //= g
        out.nums, out.den = nums, den
        return out

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def _single(cls, key: tuple, coeff):
        if any(e < 0 for e in key):
            raise ValueError("exponents must be nonnegative")
        return cls({key: coeff})

    @classmethod
    def linear_combination(cls, pairs):
        """sum c * x over the (c, x) pairs with c != 0, over one denominator."""
        parts = []
        for c, x in pairs:
            if type(c) is not int:  # an int is its own numerator (+ and - pass 1 and -1)
                c = lift(c)
            c_num, c_den = c.numerator, c.denominator
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
        return cls._normalized(sums, common)

    def __add__(self, other):
        return self.linear_combination(((1, self), (1, other)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.linear_combination(((1, self), (-1, other)))

    def scale(self, value):
        return self.linear_combination(((value, self),))

    __rmul__ = scale

    def _product(self, other, accumulate):
        """The product kernel: ``accumulate(sums, key1, key2, u1 * u2)`` for each
        pair of terms, over the product of the two denominators."""
        nums2 = other.nums
        sums: dict = {}
        for key1, u1 in self.nums.items():
            for key2, u2 in nums2.items():
                accumulate(sums, key1, key2, u1 * u2)
        return self._normalized(sums, self.den * other.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = self._single((0,) * self._ARITY, 1)
        for _ in range(k):
            out = out * self
        return out

    # ---- inspection ----
    @property
    def terms(self) -> dict:
        """key -> Fraction, derived from ``nums`` and ``den``."""
        return {key: Fraction(v, self.den) for key, v in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.terms.items())  # the keys are distinct, so no coefficients are compared

    def max_magnitude(self) -> Fraction:
        """The largest coefficient magnitude, zero if there is none."""
        return Fraction(max(map(abs, self.nums.values()), default=0), self.den)

    def __eq__(self, other) -> bool:
        """The same stored form."""
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

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
    def one() -> "Poly2":
        return Poly2.monomial(0, 0, 1)

    @staticmethod
    def z() -> "Poly2":
        return Poly2.monomial(1, 0, 1)

    @staticmethod
    def zbar() -> "Poly2":
        return Poly2.monomial(0, 1, 1)

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
    def identity() -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 0), 1)

    @staticmethod
    def constant(coeff) -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 0), coeff)

    @staticmethod
    def z() -> "DiffOp":
        return DiffOp.monomial((1, 0, 0, 0), 1)

    @staticmethod
    def zbar() -> "DiffOp":
        return DiffOp.monomial((0, 1, 0, 0), 1)

    @staticmethod
    def dz() -> "DiffOp":
        return DiffOp.monomial((0, 0, 1, 0), 1)

    @staticmethod
    def dzbar() -> "DiffOp":
        return DiffOp.monomial((0, 0, 0, 1), 1)

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
        derivatives = {} if derivatives is None else derivatives
        sums: dict = defaultdict(int)
        for (i, j, k, l), c in self.nums.items():
            rows = derivatives.get((k, l))
            if rows is None:
                rows = derivatives[k, l] = [(pz - k, pb - l, u, perm(pz, k) * perm(pb, l))
                                            for (pz, pb), u in poly.nums.items() if pz >= k and pb >= l]
            for dz, db, u, w in rows:
                sums[dz + i, db + j] += c * u * w
        return Poly2._normalized(sums, self.den * poly.den)


#: sum c * poly over (c, poly) pairs, the linear kernel for polynomials
linear_combination = Poly2.linear_combination


# ---------------------------------------------------------------------------
# algebra maps
# ---------------------------------------------------------------------------


def commutator(left: DiffOp, right: DiffOp) -> DiffOp:
    """[left, right] = left*right - right*left, with neither product formed.

    For each pair of terms, the leading term of the normal ordering (no
    derivative contracted against a variable) is the same in both orders, so
    it cancels in the difference and is never computed: only the contraction
    terms of the two orders are accumulated, and a pair with none is skipped.
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
    return DiffOp._normalized(sums, op.den)


def swap_vars(op: DiffOp) -> DiffOp:
    """The substitution z <-> zbar, dz <-> dzbar (coefficients untouched)."""
    return DiffOp._normalized({(j, i, l, k): v for (i, j, k, l), v in op.nums.items()}, op.den)
