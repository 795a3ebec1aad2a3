"""Gaussian-weighted bilinear form, moments, and block matrices.

Everything here evaluates the bilinear pairing

    <<f|g>> = integral f(x) g(x) dx1 dx2,      z = x1 + i x2, zbar = x1 - i x2,

for basis functions f = kappa * P * envelope, each given by its chain form P
in (w, zbar), w = a z + b zbar, as ``chain_psi`` and ``apply`` return it
(kappa and the envelope are implied by the point, see model). Two independent
routes are provided: an exact rational route in the chain variables, and a
numerical route (the oracle), a plain-Python real separable Gauss-Hermite
rule on the (z, zbar) form ``build_psi``, each coefficient rounded once to a
float (see _QuadratureGrid).
The exact route is authoritative; the oracle exists to catch an error in it.

In the chain variables the squared envelope is exp(-2 w zbar), whose second
moments are <w w> = <zbar zbar> = 0 and <w zbar> = 1/2; so by Wick's theorem
integral w^p zbar^q envelope^2 = delta_pq p!/2^p * pi/(2a), whatever a and b
are. Each function carries one factor kappa = sqrt(2a/pi), so the pairing is
the plain scalar sum(...) with no pi, and no moment table is needed: a term
pair w^e zbar^i, w^e' zbar^i' contributes u u' s!/2^s when
e + e' = i + i' = s, and nothing otherwise. The weights s!/2^s are integers
over one power of two, and the pairing sums them with the numerators of f and
g in integers, dividing once. Every term
of psi_{n,m} has e - i = 2m - n, so two functions of one level pair to zero
unless m + m' = n, found from one lookup. The pairing is symmetric term by
term, so gram_block computes the entries with m <= m' and mirrors them.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from .model import Params, _per_point, apply, chain_psi
from .weyl import Poly2, linear_combination, to_ints


class OracleUnavailableError(RuntimeError):
    """The quadrature oracle needs a > b for a convergent real-space measure."""


def moment(params: Params, p_deg: int, q_deg: int) -> Fraction:
    """integral w^p zbar^q envelope^2 in units of pi/(2a): p!/2^p if p == q,
    else zero (see the module docstring); the same at every point."""
    if p_deg != q_deg or p_deg < 0:
        return Fraction(0)
    return Fraction(math.factorial(p_deg), 2**p_deg)


@lru_cache(maxsize=None)
def _chain_weights(top: int) -> tuple[tuple, int]:
    """(weights, den): weights[s] / den = s!/2^s for s <= top, as integers over one denominator."""
    weights, den = to_ints([Fraction(math.factorial(s), 2**s) for s in range(top + 1)])
    return tuple(weights), den


def inner_product(params: Params, f: Poly2, g: Poly2) -> Fraction:
    """<<f|g>> of two chain forms as a plain coefficient (bilinear, symmetric;
    no conjugation).

    The term pair w^e zbar^i (of f), w^e' zbar^i' (of g) contributes
    u u' s!/2^s when e + e' = i + i' = s, that is when e' - i' = i - e; g's
    terms are grouped by e' - i', so each term of f reads only its partners.
    """
    partners: dict = {}
    for (e, i), u in g.nums.items():
        partners.setdefault(e - i, []).append((e, u))
    top = max((e for e, _ in f.nums), default=0) + max((e for e, _ in g.nums), default=0)
    weights, weight_den = _chain_weights(top)
    total = 0
    for (e, i), uf in f.nums.items():
        partial = 0
        for e2, ug in partners.get(i - e, ()):
            partial += ug * weights[e + e2]
        if partial:
            total += uf * partial
    return Fraction(total, f.den * g.den * weight_den)


def minimum_order(f: Poly2, g: Poly2) -> int:
    """Per-axis Gauss-Hermite order floor for a given integrand pair: a rule of
    order N is exact up to degree 2N - 1 per axis on the shifted form (see
    _QuadratureGrid), where f g has degree at most its total on either axis."""
    return max(32, f.total_degree() + g.total_degree() + 8)


def _orthonormal_hermite(order: int, x: float) -> tuple[float, float]:
    """(h_order(x), h_{order-1}(x)) of the Hermite functions orthonormal under
    exp(-x^2), by their three-term recurrence."""
    h, h_prev = math.pi**-0.25, 0.0
    for j in range(1, order + 1):
        h, h_prev = x * math.sqrt(2 / j) * h - math.sqrt((j - 1) / j) * h_prev, h
    return h, h_prev


@lru_cache(maxsize=8)
def _hermite_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The Gauss-Hermite nodes (ascending) and weights of one order, as tuples
    since every call of that order shares them.

    Each nonnegative root is found by Newton's method on the orthonormal
    recurrence, largest first, each seeded from the roots before it as in the
    classic ``gauher`` routine, and mirrored; its weight is 2/h'(x)^2 for the
    orthonormal h of that order, h' = sqrt(2 order) h_{order-1}.
    """
    roots, weights = [], []
    for k in range((order + 1) // 2):
        if k == 0:
            x = math.sqrt(2 * order + 1) - 1.85575 * (2 * order + 1) ** -0.16667
        elif k == 1:
            x -= 1.14 * order**0.426 / x
        elif k == 2:
            x = 1.86 * x - 0.86 * roots[0]
        elif k == 3:
            x = 1.91 * x - 0.91 * roots[1]
        else:
            x = 2 * x - roots[k - 2]
        for _ in range(100):
            h, h_prev = _orthonormal_hermite(order, x)
            step = h / (math.sqrt(2 * order) * h_prev)
            x -= step
            if abs(step) <= 1e-15 * (1 + abs(x)):
                break
        slope = math.sqrt(2 * order) * _orthonormal_hermite(order, x)[1]
        roots.append(x)
        weights.append(2 / (slope * slope))
    if order % 2:
        roots[-1] = 0.0  # the middle root, its own mirror
    half = order // 2
    return tuple([-x for x in roots[:half]] + roots[::-1]), tuple(weights[:half] + weights[::-1])


class _QuadratureGrid:
    """The Gauss-Hermite rule of one point (a, b read in floats) and order,
    and the moments read from it so far.

    x1 = y + i c x2, c = b/(a+b), moves the contour of an entire integrand,
    Gaussian in the strip, and makes the squared envelope
    exp(-2(a+b) y^2 - 2 a^2 x2^2/(a+b)), real and separable, with
    z = y + i(1+c) x2, zbar = y - i(1-c) x2. The rule in t on each axis,
    y = t/sqrt(2(a+b)), x2 = t sqrt((a+b)/2)/a, makes kappa^2 = 2a/pi times
    the Jacobian 1/pi. The rule is mirrored, so each axis keeps its squared
    nodes, the row w_i x_i^(2k) of the last k, and its moments so far.
    """

    def __init__(self, a: float, b: float, order: int):
        nodes, weights = _hermite_rule(order)
        self.c = b / (a + b)
        self.axes = [
            ([(t / math.sqrt(2 * (a + b))) ** 2 for t in nodes], [w / math.pi for w in weights], []),
            ([(t * math.sqrt((a + b) / 2) / a) ** 2 for t in nodes], list(weights), []),
        ]
        self.z_moments: dict = {}

    def _axis_moment(self, axis: int, k: int) -> float:
        """sum_i w_i x_i^(2k) on one axis (the 1/pi on the first)."""
        squares, row, moments = self.axes[axis]
        while len(moments) <= k:
            if moments:
                row[:] = [r * s for r, s in zip(row, squares)]
            moments.append(sum(row))
        return moments[k]

    def moment(self, p: int, q: int) -> float:
        """kappa^2 times the quadrature of z^p zbar^q envelope^2: z^p zbar^q =
        sum_kl C(p,k) C(q,l) (1+c)^k (1-c)^l i^k (-i)^l y^(p+q-k-l) x2^(k+l),
        and only k + l even survives, with sign (-1)^((k+l)/2 + l); so the
        moment is real, and zero when p + q is odd. As c < 1/2, no term
        outgrows the moment by more than 3^(p+q)."""
        value = self.z_moments.get((p, q))
        if value is None:
            terms = []
            if not (p + q) % 2:
                for k in range(p + 1):
                    for l in range(k % 2, q + 1, 2):
                        sign = -1 if ((k + l) // 2 + l) % 2 else 1
                        terms.append(sign * math.comb(p, k) * math.comb(q, l) * (1 + self.c) ** k
                                     * (1 - self.c) ** l * self._axis_moment(0, (p + q - k - l) // 2)
                                     * self._axis_moment(1, (k + l) // 2))
            value = self.z_moments[p, q] = math.fsum(terms)
        return value


@_per_point
def _quadrature_grid(params: Params, order: int) -> _QuadratureGrid:
    return _QuadratureGrid(float(params.a), float(params.b), order)


def quadrature_oracle(params: Params, f: Poly2, g: Poly2, order: int | None = None) -> complex:
    """<<f|g>> of two (z, zbar) forms (see build_psi) by tensor-product
    Gauss-Hermite quadrature, at the point's twin.

    With z = x1 + i x2 the squared envelope is
    exp(-2(a+b) x1^2 - 2(a-b) x2^2 + 4 i b x1 x2); completing the square in
    x1 makes it a real Gaussian in each of two shifted coordinates, whose
    factors become the Hermite weights (see _QuadratureGrid), with nothing
    left to oscillate. Requires a > b, and OverflowError where a reading in
    floats leaves the float range (a, a > b, a coefficient, each rounded
    once as v / den, or the estimate). The default order is max(32, total
    degree + 8) per axis and a caller-supplied order below that floor is
    rejected. The grid of each order lives in the point's store (see
    _QuadratureGrid), and the pairing sums the terms of f g against its moments.
    """
    params = params.twin
    if not params.a > params.b:
        raise OracleUnavailableError(f"quadrature needs a > b, got a={params.a}, b={params.b}")
    a, b = float(params.a), float(params.b)
    if not (math.isfinite(a) and a > b):
        raise OverflowError(f"a = {a} and b = {b} in floats: the point leaves the float range")
    floor = minimum_order(f, g)
    if order is None:
        order = floor
    elif order < floor:
        raise ValueError(f"order {order} is below the degree-dependent minimum {floor}")
    grid = _quadrature_grid(params, order)
    g_terms = [(key, v / g.den) for key, v in g.nums.items()]  # int / int rounds once, as float(Fraction)
    product: dict = defaultdict(int)
    for (p, q), v in f.nums.items():
        cf = v / f.den
        for (p2, q2), cg in g_terms:
            product[p + p2, q + q2] += cf * cg
    estimate = complex(sum(c * grid.moment(p, q) for (p, q), c in product.items()))
    if not cmath.isfinite(estimate):
        raise OverflowError(f"the quadrature estimate {estimate} leaves the float range")
    return estimate


# ---------------------------------------------------------------------------
# block matrices
# ---------------------------------------------------------------------------


def gram_block(params: Params, n: int) -> tuple:
    """Matrix G[m][m'] = <<psi_{n,m} | psi_{n,m'}>>; the pairing is symmetric,
    so only the entries with m <= m' are paired and the rest mirror them."""
    fns = [chain_psi(params, n, m) for m in range(n + 1)]
    upper = {
        (m, mp): inner_product(params, fns[m], fns[mp])
        for m in range(n + 1)
        for mp in range(m, n + 1)
    }
    return tuple(
        tuple(upper[min(m, mp), max(m, mp)] for mp in range(n + 1))
        for m in range(n + 1)
    )


def h_block(params: Params, n: int) -> tuple:
    """Matrix M[k][m] = <<psi_{n,n-k} | H psi_{n,m}>>; biorthogonality turns it
    into the level-n Jordan block E_n I + superdiagonal of ones."""
    fns = [chain_psi(params, n, m) for m in range(n + 1)]
    images = [apply(params, "H", fn) for fn in fns]
    return tuple(
        tuple(inner_product(params, fns[n - k], images[m]) for m in range(n + 1))
        for k in range(n + 1)
    )


def expand_in_basis(params: Params, f: Poly2, n_max: int) -> Poly2:
    """Truncated resolution of identity on a chain form: sum over n <= n_max of
    <<psi_{n,n-m}|f>> psi_{n,m}, in chain form; reproduces any f in the span
    of those levels."""
    return linear_combination((
        (inner_product(params, chain_psi(params, n, n - m), f), chain_psi(params, n, m))
        for n in range(n_max + 1)
        for m in range(n + 1)
    ))
