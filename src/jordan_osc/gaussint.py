"""Gaussian-weighted bilinear form, moments, and block matrices.

Everything here evaluates the bilinear pairing

    <<f|g>> = integral f(x) g(x) dx1 dx2,      z = x1 + i x2, zbar = x1 - i x2,

for basis functions f = kappa * P * envelope, each given by its chain form P
in (w, zbar), w = a z + b zbar, as ``chain_psi`` and ``apply`` return it
(kappa and the envelope are implied by the point, see model). Two independent
routes are provided: an exact rational route in the chain variables, and a
numerical route (the oracle), plain-Python tensor-product Gauss-Hermite
quadrature in (x1, x2) on the (z, zbar) form ``build_psi``, read in floats.
The exact route is authoritative; the oracle exists to catch an error in it.

In the chain variables the squared envelope is exp(-2 w zbar), whose second
moments are <w w> = <zbar zbar> = 0 and <w zbar> = 1/2; so by Wick's theorem
integral w^p zbar^q envelope^2 = delta_pq p!/2^p * pi/(2a), whatever a and b
are. Each function carries one factor kappa = sqrt(2a/pi), so the pairing is
the plain scalar sum(...) with no pi, and no moment table is needed: a term
pair w^e zbar^i, w^e' zbar^i' contributes u u' s!/2^s when
e + e' = i + i' = s, and nothing otherwise. The weights s!/2^s are integers
over one power of two (floats over 1 in float mode), and the pairing sums
them with the numerators of f and g in integers, dividing once. Every term
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
from operator import mul

from .model import Params, apply, chain_psi, point_cache
from .weyl import Coeff, Poly2, join_modes, lift, linear_combination, to_ints, zero


class OracleUnavailableError(RuntimeError):
    """The quadrature oracle needs a > b for a convergent real-space measure."""


def moment(params: Params, p_deg: int, q_deg: int) -> Coeff:
    """integral w^p zbar^q envelope^2 in units of pi/(2a): p!/2^p if p == q,
    else zero (see the module docstring); the same at every point."""
    if p_deg != q_deg or p_deg < 0:
        return zero(params.mode)
    return lift(Fraction(math.factorial(p_deg), 2**p_deg), params.mode)


@lru_cache(maxsize=None)
def _chain_weights(mode: str, top: int) -> tuple[tuple, int]:
    """(weights, den): weights[s] / den = s!/2^s for s <= top, as integers over
    one denominator (floats over 1 in float mode)."""
    weights, den = to_ints(mode, [lift(Fraction(math.factorial(s), 2**s), mode) for s in range(top + 1)])
    return tuple(weights), den


def inner_product(params: Params, f: Poly2, g: Poly2) -> Coeff:
    """<<f|g>> of two chain forms as a plain coefficient (bilinear, symmetric;
    no conjugation).

    The term pair w^e zbar^i (of f), w^e' zbar^i' (of g) contributes
    u u' s!/2^s when e + e' = i + i' = s, that is when e' - i' = i - e; g's
    terms are grouped by e' - i', so each term of f reads only its partners.
    """
    mode = join_modes(params, f, g)
    partners: dict = {}
    for (e, i), u in g.nums.items():
        partners.setdefault(e - i, []).append((e, u))
    top = max((e for e, _ in f.nums), default=0) + max((e for e, _ in g.nums), default=0)
    weights, weight_den = _chain_weights(mode, top)
    total = 0
    for (e, i), uf in f.nums.items():
        partial = 0
        for e2, ug in partners.get(i - e, ()):
            partial += ug * weights[e + e2]
        if partial:
            total += uf * partial
    return total / lift(f.den * g.den * weight_den, mode)


def minimum_order(f: Poly2, g: Poly2) -> int:
    """Per-axis Gauss-Hermite order floor for a given integrand pair."""
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
    """The tensor-product rule in (x1, x2) of one point (a, b read in floats)
    and order, and the moments of the squared envelope read from it so far.

    The rule is folded by the mirror symmetry of its nodes: the nonnegative
    nodes, each positive one carrying its mirror's weight too. Under either
    mirror the phase exp(4 i b x1 x2) keeps its cosine and flips its sine, so
    the x-moment sum_ij w_i w_j x1^u x2^v exp(...) over the full rule is the
    folded sum with cos (u, v even) or i sin (u, v odd), and zero otherwise.
    Each folded row keeps w cos and w sin of the phase as float lists (``sum``
    is fastest on floats). The x-moments, and the z^p zbar^q moments combined
    from them, are computed once each, when a call first needs them.
    """

    def __init__(self, a: float, b: float, order: int):
        s1, s2 = math.sqrt(2 * (a + b)), math.sqrt(2 * (a - b))
        nodes, weights = _hermite_rule(order)
        half = order // 2
        folded = [2 * w for w in weights[half:]]
        if order % 2:
            folded[0] = weights[half]  # the middle node is its own mirror
        self.x1 = [x / s1 for x in nodes[half:]]
        self.x2 = [x / s2 for x in nodes[half:]]
        # times kappa^2 = 2a/pi, the norm of the two functions, over s1 s2
        # from the change of variables
        scale = 2 * a / (math.pi * s1 * s2)
        self.x1_powers = [[w * scale for w in folded]]  # [u][i]: scale w_i x1_i^u
        self.x2_powers = [[1.0] * len(folded)]  # [v][j]: x2_j^v
        phases = [[4 * b * x1 * x2 for x2 in self.x2] for x1 in self.x1]
        self.rows = (  # [i][j]: w_j cos, w_j sin of the phase at (x1_i, x2_j)
            [[w * math.cos(t) for w, t in zip(folded, row)] for row in phases],
            [[w * math.sin(t) for w, t in zip(folded, row)] for row in phases],
        )
        self.columns: list[list[float]] = []  # [v][i]: sum_j x2_j^v rows[v % 2][i][j]
        self.x_moments: dict = {}
        self.z_moments: dict = {}

    def _x_moment(self, u: int, v: int) -> float:
        """The folded x1^u x2^v moment, u = v mod 2 (a factor i left out when
        both are odd)."""
        value = self.x_moments.get((u, v))
        if value is None:
            while len(self.x2_powers) <= v:
                self.x2_powers.append(list(map(mul, self.x2_powers[-1], self.x2)))
            while len(self.columns) <= v:
                powers = self.x2_powers[len(self.columns)]
                self.columns.append([sum(map(mul, powers, row)) for row in self.rows[len(self.columns) % 2]])
            while len(self.x1_powers) <= u:
                self.x1_powers.append(list(map(mul, self.x1_powers[-1], self.x1)))
            value = self.x_moments[u, v] = sum(map(mul, self.x1_powers[u], self.columns[v]))
        return value

    def moment(self, p: int, q: int) -> float:
        """kappa^2 times the quadrature of z^p zbar^q envelope^2.

        (x1 + i x2)^p (x1 - i x2)^q = sum_v i^v c_v x1^(p+q-v) x2^v with
        c_v = sum_k C(p,k) C(q,v-k) (-1)^(v-k); the x-moments are real for v
        even and i times real for v odd, so the moment is real, and zero when
        p + q is odd.
        """
        value = self.z_moments.get((p, q))
        if value is None:
            terms = []
            if not (p + q) % 2:
                for v in range(p + q + 1):
                    c = sum(math.comb(p, k) * math.comb(q, v - k) * (-1) ** (v - k)
                            for k in range(max(0, v - q), min(p, v) + 1))
                    if c:
                        terms.append((-1) ** ((v + 1) // 2) * c * self._x_moment(p + q - v, v))
            value = self.z_moments[p, q] = math.fsum(terms)
        return value


def quadrature_oracle(params: Params, f: Poly2, g: Poly2, order: int | None = None) -> complex:
    """<<f|g>> of two (z, zbar) forms (see build_psi) by tensor-product
    Gauss-Hermite quadrature on (x1, x2).

    With z = x1 + i x2 the squared envelope is
    exp(-2(a+b) x1^2 - 2(a-b) x2^2 + 4 i b x1 x2); the real Gaussian factors
    become the Hermite weights and the bounded oscillatory factor stays in the
    integrand. Requires a > b in the point's own arithmetic, and
    OverflowError where a reading in floats leaves the float range (a, a - b
    or a coefficient, or the estimate). The default order is max(32, total
    degree + 8) per axis and a caller-supplied order below that floor is
    rejected. The grid of each order lives in the point's store (see
    _QuadratureGrid), and the pairing sums the terms of f g against its moments.
    """
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
    store = point_cache(params)
    grid = store.get(("quadrature_grid", order))
    if grid is None:
        grid = store["quadrature_grid", order] = _QuadratureGrid(a, b, order)
    g_terms = g.to_float().nums.items()
    product: dict = defaultdict(int)
    for (p, q), cf in f.to_float().nums.items():
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
    return linear_combination(params.mode, (
        (inner_product(params, chain_psi(params, n, n - m), f), chain_psi(params, n, m))
        for n in range(n_max + 1)
        for m in range(n + 1)
    ))
