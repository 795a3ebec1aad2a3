"""Gaussian-weighted bilinear form, moments, and block matrices.

Everything here evaluates the bilinear pairing

    <<f|g>> = integral f(x) g(x) dx1 dx2,      z = x1 + i x2, zbar = x1 - i x2,

for basis functions f = kappa * P * envelope, each given by its chain form P
in (w, zbar), w = a z + b zbar, as ``chain_psi`` and ``apply`` return it
(kappa and the envelope are implied by the point, see model). Two independent
routes are provided: an exact rational route in the chain variables, and a
numerical Gauss-Hermite route in (x1, x2) on the (z, zbar) form
``build_psi`` (the oracle). The exact route is authoritative; the oracle
exists to catch an error in it.

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

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import Params, apply, chain_psi, make_operator
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


def _eval_on_grid(poly: Poly2, zgrid: np.ndarray, zbgrid: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zgrid, dtype=complex)
    for (i, j), c in poly.sorted_terms():
        acc += complex(c) * zgrid**i * zbgrid**j
    return acc


def minimum_order(f: Poly2, g: Poly2) -> int:
    """Per-axis Gauss-Hermite order floor for a given integrand pair."""
    return max(32, f.total_degree() + g.total_degree() + 8)


@lru_cache(maxsize=8)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite nodes and weights of one order, read-only since every
    call of that order shares them."""
    rule = np.polynomial.hermite.hermgauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


def quadrature_oracle(params: Params, f: Poly2, g: Poly2, order: int | None = None) -> complex:
    """<<f|g>> of two (z, zbar) forms (see build_psi) by tensor-product
    Gauss-Hermite quadrature on (x1, x2).

    With z = x1 + i x2 the squared envelope is
    exp(-2(a+b) x1^2 - 2(a-b) x2^2 + 4 i b x1 x2); the real Gaussian factors
    become the Hermite weights and the bounded oscillatory factor stays in the
    integrand. Requires a > b; the default order is max(32, total degree + 8)
    per axis and a caller-supplied order below that floor is rejected.
    """
    a, b = float(params.a), float(params.b)
    if not a > b:
        raise OracleUnavailableError(f"quadrature needs a > b, got a={a}, b={b}")
    floor = minimum_order(f, g)
    if order is None:
        order = floor
    elif order < floor:
        raise ValueError(f"order {order} is below the degree-dependent minimum {floor}")
    nodes, weights = _hermite_rule(order)
    s1 = math.sqrt(2 * (a + b))
    s2 = math.sqrt(2 * (a - b))
    x1 = (nodes / s1)[:, None]
    x2 = (nodes / s2)[None, :]
    zgrid = x1 + 1j * x2
    zbgrid = x1 - 1j * x2
    integrand = (
        _eval_on_grid(f.to_float(), zgrid, zbgrid)
        * _eval_on_grid(g.to_float(), zgrid, zbgrid)
        * np.exp(4j * b * x1 * x2)
    )
    w2d = weights[:, None] * weights[None, :]
    total = (w2d * integrand).sum() / (s1 * s2)
    # kappa^2 = 2a/pi for the normalizations of the two functions
    return complex(total * 2 * a / math.pi)


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
    ham = make_operator(params, "H")
    fns = [chain_psi(params, n, m) for m in range(n + 1)]
    images = [apply(params, ham, fn) for fn in fns]
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
