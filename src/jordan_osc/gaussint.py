"""Gaussian-weighted bilinear form, moments, and block matrices.

Everything here evaluates the bilinear pairing

    <<f|g>> = integral f(x) g(x) dx1 dx2,      z = x1 + i x2, zbar = x1 - i x2,

for basis functions f = kappa * P * envelope, each given by its ``Poly2`` P in
(z, zbar) (kappa and the envelope are implied by the point, see model), so
``h_block`` writes each chain-form image H psi in (z, zbar) with
``model.from_chain`` before pairing it. Two independent routes are provided:
an exact rational route through the moment recursion, and a numerical
Gauss-Hermite route (the oracle). The exact route is authoritative; the oracle
exists to catch transcription errors in the recursion.

Moments are stored in units of pi/(2a): moment(p, q) is the rational multiple
M with I(p,q) = integral z^p zbar^q envelope^2 = M * pi/(2a). Since each
function carries one factor kappa = sqrt(2a/pi), the pairing of two
functions is kappa^2 * (pi/(2a)) * sum(...) = sum(...), a plain scalar,
so inner_product never needs pi at all.

Most moments vanish: I(p, q) = 0 unless p >= q and p - q is even. Each
parameter point therefore keeps a dense table of the support alone, indexed
by ((p - q)/2, q), built by the integration-by-parts rules and grown when a
larger total degree is asked for. The table lives in the point's store
(model.point_cache), which only the last few points keep, so memory stays
bounded over a sweep of parameter points. The pairing never forms the
product polynomial f*g: it walks the pairs of terms, skips every pair whose
moment is structurally zero, and sums c_f * sum(c_g * I) one term of f at a
time. The pairing is symmetric term by term, so gram_block computes the
entries with m <= m' and mirrors them.

The table is stored like a term map (see weyl), as integer numerators over
one denominator; the pairing sums those of f, g and the table, dividing once.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Params, apply, build_psi, chain_psi, from_chain, make_operator, point_cache
from .weyl import Coeff, Poly2, join_modes, lift, linear_combination, to_ints, zero


class OracleUnavailableError(RuntimeError):
    """The quadrature oracle needs a > b for a convergent real-space measure."""


def _moment_rows(params: Params, degree: int) -> tuple[list[list], int]:
    """(rows, den), the moment table of ``params`` up to total degree ``degree``.

    rows[r][q] / den = I(q + 2r, q) in units of pi/(2a), rows of integers (of
    floats over 1 in float mode); row r holds q <= T - r, where
    T = len(rows) - 1 is the half-degree built so far. The moments come from
    the two integration-by-parts rules

        p I(p-1, q) = 2a I(p, q+1)
        q I(p, q-1) = 2a I(p+1, q) + 4b I(p, q+1)

    with base I(0,0) = pi/(2a): along a row, I(p, q) = p/(2a) I(p-1, q-1),
    and down the first column, I(p, 0) = -b (p-1)/a^2 I(p-2, 0). Every other
    moment (p < q, or p - q odd) vanishes and is not stored. New moments are
    computed from the last one of each row, then all rescaled to one den.
    """
    cache = point_cache(params)
    rows, den = cache.get("moments", ([[1]], 1))
    top, built = degree // 2, len(rows) - 1
    if top <= built:
        return rows, den
    a, b, unit = params.a, params.b, lift(den, params.mode)
    grown = [[row[-1] / unit] for row in rows]
    for r in range(built + 1, top + 1):
        grown.append([-(2 * r - 1) * b / (a * a) * grown[r - 1][0]])
    for r, row in enumerate(grown):
        for q in range(len(rows[r]) if r <= built else 1, top - r + 1):
            row.append((2 * r + q) / (2 * a) * row[-1])
    new = [row[1:] if r <= built else row for r, row in enumerate(grown)]
    nums, new_den = to_ints(params.mode, [c for row in new for c in row])
    common, flat = math.lcm(den, new_den), iter(nums)
    old_scale, new_scale = common // den, common // new_den
    rows = [[v * old_scale for v in old] + [next(flat) * new_scale for _ in row]
            for old, row in zip(rows + [[]] * (top - built), new)]
    cache["moments"] = rows, common
    return rows, common


def moment(params: Params, p_deg: int, q_deg: int) -> Coeff:
    """I(p, q) = integral z^p zbar^q envelope^2 in units of pi/(2a); zero
    outside the support p >= q >= 0, p - q even (see _moment_rows)."""
    excess = p_deg - q_deg
    if q_deg < 0 or excess < 0 or excess % 2:
        return zero(params.mode)
    rows, den = _moment_rows(params, p_deg + q_deg)
    return rows[excess // 2][q_deg] / lift(den, params.mode)


def inner_product(params: Params, f: Poly2, g: Poly2) -> Coeff:
    """<<f|g>> as a plain coefficient (bilinear, symmetric; no conjugation).

    The term pair z^i zbar^j (of f), z^i' zbar^j' (of g) contributes
    c c' I(i + i', j + j'); pairs outside the moment support are skipped.
    """
    mode = join_modes(params, f, g)
    rows, moment_den = _moment_rows(params, f.total_degree() + g.total_degree())
    g_terms = [(i - j, j, c) for (i, j), c in g.nums.items()]
    total = 0
    for (i, j), cf in f.nums.items():
        excess = i - j
        partial = 0
        for g_excess, g_j, cg in g_terms:
            e = excess + g_excess
            if e >= 0 and not e & 1:
                partial += cg * rows[e >> 1][j + g_j]
        if partial:
            total += cf * partial
    return total / lift(f.den * g.den * moment_den, mode)


def _eval_on_grid(poly: Poly2, zgrid: np.ndarray, zbgrid: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zgrid, dtype=complex)
    for (i, j), c in poly.sorted_terms():
        acc += complex(c) * zgrid**i * zbgrid**j
    return acc


def minimum_order(f: Poly2, g: Poly2) -> int:
    """Per-axis Gauss-Hermite order floor for a given integrand pair."""
    return max(32, f.total_degree() + g.total_degree() + 8)


def quadrature_oracle(params: Params, f: Poly2, g: Poly2, order: int | None = None) -> complex:
    """<<f|g>> by tensor-product Gauss-Hermite quadrature on (x1, x2).

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
    nodes, weights = np.polynomial.hermite.hermgauss(order)
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
    fns = [build_psi(params, n, m) for m in range(n + 1)]
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
    fns = [build_psi(params, n, m) for m in range(n + 1)]
    images = [from_chain(params, apply(params, ham, chain_psi(params, n, m))) for m in range(n + 1)]
    return tuple(
        tuple(inner_product(params, fns[n - k], images[m]) for m in range(n + 1))
        for k in range(n + 1)
    )


def expand_in_basis(params: Params, f: Poly2, n_max: int) -> Poly2:
    """Truncated resolution of identity: sum over n <= n_max of
    <<psi_{n,n-m}|f>> psi_{n,m}; reproduces any f in the span of those levels."""
    return linear_combination(params.mode, (
        (inner_product(params, build_psi(params, n, n - m), f), build_psi(params, n, m))
        for n in range(n_max + 1)
        for m in range(n + 1)
    ))
