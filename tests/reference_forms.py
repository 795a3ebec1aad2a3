"""Forms the package no longer builds, kept as test references.

``chain_series`` is the paper's associated-function sum for psi_{n,m} in the
chain variables (w, zbar), term by term with the normalization c_n, whose
n! and (8ab)^n cancel in the closed form ``model.chain_psi`` builds;
``pochhammer`` and ``alpha_coeffs`` are its factors, and ``psi_series``
writes it in (z, zbar). ``phi_scale_sq`` is the squared su(2) rescaling
m!/(n-m)! of phi relative to psi as a ``Fraction``, which
``model.su2_factor`` reads in floats without building it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from jordan_osc.model import Params, _check_index, from_chain
from jordan_osc.weyl import Poly2, to_ints


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


def chain_series(params: Params, n: int, m: int) -> Poly2:
    """The paper's sum in the chain variables (w, zbar), w = a z + b zbar:

    psi_{n,m} = c_n (2ab)^(n-m) sum_i alpha_i^(n-m) (2m-n+i+1)_(2n-2m-i) zbar^i w^(2m-n+i),
    c_n = (4 sqrt(ab))^n / ((8ab)^n n!).

    The rising factorial vanishes exactly when e = 2m-n+i < 0, so the sum
    starts at i = max(0, n-2m): one term w^e zbar^i per i.
    """
    _check_index(n, m)
    k = n - m
    alphas = alpha_coeffs(k)
    sums = {(2 * m - n + i, i): alphas[i] * pochhammer(2 * m - n + i + 1, 2 * n - 2 * m - i)
            for i in range(max(0, n - 2 * m), k + 1)}
    c_n = (4 * params.sqrt_ab) ** n / ((8 * params.a * params.b) ** n * factorial(n))
    (front,), den = to_ints(params.mode, [c_n * (2 * params.a * params.b) ** k])
    return Poly2._normalized(params.mode, {key: front * v for key, v in sums.items()}, den)


def psi_series(params: Params, n: int, m: int) -> Poly2:
    """psi_{n,m} in (z, zbar) from the paper's sum (see chain_series)."""
    return from_chain(params, chain_series(params, n, m))


def phi_scale_sq(n: int, m: int) -> Fraction:
    """Squared su(2) rescaling m!/(n-m)! of phi relative to psi."""
    _check_index(n, m)
    return Fraction(factorial(m), factorial(n - m))
