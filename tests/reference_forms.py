"""Closed forms the package no longer calls, kept as test references.

``psi_series`` writes psi_{n,m} in (z, zbar) from the full associated-function
sum for every 0 <= m <= n, where ``chain_psi`` uses the direct chain head at
m = 0. ``phi_scale_sq`` is the squared su(2) rescaling m!/(n-m)! of phi
relative to psi as a ``Fraction``, which ``model.su2_factor`` reads in floats
without building it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from jordan_osc.model import Params, _chain_series, _check_index, from_chain
from jordan_osc.weyl import Poly2


def psi_series(params: Params, n: int, m: int) -> Poly2:
    """psi_{n,m} in (z, zbar) from the full associated-function sum, for every
    0 <= m <= n (see model._chain_series)."""
    return from_chain(params, _chain_series(params, n, m))


def phi_scale_sq(n: int, m: int) -> Fraction:
    """Squared su(2) rescaling m!/(n-m)! of phi relative to psi."""
    _check_index(n, m)
    return Fraction(factorial(m), factorial(n - m))
