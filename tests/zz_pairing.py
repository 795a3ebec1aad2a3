"""The pairing in (z, zbar) through the moment recursion, kept as a test oracle.

The package pairs chain forms in (w, zbar), w = a z + b zbar, where every
moment is p!/2^p or zero (see gaussint). This module keeps the independent
derivation it replaced: the moments I(p, q) = integral z^p zbar^q envelope^2,
in units of pi/(2a), from the two integration-by-parts rules, and the pairing
of two (z, zbar) forms term by term against them, at the point's twin. A
chain form f is paired here as ``from_chain(params, f)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jordan_osc.model import Params
from jordan_osc.weyl import Poly2, to_ints

# params -> (rows, den), the moment table of each point paired so far
TABLES: dict = {}


def moment_rows(params: Params, degree: int) -> tuple[list[list], int]:
    """(rows, den), the moment table of ``params`` up to total degree ``degree``.

    rows[r][q] / den = I(q + 2r, q) in units of pi/(2a), rows of integers;
    row r holds q <= T - r, where
    T = len(rows) - 1 is the half-degree built so far. The moments come from
    the two integration-by-parts rules

        p I(p-1, q) = 2a I(p, q+1)
        q I(p, q-1) = 2a I(p+1, q) + 4b I(p, q+1)

    with base I(0,0) = pi/(2a): along a row, I(p, q) = p/(2a) I(p-1, q-1),
    and down the first column, I(p, 0) = -b (p-1)/a^2 I(p-2, 0). Every other
    moment (p < q, or p - q odd) vanishes and is not stored. New moments are
    computed from the last one of each row, then all rescaled to one den.
    """
    params = params.twin
    rows, den = TABLES.get(params, ([[1]], 1))
    top, built = degree // 2, len(rows) - 1
    if top <= built:
        return rows, den
    a, b = params.a, params.b
    grown = [[Fraction(row[-1], den)] for row in rows]
    for r in range(built + 1, top + 1):
        grown.append([-(2 * r - 1) * b / (a * a) * grown[r - 1][0]])
    for r, row in enumerate(grown):
        for q in range(len(rows[r]) if r <= built else 1, top - r + 1):
            row.append((2 * r + q) / (2 * a) * row[-1])
    new = [row[1:] if r <= built else row for r, row in enumerate(grown)]
    nums, new_den = to_ints([c for row in new for c in row])
    common, flat = math.lcm(den, new_den), iter(nums)
    old_scale, new_scale = common // den, common // new_den
    rows = [[v * old_scale for v in old] + [next(flat) * new_scale for _ in row]
            for old, row in zip(rows + [[]] * (top - built), new)]
    TABLES[params] = rows, common
    return rows, common


def zz_moment(params: Params, p_deg: int, q_deg: int) -> Fraction:
    """I(p, q) = integral z^p zbar^q envelope^2 in units of pi/(2a); zero
    outside the support p >= q >= 0, p - q even (see moment_rows)."""
    excess = p_deg - q_deg
    if q_deg < 0 or excess < 0 or excess % 2:
        return Fraction(0)
    rows, den = moment_rows(params, p_deg + q_deg)
    return Fraction(rows[excess // 2][q_deg], den)


def zz_inner_product(params: Params, f: Poly2, g: Poly2) -> Fraction:
    """<<f|g>> of two (z, zbar) forms: the term pair z^i zbar^j (of f),
    z^i' zbar^j' (of g) contributes c c' I(i + i', j + j'); pairs outside the
    moment support are skipped, and the integer sum is divided once."""
    rows, moment_den = moment_rows(params, f.total_degree() + g.total_degree())
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
    return Fraction(total, f.den * g.den * moment_den)
