"""Gaussian moments, bilinear pairing, block matrices, quadrature oracle."""

import cmath
import random
from fractions import Fraction
from math import factorial, gcd, pi, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordan_osc import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    OracleUnavailableError,
    Params,
    Poly2,
    build_psi,
    chain_psi,
    energy,
    expand_in_basis,
    gram_block,
    h_block,
    inner_product,
    lift,
    minimum_order,
    model,
    moment,
    quadrature_oracle,
)
from jordan_osc import gaussint
from jordan_osc.model import from_chain

import zz_pairing
from conftest import mixed_fractions, polys
from zz_pairing import zz_inner_product, zz_moment

F = Fraction


def reference_moment(P, p, q):
    """The (z, zbar) integration-by-parts recursion, one moment at a time."""
    if p < 0 or q < 0:
        return F(0)
    if q >= 1:
        return p / (2 * P.a) * reference_moment(P, p - 1, q - 1)
    if p == 0:
        return F(1)
    return -(p - 1) * P.b / P.a**2 * reference_moment(P, p - 2, 0)


def pair_term_by_term(f: Poly2, g: Poly2, moment_of):
    """The pairing as the per-term coefficient loop the integer kernel replaced."""
    return sum((cf * cg * moment_of(i + i2, j + j2)
                for (i, j), cf in f.terms.items() for (i2, j2), cg in g.terms.items()), 0)


def _evaluate(h: Poly2, z: complex, zb: complex) -> complex:
    return sum(c * z**i * zb**j for (i, j), c in h.terms.items())


def grid_quadrature(P, f: Poly2, g: Poly2, order: int) -> complex:
    """A second rule: kappa^2 times the sum over the full tensor-product grid
    in (x1, x2), the cross term of the squared envelope kept as the
    oscillating factor exp(4 i b x1 x2); good while b/a is small."""
    a, b = float(P.a), float(P.b)
    s1, s2 = sqrt(2 * (a + b)), sqrt(2 * (a - b))
    nodes, weights = gaussint._hermite_rule(order)
    total = 0j
    for t1, w1 in zip(nodes, weights):
        for t2, w2 in zip(nodes, weights):
            x1, x2 = t1 / s1, t2 / s2
            z, zb = complex(x1, x2), complex(x1, -x2)
            total += w1 * w2 * _evaluate(f, z, zb) * _evaluate(g, z, zb) * cmath.exp(4j * b * x1 * x2)
    return total * 2 * a / (pi * s1 * s2)


def shifted_quadrature(P, f: Poly2, g: Poly2, order: int) -> complex:
    """The oracle's rule as written, with no moments: the sum over every point
    of the full tensor-product rule on the shifted coordinates, x1 = y + i c x2,
    c = b/(a+b), y = t1/sqrt(2(a+b)), x2 = t2 sqrt((a+b)/2)/a, over pi."""
    a, b = float(P.a), float(P.b)
    c = b / (a + b)
    nodes, weights = gaussint._hermite_rule(order)
    total = 0j
    for t1, w1 in zip(nodes, weights):
        for t2, w2 in zip(nodes, weights):
            y, x2 = t1 / sqrt(2 * (a + b)), t2 * sqrt((a + b) / 2) / a
            z, zb = complex(y, (1 + c) * x2), complex(y, -(1 - c) * x2)
            total += w1 * w2 * _evaluate(f, z, zb) * _evaluate(g, z, zb)
    return total / pi


def _magnitudes(poly: Poly2) -> Poly2:
    return Poly2(poly.mode, {key: abs(c) for key, c in poly.terms.items()})


def z_in_chain(P) -> Poly2:
    """z = (w - b zbar)/a as a chain form."""
    return Poly2(P.mode, {(1, 0): 1 / P.a, (0, 1): -P.b / P.a})


# exact points with unequal denominators in a and b
exact_points = st.tuples(
    st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=5),
    st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=7),
).map(lambda pq: Params.exact(*pq))

# Moments of the paired envelope at a = 1, b = 1/4, computed independently
# with a computer algebra system from the defining two-dimensional integral
#   (2a/pi) Int (x+iy)^p (x-iy)^q exp(-2(a+b)x^2 - 2(a-b)y^2 + 4ib xy) dx dy
# and frozen here. Both the (z, zbar) recursion and the chain pairing of
# z^p zbar^q must reproduce every entry.
FROZEN_MOMENTS = {
    (0, 0): F(1),
    (0, 1): F(0),
    (1, 0): F(0),
    (0, 2): F(0),
    (1, 1): F(1, 2),
    (2, 0): F(-1, 4),
    (0, 3): F(0),
    (1, 2): F(0),
    (2, 1): F(0),
    (3, 0): F(0),
    (0, 4): F(0),
    (1, 3): F(0),
    (2, 2): F(1, 2),
    (3, 1): F(-3, 8),
    (4, 0): F(3, 16),
    (0, 5): F(0),
    (1, 4): F(0),
    (2, 3): F(0),
    (3, 2): F(0),
    (4, 1): F(0),
    (5, 0): F(0),
    (0, 6): F(0),
    (1, 5): F(0),
    (2, 4): F(0),
    (3, 3): F(3, 4),
    (4, 2): F(-3, 4),
    (5, 1): F(15, 32),
    (6, 0): F(-15, 64),
}


class TestMoments:
    def test_frozen_table(self, params):
        one = Poly2.one(EXACT)
        for (p, q), want in FROZEN_MOMENTS.items():
            assert zz_moment(params, p, q) == F(want), (p, q)
            monomial = z_in_chain(params) ** p * Poly2.zbar(EXACT) ** q
            assert inner_product(params, monomial, one) == F(want), (p, q)

    def test_chain_moments(self):
        # p!/2^p on the diagonal, zero off it, the same at every point and in both modes
        for P in (Params.exact(1, F(1, 2)), Params.exact(F(5, 3), F(3, 4)), Params.from_ab(0.79, 0.23)):
            for p in range(8):
                for q in range(8):
                    want = lift(F(factorial(p), 2**p) if p == q else 0, P.mode)
                    got = moment(P, p, q)
                    assert got == want and type(got) is type(want), (P, p, q)

    def test_base_cases(self, params):
        assert moment(params, 0, 0) == F(1)
        assert moment(params, 0, 1) == F(0)
        assert moment(params, 1, 1) == F(1, 2)  # <w zbar> = 1/2
        assert moment(params, 2, 0) == F(0)  # <w w> = 0
        assert zz_moment(params, 0, 0) == F(1)
        assert zz_moment(params, 0, 1) == F(0)
        assert zz_moment(params, 1, 1) == F(1, 2)  # 1/(2a)
        assert zz_moment(params, 2, 0) == F(-1, 4)  # -b/a^2

    def test_odd_total_degree_vanishes(self, params):
        for p in range(8):
            for q in range(8):
                if (p + q) % 2 == 1:
                    assert moment(params, p, q) == 0
                    assert zz_moment(params, p, q) == 0

    def test_zbar_excess_vanishes(self, params):
        # all the zbar-heavy moments die: the paired envelope is analytic in z
        for q in range(1, 7):
            assert moment(params, 0, q) == 0
            assert zz_moment(params, 0, q) == 0

    def test_grown_table_matches_recursion(self, monkeypatch):
        # the test-side (z, zbar) table grows to the degree asked for
        monkeypatch.setattr(zz_pairing, "TABLES", {})
        P = Params.exact(F(5, 3), F(3, 4))
        assert zz_moment(P, 2, 0) == -P.b / P.a**2
        assert len(zz_pairing.TABLES[P][0][0]) == 2  # half-degree 1: built to the degree asked
        for total in range(30, -1, -1):
            for q in range(total + 1):
                assert zz_moment(P, total - q, q) == reference_moment(P, total - q, q), (total - q, q)

    def test_integer_view_follows_table_growth(self, monkeypatch):
        # low-degree pairs build a small integer table first; higher-degree
        # pairs at the same point must see it grown and rescaled, and the
        # chain pairing must agree with it at every step
        monkeypatch.setattr(zz_pairing, "TABLES", {})
        P = Params.exact(F(5, 3), F(3, 4))
        for n in (1, 2, 4, 7):
            for m in range(n + 1):
                f, g = chain_psi(P, n, m), chain_psi(P, n, n - m)
                zf, zg = from_chain(P, f), from_chain(P, g)
                want = pair_term_by_term(zf, zg, lambda p, q: reference_moment(P, p, q))
                assert inner_product(P, f, g) == zz_inner_product(P, zf, zg) == want, (n, m)
            rows, den = zz_pairing.TABLES[P]
            numerators = [v for row in rows for v in row]
            assert len(rows) == n + 1 and all(type(v) is int for v in numerators)
            assert gcd(den, *numerators) == 1  # rescaled to one reduced denominator as it grows

    def test_no_point_keeps_a_table(self):
        points = [Params.exact(F(k + 2, 2), F(1, 3)) for k in range(10)]
        for P in points:
            assert inner_product(P, chain_psi(P, 1, 0), chain_psi(P, 1, 1)) == 1
        assert len(model._POINTS) <= model._POINTS_MAX
        assert not any("moments" in cache for cache in model._POINTS.values())
        # the weights s!/2^s are one shared integer table over a power of two
        weights, den = gaussint._chain_weights(EXACT, 12)
        assert all(type(v) is int for v in weights) and type(den) is int
        assert [F(v, den) for v in weights] == [F(factorial(s), 2**s) for s in range(13)]

    def test_other_parameter_point(self):
        P = Params.exact(F(3, 2), F(2, 3))
        a, b = P.a, P.b
        assert moment(P, 1, 1) == F(1, 2)
        assert moment(P, 2, 0) == 0
        assert moment(P, 2, 2) == F(1, 2)
        assert zz_moment(P, 1, 1) == F(1, 1) / (2 * a)
        assert zz_moment(P, 2, 0) == F(-b / a**2)
        assert zz_moment(P, 2, 2) == F(2, 1) / (2 * a) ** 2


class TestInnerProduct:
    def test_ground_norm(self, params):
        fn = chain_psi(params, 0, 0)
        assert inner_product(params, fn, fn) == F(1)

    def test_chain_heads_self_orthogonal(self, params):
        for n in range(1, 6):
            fn = chain_psi(params, n, 0)
            assert inner_product(params, fn, fn) == 0

    def test_anti_diagonal_partner(self, params):
        got = inner_product(params, chain_psi(params, 1, 0), chain_psi(params, 1, 1))
        assert got == F(1)

    def test_cross_level_orthogonal(self, params):
        for n1, m1, n2, m2 in [(0, 0, 1, 0), (0, 0, 2, 1), (1, 1, 3, 2), (2, 0, 3, 3)]:
            got = inner_product(params, chain_psi(params, n1, m1), chain_psi(params, n2, m2))
            assert got == 0, (n1, m1, n2, m2)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_matches_product_then_moments(self, f, g):
        P = Params.exact(F(3, 2), F(2, 3))
        # oracle: multiply out f*g, then pair each product term with its moment
        want = sum((c * moment(P, i, j) for (i, j), c in (f * g).terms.items()), F(0))
        assert inner_product(P, f, g) == want
        got = inner_product(Params(FLOAT, P.p, P.q), f.to_float(), g.to_float())
        assert abs(got - complex(want)) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(exact_points, polys(mixed_fractions), polys(mixed_fractions))
    def test_matches_per_term_fraction_loop(self, P, f, g):
        want = pair_term_by_term(f, g, lambda p, q: moment(P, p, q))
        got = inner_product(P, f, g)
        assert type(got) is Fraction and got == want
        fP, ff, fg = Params(FLOAT, P.p, P.q), f.to_float(), g.to_float()
        fwant = pair_term_by_term(ff, fg, lambda p, q: moment(fP, p, q))
        # the sum of magnitudes bounds the rounding of either loop
        scale = pair_term_by_term(_magnitudes(ff), _magnitudes(fg), lambda p, q: abs(moment(fP, p, q)))
        fgot = inner_product(fP, ff, fg)
        assert type(fgot) is float and abs(fgot - fwant) <= 1e-12 * max(1.0, scale)

    @settings(max_examples=50, deadline=None)
    @given(exact_points, polys(mixed_fractions), polys(mixed_fractions))
    def test_matches_zz_moment_pairing(self, P, f, g):
        # the chain pairing against the (z, zbar) recursion it replaced
        want = zz_inner_product(P, from_chain(P, f), from_chain(P, g))
        got = inner_product(P, f, g)
        assert type(got) is Fraction and got == want
        fP, ff, fg = Params(FLOAT, P.p, P.q), f.to_float(), g.to_float()
        fwant = zz_inner_product(fP, from_chain(fP, ff), from_chain(fP, fg))
        # from_chain of the magnitudes bounds every expanded coefficient (a, b > 0)
        scale = pair_term_by_term(from_chain(fP, _magnitudes(ff)), from_chain(fP, _magnitudes(fg)),
                                  lambda p, q: abs(zz_moment(fP, p, q)))
        fgot = inner_product(fP, ff, fg)
        assert type(fgot) is float and abs(fgot - fwant) <= 1e-12 * max(1.0, scale)

    @settings(max_examples=30, deadline=None)
    @given(exact_points, polys(mixed_fractions), polys(mixed_fractions), polys(mixed_fractions))
    def test_cancels_to_zero(self, P, f, g, h):
        # <<f | <<f|h>> g - <<f|g>> h>> = 0, summed in one integer total
        combo = g.scale(inner_product(P, f, h)) - h.scale(inner_product(P, f, g))
        got = inner_product(P, f, combo)
        assert type(got) is Fraction and got == 0

    def test_rejects_mixed_modes(self, params):
        f = chain_psi(params, 2, 1)
        with pytest.raises(ModeMismatchError):
            inner_product(params, f, f.to_float())
        with pytest.raises(ModeMismatchError):
            inner_product(Params(FLOAT, params.p, params.q), f, f)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_symmetric(self, f, g):
        # term by term, which is why gram_block mirrors its upper triangle
        P = Params.exact(F(3, 2), F(2, 3))
        assert inner_product(P, f, g) == inner_product(P, g, f)

    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3),
        st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3),
    )
    def test_bilinear_in_both_slots(self, c1, c2):
        P = Params.exact(1, F(1, 2))
        f1 = chain_psi(P, 1, 0)
        f2 = chain_psi(P, 2, 2)
        g = chain_psi(P, 1, 1)
        combo = f1.scale(c1) + f2.scale(c2)
        got = inner_product(P, combo, g)
        want = c1 * inner_product(P, f1, g) + c2 * inner_product(P, f2, g)
        assert got == want
        got = inner_product(P, g, combo)
        want = c1 * inner_product(P, g, f1) + c2 * inner_product(P, g, f2)
        assert got == want


class TestBlocks:
    def test_gram_antidiagonal(self, params):
        for n in range(5):
            block = gram_block(params, n)
            for m in range(n + 1):
                for mp in range(n + 1):
                    want = F(1 if m + mp == n else 0)
                    assert block[m][mp] == want, (n, m, mp)

    def test_h_block_level0(self, params):
        assert h_block(params, 0) == ((energy(params, 0),),)

    def test_h_block_level1_jordan(self, params):
        block = h_block(params, 1)
        e1 = energy(params, 1)
        assert block[0][0] == e1 and block[1][1] == e1
        assert block[0][1] == F(1)
        assert block[1][0] == F(0)

    def test_h_block_conjugates_once(self, params, image_counts):
        h_block(params, 3)
        assert image_counts == {"conjugate": 1, "apply_to": 4}

    def test_blocks_form_no_product_polynomial(self, params, poly_products):
        for n in range(5):
            for m in range(n + 1):
                chain_psi(params, n, m)  # built and cached before counting
        f = Poly2(EXACT, {(0, 0): F(2, 3), (1, 2): F(-1), (3, 0): F(1, 5)})
        poly_products.clear()
        gram_block(params, 4)
        h_block(params, 4)
        expand_in_basis(params, f, 4)
        assert poly_products["mul"] == 0

    def test_h_block_level3_structure(self, params):
        block = h_block(params, 3)
        e3 = energy(params, 3)
        for k in range(4):
            for m in range(4):
                want = e3 if k == m else F(1 if m == k + 1 else 0)
                assert block[k][m] == want, (k, m)


class TestResolutionOfIdentity:
    def test_reproduces_basis_functions(self, params):
        for n in range(4):
            for m in range(n + 1):
                fn = chain_psi(params, n, m)
                assert expand_in_basis(params, fn, 4) == fn

    def test_reproduces_generic_polynomial(self, params):
        terms = {
            (0, 0): F(2, 3),
            (1, 2): F(-1),
            (3, 0): F(1, 5),
            (2, 2): F(7),
        }
        f = Poly2(EXACT, terms)
        assert expand_in_basis(params, f, 4) == f


class TestQuadratureOracle:
    def test_matches_exact_norm(self, params, fparams):
        f = build_psi(fparams, 0, 0)
        got = quadrature_oracle(fparams, f, f)
        assert got.real == pytest.approx(1.0, abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_matches_moment(self, params, fparams):
        # pairing z against zbar samples the (z, zbar) moment I(1,1) = 1/(2a) = 1/2 here
        f = Poly2.z("float")
        g = Poly2.zbar("float")
        assert quadrature_oracle(fparams, f, g) == pytest.approx(0.5, abs=1e-12)
        assert zz_moment(params, 1, 1) == F(1, 2)
        # while z against z samples I(2,0) = -b/a^2 = -1/4
        assert quadrature_oracle(fparams, f, f) == pytest.approx(-0.25, abs=1e-12)
        assert zz_moment(params, 2, 0) == F(-1, 4)
        # and w = a z + b zbar samples the chain moments <w zbar> = 1/2, <w w> = 0
        w = Poly2("float", {(1, 0): fparams.a, (0, 1): fparams.b})
        assert quadrature_oracle(fparams, w, g) == pytest.approx(float(moment(params, 1, 1)), abs=1e-12)
        assert quadrature_oracle(fparams, w, w) == pytest.approx(float(moment(params, 2, 0)), abs=1e-12)

    def test_matches_exact_on_pairs(self, params, fparams):
        pairs = [(1, 0, 1, 1), (2, 1, 2, 1), (3, 0, 3, 3), (2, 0, 3, 1)]
        for n1, m1, n2, m2 in pairs:
            want = inner_product(params, chain_psi(params, n1, m1), chain_psi(params, n2, m2))
            f, g = build_psi(fparams, n1, m1), build_psi(fparams, n2, m2)
            for order in (None, 33, 41):  # odd orders keep a middle node of their own
                got = quadrature_oracle(fparams, f, g, order)
                assert abs(got - complex(want)) < 1e-10, (n1, m1, n2, m2, order)

    def test_requires_a_greater_than_b(self):
        P = Params.from_ab(0.25, 1.0)
        f = Poly2.one("float")
        with pytest.raises(OracleUnavailableError):
            quadrature_oracle(P, f, f)

    def test_decides_a_greater_than_b_exactly(self):
        # a = 1e-350 > b = 1e-354 exactly: the point is fine, its float reading
        # is not (both read 0.0), and neither is a > b that reads a == b
        f = Poly2.one("exact")
        for p, q in ((F(1, 10**175), F(1, 10**177)), (1 + F(1, 2**60), 1)):
            with pytest.raises(OverflowError):
                quadrature_oracle(Params.exact(p, q), f, f)
        with pytest.raises(OracleUnavailableError):
            quadrature_oracle(Params.exact(1, 1), f, f)

    def test_a_non_finite_estimate_raises(self):
        # both basis functions read finite in floats (largest coefficients
        # 1.6e199 and 8e199); their products overflow, and the sum reads NaN
        P = Params.exact(10**50, 10**49)
        with pytest.raises(OverflowError):
            quadrature_oracle(P, build_psi(P, 2, 0), build_psi(P, 3, 1))

    def test_reads_an_exact_basis_as_the_float_one(self, params, fparams):
        f, g = build_psi(params, 2, 1), build_psi(params, 3, 1)
        assert quadrature_oracle(params, f, g) == quadrature_oracle(fparams, f.to_float(), g.to_float())

    def test_order_floor_enforced(self, fparams):
        f = build_psi(fparams, 2, 1)
        with pytest.raises(ValueError):
            quadrature_oracle(fparams, f, f, order=4)
        assert minimum_order(f, f) >= 32

    def test_hermite_rule_cached_and_read_only(self, fparams):
        nodes, weights = gaussint._hermite_rule(32)
        again = gaussint._hermite_rule(32)
        assert again[0] is nodes and again[1] is weights
        for values in (nodes, weights):
            with pytest.raises(TypeError):
                values[0] = 0.0
        # a shared rule gives every call the same bits, also a rule and a grid
        # built again from nothing
        f, g = build_psi(fparams, 3, 1), build_psi(fparams, 3, 2)
        first = quadrature_oracle(fparams, f, g)
        gaussint._hermite_rule.cache_clear()
        del model.point_cache(fparams)[gaussint._quadrature_grid.__wrapped__, 32]
        assert quadrature_oracle(fparams, f, g) == first

    @pytest.mark.parametrize("order", [32, 33, 40, 60])
    def test_hermite_rule_matches_numpy(self, order):
        hermite = pytest.importorskip("numpy.polynomial.hermite")
        nodes, weights = gaussint._hermite_rule(order)
        want_nodes, want_weights = hermite.hermgauss(order)
        assert len(nodes) == len(weights) == order
        for x, want in zip(nodes, want_nodes):
            assert abs(x - want) <= 1e-13 * max(1.0, abs(want))
        for w, want in zip(weights, want_weights):
            assert abs(w - want) <= 1e-13 * want

    @pytest.mark.parametrize("order", [7, 32, 33])
    def test_hermite_rule_mirrored_and_exact(self, order):
        nodes, weights = gaussint._hermite_rule(order)
        assert list(nodes) == sorted(nodes)
        assert nodes == tuple(-x for x in reversed(nodes)) and weights == weights[::-1]
        # exact for x^(2k), k < order: integral x^(2k) exp(-x^2) = Gamma(k + 1/2)
        moment = sqrt(pi)
        for k in range(order):
            got = sum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            assert got == pytest.approx(moment, rel=1e-12), k
            moment *= k + 0.5

    def test_precision_floor_on_criterion_7_inputs(self, params, fparams):
        # the inputs of acceptance criterion 7: every (z, zbar) moment with
        # p + q <= 12, and 20 seeded basis pairs with n <= 8
        cases = [(complex(zz_moment(params, p, q)), Poly2.monomial(p, q, 1.0), Poly2.one("float"))
                 for p in range(13) for q in range(13 - p)]
        rng = random.Random(7)
        for _ in range(20):
            n1, n2 = rng.randint(0, 8), rng.randint(0, 8)
            m1, m2 = rng.randint(0, n1), rng.randint(0, n2)
            want = complex(inner_product(params, chain_psi(params, n1, m1), chain_psi(params, n2, m2)))
            cases.append((want, build_psi(fparams, n1, m1), build_psi(fparams, n2, m2)))
        worst = 0.0
        for want, f, g in cases:
            got = quadrature_oracle(fparams, f, g)
            worst = max(worst, abs(got - want) / (abs(want) or 1.0))
        assert worst <= 1e-10

    @staticmethod
    def _cases(P):
        # odd degrees, a monomial alone and a non-basis polynomial included
        return [(build_psi(P, 3, 1), build_psi(P, 3, 2)),
                (build_psi(P, 2, 0), build_psi(P, 3, 1)),
                (Poly2.monomial(4, 1, 1.0), Poly2.one("float")),
                (Poly2("float", {(0, 0): 0.5, (2, 1): -1.25, (1, 3): 2.0}), Poly2.monomial(1, 1, 0.75))]

    @pytest.mark.parametrize("order", [32, 33])
    def test_matches_the_grid_sum(self, fparams, order):
        # the oscillating grid in (x1, x2) is a second rule, not a reordering
        # of the oracle's: at b/a = 1/4 its phase is mild and both are exact
        # to rounding
        for f, g in self._cases(fparams):
            want = grid_quadrature(fparams, f, g, order)
            assert abs(quadrature_oracle(fparams, f, g, order=order) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("order", [32, 33])
    def test_matches_the_shifted_rule_summed_point_by_point(self, order):
        # the moments reorder the shifted rule's tensor-product sum only: the
        # signs of the cross terms, and an odd order's middle node, at b/a = 0.98
        P = Params.from_ab(1.0, 0.98)
        for f, g in self._cases(P):
            want = shifted_quadrature(P, f, g, order)
            assert abs(quadrature_oracle(P, f, g, order=order) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b", [(1.349239253177553, 1.320407942516031), (1, 0.999), (1, 1 - 1e-9)])
    def test_matches_the_twin_as_b_nears_a(self, a, b):
        # the five pairs of integrals.oracle: as b nears a the oscillating
        # cross term of the (x1, x2) grid cancels badly (see grid_quadrature),
        # while the shifted rule has no phase to lose
        P = Params.from_ab(a, b)
        for n1, m1, n2, m2 in [(0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 3, 1), (2, 1, 2, 1), (3, 2, 3, 1)]:
            want = complex(inner_product(P.twin, chain_psi(P.twin, n1, m1), chain_psi(P.twin, n2, m2)))
            got = quadrature_oracle(P, build_psi(P, n1, m1), build_psi(P, n2, m2))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n1, m1, n2, m2)
