"""Coefficient/polynomial/operator arithmetic, normal ordering, adjoints."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from jordan_osc import (
    EXACT,
    FLOAT,
    DiffOp,
    ModeMismatchError,
    Params,
    Poly2,
    adjoint,
    anticommutator,
    commutator,
    lift,
    swap_vars,
)

from conftest import diff_ops, polys, small_fractions

F = Fraction


class TestCoefficients:
    def test_exact_arithmetic(self):
        x = Poly2.one(EXACT).scale(F(1, 2))
        y = Poly2.one(EXACT).scale(-2)
        assert (x + y).coeff(0, 0) == F(-3, 2)
        assert (x * y).coeff(0, 0) == -1
        assert (x - x).is_zero()
        assert (-y).coeff(0, 0) == 2
        assert all(type(c) is Fraction for c in (x * y).terms.values())

    def test_lifting_ints_into_exact(self):
        assert lift(3, EXACT) == 3 and type(lift(3, EXACT)) is Fraction
        assert lift(F(1, 2), FLOAT) == 0.5 and type(lift(F(1, 2), FLOAT)) is float
        assert DiffOp.identity(EXACT).scale(2) == DiffOp.constant(F(2))

    def test_float_never_lifts_into_exact(self):
        with pytest.raises(ModeMismatchError):
            lift(0.5, EXACT)
        with pytest.raises(ModeMismatchError):
            Poly2.z(EXACT).scale(0.5)
        with pytest.raises(ModeMismatchError):
            DiffOp.z(EXACT).scale(1j)
        with pytest.raises(ModeMismatchError):
            Params.exact(1, F(1, 2)).s(0.5)

    def test_float_equality_is_tolerant(self):
        x = Poly2.z(FLOAT)
        assert x == x.scale(1.0 + 1e-15)
        assert x != x.scale(1.0 + 1e-9)
        op = DiffOp.dz(FLOAT)
        assert op == op.scale(1.0 + 1e-15)
        assert op != op.scale(1.0 + 1e-9)


class TestPoly2:
    def test_product(self):
        # (a z + b zbar)^2 at a=1, b=1/4
        lin = Poly2.z(EXACT) + Poly2.zbar(EXACT).scale(F(1, 4))
        sq = lin * lin
        assert sq.coeff(2, 0) == 1
        assert sq.coeff(1, 1) == F(1, 2)
        assert sq.coeff(0, 2) == F(1, 16)

    def test_eval_matches_expansion(self):
        lin = Poly2.z(EXACT) + Poly2.zbar(EXACT).scale(F(1, 4))
        zv, zbv = 0.3 + 0.7j, 0.3 - 0.7j
        assert (lin * lin).eval_at(zv, zbv) == pytest.approx((zv + zbv / 4) ** 2)

    def test_zero_collapse(self):
        p = Poly2.z(EXACT) - Poly2.z(EXACT)
        assert p.is_zero()
        assert p.terms == {}

    def test_total_degree(self):
        p = Poly2.z(EXACT) * Poly2.zbar(EXACT) ** 3
        assert p.total_degree() == 4


class TestDiffOp:
    def test_normal_ordering_dz_z(self):
        # dz . z = z dz + 1
        dz, z = DiffOp.dz(EXACT), DiffOp.z(EXACT)
        assert dz * z == z * dz + DiffOp.identity(EXACT)

    def test_normal_ordering_higher(self):
        # dz^2 . z^2 = z^2 dz^2 + 4 z dz + 2
        dz, z = DiffOp.dz(EXACT), DiffOp.z(EXACT)
        got = (dz * dz) * (z * z)
        want = (
            z * z * dz * dz
            + (z * dz).scale(4)
            + DiffOp.constant(F(2))
        )
        assert got == want

    def test_variables_commute(self):
        dz, zbar = DiffOp.dz(EXACT), DiffOp.zbar(EXACT)
        assert commutator(dz, zbar).is_zero()
        assert commutator(DiffOp.dzbar(EXACT), DiffOp.z(EXACT)).is_zero()

    def test_apply_to(self):
        dz = DiffOp.dz(EXACT)
        p = Poly2.z(EXACT) ** 3
        assert dz.apply_to(p) == (Poly2.z(EXACT) ** 2).scale(3)

    def test_apply_composition_consistent(self):
        # (L M) f == L (M f) for a mixed operator
        lop = DiffOp.z(EXACT) * DiffOp.dzbar(EXACT) + DiffOp.dz(EXACT)
        mop = DiffOp.zbar(EXACT) * DiffOp.dz(EXACT)
        f = (Poly2.z(EXACT) + Poly2.zbar(EXACT)) ** 3
        assert (lop * mop).apply_to(f) == lop.apply_to(mop.apply_to(f))

    def test_adjoint_of_plain_monomial(self):
        # (z dzbar)^dagger = -dz zbar = -(zbar dz + [dz, zbar]) = -zbar dz
        got = adjoint(DiffOp.z(EXACT) * DiffOp.dzbar(EXACT))
        assert got == -(DiffOp.zbar(EXACT) * DiffOp.dz(EXACT))

    def test_adjoint_conjugates_coefficients(self):
        op = DiffOp.z(FLOAT).scale(1j)
        assert adjoint(op) == DiffOp.zbar(FLOAT).scale(-1j)

    def test_swap_vars(self):
        op = DiffOp.z(EXACT) * DiffOp.dzbar(EXACT) ** 2
        assert swap_vars(op) == DiffOp.zbar(EXACT) * DiffOp.dz(EXACT) ** 2
        assert swap_vars(swap_vars(op)) == op

    def test_float_mode_mixing_rejected(self):
        with pytest.raises(ModeMismatchError):
            DiffOp.z(EXACT) + DiffOp.z(FLOAT)


class TestAlgebraLaws:
    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops(), diff_ops())
    def test_product_associative(self, x, y, w):
        assert (x * y) * w == x * (y * w)

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_commutator_antisymmetric(self, x, y):
        assert commutator(x, y) == -commutator(y, x)

    @settings(max_examples=50, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_commutator_is_difference_of_products(self, x, y):
        assert commutator(x, y) == x * y - y * x
        xf, yf = x.to_float(), y.to_float()
        assert commutator(xf, yf).close_to(xf * yf - yf * xf)

    @settings(max_examples=20, deadline=None)
    @given(diff_ops(), diff_ops(), diff_ops())
    def test_jacobi(self, x, y, w):
        total = (
            commutator(x, commutator(y, w))
            + commutator(y, commutator(w, x))
            + commutator(w, commutator(x, y))
        )
        assert total.is_zero()

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_adjoint_antiautomorphism(self, x, y):
        assert adjoint(x * y) == adjoint(y) * adjoint(x)

    @settings(max_examples=30, deadline=None)
    @given(diff_ops())
    def test_adjoint_involution(self, x):
        assert adjoint(adjoint(x)) == x

    @settings(max_examples=30, deadline=None)
    @given(diff_ops())
    def test_swap_involution(self, x):
        assert swap_vars(swap_vars(x)) == x

    @settings(max_examples=30, deadline=None)
    @given(small_fractions, diff_ops(), diff_ops())
    def test_scale_distributes(self, c, x, y):
        assert (x + y).scale(c) == x.scale(c) + y.scale(c)

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_anticommutator_symmetric(self, x, y):
        assert anticommutator(x, y) == anticommutator(y, x)



class TestFloatMirrorsExact:
    """to_float is a homomorphism: both coefficient types run one code path."""

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_product(self, x, y):
        assert (x * y).to_float() == x.to_float() * y.to_float()

    @settings(max_examples=30, deadline=None)
    @given(diff_ops())
    def test_adjoint(self, x):
        assert adjoint(x).to_float() == adjoint(x.to_float())

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_commutator(self, x, y):
        assert commutator(x, y).to_float() == commutator(x.to_float(), y.to_float())

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), polys())
    def test_apply_to(self, x, f):
        assert x.apply_to(f).to_float() == x.to_float().apply_to(f.to_float())
