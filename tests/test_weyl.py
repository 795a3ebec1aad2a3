"""Coefficient/polynomial/operator arithmetic, normal ordering, adjoints."""

from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordan_osc
from jordan_osc import (
    EXACT,
    DiffOp,
    Params,
    Poly2,
    adjoint,
    anticommutator,
    commutator,
    lift,
    linear_combination,
    swap_vars,
)
from jordan_osc import model, verifier, weyl

from conftest import diff_ops, mixed_fractions, polys, small_fractions

F = Fraction


class TestCoefficients:
    def test_exact_arithmetic(self):
        x = Poly2.one().scale(F(1, 2))
        y = Poly2.one().scale(-2)
        assert (x + y).terms.get((0, 0), 0) == F(-3, 2)
        assert (x * y).terms.get((0, 0), 0) == -1
        assert (x - x).is_zero()
        assert (-y).terms.get((0, 0), 0) == 2
        assert all(type(c) is Fraction for c in (x * y).terms.values())

    def test_lifting_ints_into_exact(self):
        assert lift(3) == 3 and type(lift(3)) is Fraction
        assert DiffOp.identity().scale(2) == DiffOp.constant(F(2))

    def test_float_never_lifts_into_exact(self):
        # a float is no coefficient: a float point reaches weyl only through
        # its exact twin (model.Params.twin)
        for make in (lambda: lift(0.5), lambda: Poly2.z().scale(0.5), lambda: Poly2.monomial(0, 0, 0.5),
                     lambda: Poly2({(0, 0): 0.5}), lambda: Params(EXACT, 1, 0.5)):
            with pytest.raises(TypeError):
                make()

    def test_float_equality_is_bitwise(self):
        # one rule, the same den and nums, so equality is transitive: a 1e-12
        # tolerance made 1 == 1 + 5e-13 == 1 + 1e-12 but 1 != 1 + 1e-12
        for unit in (Poly2.z(), DiffOp.dz()):
            triple = [unit.scale(c) for c in (F(1), 1 + F(5, 10**13), 1 + F(1, 10**12))]
            assert [[u == v for v in triple] for u in triple] == [[i == j for j in range(3)] for i in range(3)]
            assert unit.scale(2) == unit + unit and unit != unit.scale(1 + F(1, 10**15))
        assert Poly2.z() != Poly2.zbar() and DiffOp.dz() != DiffOp.dzbar()

    def test_weyl_has_one_coefficient_type(self):
        # no second coefficient type, and none of the names that served one
        assert not [name for name in ("FLOAT", "to_float", "join_modes", "ModeMismatchError") if hasattr(weyl, name)]
        assert weyl._TermMap.__slots__ == ("nums", "den", "__weakref__")
        assert not {"FLOAT", "DEFAULT_TOL", "ModeMismatchError"} & set(jordan_osc.__all__)

    def test_complex_is_no_coefficient(self):
        with pytest.raises(TypeError):
            lift(1j)
        with pytest.raises(TypeError):
            DiffOp.z().scale(1j)
        with pytest.raises(TypeError):
            DiffOp.monomial((1, 0, 0, 0), 1j)
        with pytest.raises(TypeError):
            Poly2.monomial(1, 0, 0.5 + 0j)


class TestPoly2:
    def test_product(self):
        # (a z + b zbar)^2 at a=1, b=1/4
        lin = Poly2.z() + Poly2.zbar().scale(F(1, 4))
        sq = lin * lin
        assert sq.terms.get((2, 0), 0) == 1
        assert sq.terms.get((1, 1), 0) == F(1, 2)
        assert sq.terms.get((0, 2), 0) == F(1, 16)

    def test_zero_collapse(self):
        p = Poly2.z() - Poly2.z()
        assert p.is_zero()
        assert p.terms == {}

    def test_total_degree(self):
        p = Poly2.z() * Poly2.zbar() ** 3
        assert p.total_degree() == 4


class TestDiffOp:
    def test_normal_ordering_dz_z(self):
        # dz . z = z dz + 1
        dz, z = DiffOp.dz(), DiffOp.z()
        assert dz * z == z * dz + DiffOp.identity()

    def test_normal_ordering_higher(self):
        # dz^2 . z^2 = z^2 dz^2 + 4 z dz + 2
        dz, z = DiffOp.dz(), DiffOp.z()
        got = (dz * dz) * (z * z)
        want = (
            z * z * dz * dz
            + (z * dz).scale(4)
            + DiffOp.constant(F(2))
        )
        assert got == want

    def test_variables_commute(self):
        dz, zbar = DiffOp.dz(), DiffOp.zbar()
        assert commutator(dz, zbar).is_zero()
        assert commutator(DiffOp.dzbar(), DiffOp.z()).is_zero()

    def test_apply_to(self):
        dz = DiffOp.dz()
        p = Poly2.z() ** 3
        assert dz.apply_to(p) == (Poly2.z() ** 2).scale(3)

    def test_apply_composition_consistent(self):
        # (L M) f == L (M f) for a mixed operator
        lop = DiffOp.z() * DiffOp.dzbar() + DiffOp.dz()
        mop = DiffOp.zbar() * DiffOp.dz()
        f = (Poly2.z() + Poly2.zbar()) ** 3
        assert (lop * mop).apply_to(f) == lop.apply_to(mop.apply_to(f))

    def test_adjoint_of_plain_monomial(self):
        # (z dzbar)^dagger = -dz zbar = -(zbar dz + [dz, zbar]) = -zbar dz
        got = adjoint(DiffOp.z() * DiffOp.dzbar())
        assert got == -(DiffOp.zbar() * DiffOp.dz())

    def test_adjoint_conjugates_coefficients(self):
        # every coefficient is real, its own conjugate: (c z)^dagger = c zbar
        for c in (F(-3, 4), F(5, 2)):
            assert adjoint(DiffOp.z().scale(c)) == DiffOp.zbar().scale(c)

    def test_swap_vars(self):
        op = DiffOp.z() * DiffOp.dzbar() ** 2
        assert swap_vars(op) == DiffOp.zbar() * DiffOp.dz() ** 2
        assert swap_vars(swap_vars(op)) == op

    def test_float_mode_mixing_rejected(self):
        with pytest.raises(TypeError):
            DiffOp.z() + DiffOp.z().scale(0.5)


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
    """A float point computes at its exact dyadic twin: an operator applied or
    conjugated there is the twin's, and conjugation keeps every algebra law."""

    POINT = Params.from_ab(0.79, 0.23)

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_product(self, x, y):
        conj = lambda op: model.conjugate_through_envelope(self.POINT, op)  # noqa: E731
        assert conj(x * y) == conj(x) * conj(y)

    @settings(max_examples=30, deadline=None)
    @given(diff_ops())
    def test_adjoint(self, x):
        twin = self.POINT.twin
        assert model.conjugate_through_envelope(self.POINT, adjoint(x)) == model.conjugate_through_envelope(
            twin, adjoint(x))

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), diff_ops())
    def test_commutator(self, x, y):
        conj = lambda op: model.conjugate_through_envelope(self.POINT, op)  # noqa: E731
        assert conj(commutator(x, y)) == commutator(conj(x), conj(y))

    @settings(max_examples=30, deadline=None)
    @given(diff_ops(), polys())
    def test_apply_to(self, x, f):
        assert model.apply(self.POINT, x, f) == model.apply(self.POINT.twin, x, f)



# ---------------------------------------------------------------------------
# integer kernels against the per-term coefficient loops they replaced
# ---------------------------------------------------------------------------


def _bump(out: dict, key, value) -> None:
    new = out.get(key, 0) + value
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def _falling(x: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= x - t
    return out


def oracle_apply_to(op: DiffOp, poly: Poly2) -> dict:
    """One coefficient product and sum per pair of terms."""
    out: dict = {}
    for (i, j, k, l), c in op.terms.items():
        for (pz, pb), u in poly.terms.items():
            if pz >= k and pb >= l:
                _bump(out, (pz - k + i, pb - l + j), c * u * (_falling(pz, k) * _falling(pb, l)))
    return out


def oracle_linear_combination(pairs) -> dict:
    out: dict = {}
    for c, poly in pairs:
        if c:
            for key, u in poly.terms.items():
                _bump(out, key, u * c)
    return out


def oracle_add(x, y, sign: int = 1) -> dict:
    """x + sign * y, one coefficient sum per term of y."""
    out = dict(x.terms)
    for key, c in y.terms.items():
        _bump(out, key, c if sign == 1 else -c)
    return out


def oracle_poly_product(f: Poly2, g: Poly2) -> dict:
    out: dict = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            _bump(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def _normal_order(out: dict, key1, key2, base, contractions_only: bool = False) -> None:
    # base * (term1 . term2), by dz^k z^i = sum_s C(k,s) C(i,s) s! z^(i-s) dz^(k-s)
    i1, j1, k1, l1 = key1
    i2, j2, k2, l2 = key2
    for s in range(min(k1, i2) + 1):
        ws = comb(k1, s) * comb(i2, s) * factorial(s)
        for t in range(min(l1, j2) + 1):
            if contractions_only and s == t == 0:
                continue
            wt = comb(l1, t) * comb(j2, t) * factorial(t)
            _bump(out, (i1 + i2 - s, j1 + j2 - t, k1 - s + k2, l1 - t + l2), base * (ws * wt))


def oracle_op_product(x: DiffOp, y: DiffOp) -> dict:
    out: dict = {}
    for key1, c1 in x.terms.items():
        for key2, c2 in y.terms.items():
            _normal_order(out, key1, key2, c1 * c2)
    return out


def oracle_commutator(x: DiffOp, y: DiffOp) -> dict:
    # the leading terms of the two orders cancel, so only contractions are summed
    out: dict = {}
    for key1, c1 in x.terms.items():
        for key2, c2 in y.terms.items():
            _normal_order(out, key1, key2, c1 * c2, contractions_only=True)
            _normal_order(out, key2, key1, -(c1 * c2), contractions_only=True)
    return out


def oracle_adjoint(x: DiffOp) -> dict:
    out: dict = {}
    for (i, j, k, l), c in x.terms.items():
        # (c z^i zb^j dz^k dzb^l)^† = conj(c) (-dz)^l (-dzb)^k z^j zb^i
        _normal_order(out, (0, 0, l, k), (j, i, 0, 0), c.conjugate() * (-1) ** (k + l))
    return out


def _stored_exactly(x) -> bool:
    # exact results hold nonzero Fractions only
    return all(type(c) is Fraction and c != 0 for c in x.terms.values())


def _canonical(x) -> bool:
    # the one stored form: nonzero numerators over a positive den, reduced as
    # a whole, with .terms derived from it
    return (all(type(v) is int and v for v in x.nums.values()) and x.den > 0
            and gcd(x.den, *x.nums.values()) == 1
            and x.den == lcm(*(c.denominator for c in x.terms.values()))
            and x.terms == {k: F(v, x.den) for k, v in x.nums.items()})


@st.composite
def homogeneous_polys(draw):
    degree = draw(st.integers(0, 4))
    coeffs = draw(st.lists(mixed_fractions, min_size=degree + 1, max_size=degree + 1))
    return degree, Poly2({(i, degree - i): c for i, c in enumerate(coeffs) if c})


_poly_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), mixed_fractions, max_size=5)
_op_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), mixed_fractions, max_size=4)


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


class TestOneRepresentation:
    """Every map stores nonzero int numerators over one reduced denominator."""

    def test_coefficients_are_never_read_as_numerators(self):
        x = Poly2({(0, 0): F(1, 2), (1, 0): F(2, 3), (2, 0): F(0)})
        assert (x.nums, x.den) == ({(0, 0): 3, (1, 0): 4}, 6)
        assert DiffOp({(0, 0, 1, 0): F(3, 2)}).terms == {(0, 0, 1, 0): F(3, 2)}
        with pytest.raises(TypeError):
            Poly2({(0, 0): 0.5})

    @settings(max_examples=80, deadline=None)
    @given(_poly_terms, _poly_terms, mixed_fractions)
    def test_poly_maps_are_canonical(self, terms, other, c):
        x, y = Poly2(terms), Poly2(other)
        assert x.terms == _nonzero(terms) and y.terms == _nonzero(other)
        assert gcd(x.den, *x.nums.values()) == 1
        assert x.den == lcm(*(v.denominator for v in _nonzero(terms).values()))
        for got in (x + y, x - y, -x, x.scale(c), c * x, x * y, x**2,
                    linear_combination([(c, x), (-1, y)])):
            assert _canonical(got)
        # equal maps built by different routes are stored alike
        for route in (x + y - y, -(-x), x * Poly2.one(), x.scale(3).scale(F(1, 3)),
                      linear_combination([(c, x), (1, x), (-c, x)])):
            assert route == x and (route.nums, route.den) == (x.nums, x.den)

    @settings(max_examples=60, deadline=None)
    @given(_op_terms, _op_terms, _poly_terms)
    def test_op_maps_are_canonical(self, terms, other, poly_terms):
        x, y, f = DiffOp(terms), DiffOp(other), Poly2(poly_terms)
        assert x.terms == _nonzero(terms)
        for got in (x * y, commutator(x, y), anticommutator(x, y), adjoint(x), swap_vars(x),
                    x.apply_to(f)):
            assert _canonical(got)
        for route in (x + y - y, swap_vars(swap_vars(x)), adjoint(adjoint(x))):
            assert route == x and (route.nums, route.den) == (x.nums, x.den)
        assert commutator(x, y) == x * y - y * x


class TestIntegerKernels:
    def test_integer_view(self):
        p = Poly2({(0, 0): F(1, 6), (1, 0): F(-3, 4), (0, 2): F(5)})
        assert p.den == 12 and p.nums == {(0, 0): 2, (1, 0): -9, (0, 2): 60}
        assert _canonical(p) and _canonical(Poly2.zero())
        assert (Poly2.zero().nums, Poly2.zero().den) == ({}, 1)

    @settings(max_examples=60, deadline=None)
    @given(diff_ops(mixed_fractions), polys(mixed_fractions))
    def test_apply_to_matches_fraction_loop(self, x, f):
        got = x.apply_to(f)
        assert got.terms == oracle_apply_to(x, f)
        assert _stored_exactly(got)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(diff_ops(mixed_fractions), min_size=1, max_size=4), polys(mixed_fractions))
    def test_shared_derivative_table_changes_no_image(self, ops, f):
        # one table filled and read by several operators gives each operator
        # what its own apply_to gives: the same numerators in the same key
        # order over the same den
        table: dict = {}
        for x in ops:
            shared, own = x.apply_to(f, table), x.apply_to(f)
            assert list(shared.nums.items()) == list(own.nums.items()) and shared.den == own.den
            assert shared.terms == oracle_apply_to(x, f)
        # every order the operators read, and only those, is in the table
        assert set(table) == {(k, l) for x in ops for (_, _, k, l) in x.nums}

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_polys(), mixed_fractions)
    def test_apply_to_cancels_to_zero(self, homogeneous, c):
        # the Euler operator z dz + zbar dzbar - degree kills a homogeneous
        # polynomial: three terms of the operator meet at every key and cancel
        degree, f = homogeneous
        euler = (DiffOp.monomial((1, 0, 1, 0), c) + DiffOp.monomial((0, 1, 0, 1), c)
                 + DiffOp.constant(-degree * c))
        assert euler.apply_to(f).terms == {} == oracle_apply_to(euler, f)

    @settings(max_examples=60, deadline=None)
    @given(mixed_fractions, polys(mixed_fractions), mixed_fractions, polys(mixed_fractions))
    def test_linear_combination_matches_fraction_loop(self, c1, f, c2, g):
        # the third pair takes the first one back out
        pairs = [(c1, f), (c2, g), (-c1, f)]
        got = linear_combination(pairs)
        assert got.terms == oracle_linear_combination(pairs) == g.scale(c2).terms
        assert _stored_exactly(got)

    @settings(max_examples=40, deadline=None)
    @given(mixed_fractions, polys(mixed_fractions), polys(mixed_fractions))
    def test_linear_combination_cancels_to_zero(self, c, f, g):
        pairs = [(c, f), (c, g), (-c, f + g), (0, f)]
        assert linear_combination(pairs).terms == {} == oracle_linear_combination(pairs)
        assert linear_combination([]).terms == {}

    def test_common_denominator_is_reduced_once(self):
        # 1/6 z + 1/10 z - 4/15 z = 0: the sum runs over lcm(6, 10, 15) = 30
        z = Poly2.z()
        assert linear_combination([(F(1, 6), z), (F(1, 10), z), (F(-4, 15), z)]).is_zero()
        got = linear_combination([(F(1, 6), z), (F(1, 10), z)])
        assert got.terms == {(1, 0): F(4, 15)} and (got.nums, got.den) == ({(1, 0): 4}, 15)

    @settings(max_examples=60, deadline=None)
    @given(diff_ops(mixed_fractions), diff_ops(mixed_fractions))
    def test_sum_and_difference_match_fraction_loop(self, x, y):
        for got, want in ((x + y, oracle_add(x, y)), (x - y, oracle_add(x, y, -1)),
                          (x - x, {}), (x + y - y, oracle_add(x + y, y, -1))):
            assert got.terms == want
            assert _stored_exactly(got) and _canonical(got)
        assert (x - x).terms == {} and (x + y - y).terms == x.terms

    @settings(max_examples=60, deadline=None)
    @given(polys(mixed_fractions), polys(mixed_fractions))
    def test_poly_product_matches_fraction_loop(self, f, g):
        # the cross terms of (f + g)(f - g) cancel in the kernel
        for got, want in ((f * g, oracle_poly_product(f, g)),
                          ((f + g) * (f - g), oracle_poly_product(f + g, f - g))):
            assert got.terms == want
            assert _stored_exactly(got) and _canonical(got)
        assert ((f + g) * (f - g)).terms == (f * f - g * g).terms

    def test_poly_product_cancels_cross_terms(self):
        z, zb = Poly2.z().scale(F(1, 6)), Poly2.zbar().scale(F(3, 10))
        got = (z + zb) * (z - zb)
        assert got.terms == {(2, 0): F(1, 36), (0, 2): F(-9, 100)} == oracle_poly_product(z + zb, z - zb)

    @settings(max_examples=60, deadline=None)
    @given(diff_ops(mixed_fractions), diff_ops(mixed_fractions))
    def test_op_product_matches_fraction_loop(self, x, y):
        got = x * y
        assert got.terms == oracle_op_product(x, y)
        assert _stored_exactly(got) and _canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(mixed_fractions)
    def test_op_product_cancels_to_zero(self, c):
        # (dz + c z)(dz - c z) = dz^2 - c^2 z^2 - c: the z dz terms cancel
        dz, z = DiffOp.dz(), DiffOp.z().scale(c)
        got = (dz + z) * (dz - z)
        want = {(0, 0, 2, 0): F(1), (2, 0, 0, 0): -c * c, (0, 0, 0, 0): -c}
        assert got.terms == {k: v for k, v in want.items() if v} == oracle_op_product(dz + z, dz - z)
        assert _stored_exactly(got) and _canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(diff_ops(mixed_fractions), diff_ops(mixed_fractions))
    def test_commutator_matches_fraction_loop(self, x, y):
        got = commutator(x, y)
        assert got.terms == oracle_commutator(x, y)
        assert got.terms == oracle_add(x * y, y * x, -1)
        assert _stored_exactly(got) and _canonical(got)
        # every contraction cancels against the other order
        for zero in (commutator(x, x), commutator(x, x * x)):
            assert zero.terms == {} and _canonical(zero)

    @settings(max_examples=60, deadline=None)
    @given(diff_ops(mixed_fractions), mixed_fractions)
    def test_adjoint_matches_fraction_loop(self, x, c):
        got = adjoint(x)
        assert got.terms == oracle_adjoint(x)
        assert _stored_exactly(got) and _canonical(got)
        # (c z dz + c)^† = -c zb dzb - c + c: the constant cancels in the kernel
        op = DiffOp.monomial((1, 0, 1, 0), c) + DiffOp.constant(c)
        assert adjoint(op).terms == oracle_adjoint(op) == ({(0, 1, 0, 1): -c} if c else {})

    def test_kernels_reject_mixed_modes(self):
        # no kernel takes a float: a float coefficient, or a float scale, is refused
        f = Poly2.z() + Poly2.zbar().scale(F(1, 3))
        for call in (lambda: linear_combination([(1, f), (0.5, f)]), lambda: f.scale(0.5), lambda: 0.5 * f,
                     lambda: DiffOp.dz().scale(1.0), lambda: Poly2({(1, 0): 1.0})):
            with pytest.raises(TypeError):
                call()


# ---------------------------------------------------------------------------
# the image pass's line kernel (verifier._read_lines): the largest coefficient
# of a combination never built, per charge line, against linear_combination
# then max_magnitude
# ---------------------------------------------------------------------------

CHARGES = range(-3, 4)  # the keys run over 0..3


def _line(x, charge):
    return Poly2._normalized({(i, j): u for (i, j), u in x.nums.items() if i - j == charge}, x.den)


def _combined_magnitude(image, target, weights):
    # the oracle: on each charge of the image or of a weighted target line,
    # build image - c * target (c its weight, dropped if zero) and read its
    # largest coefficient; a zero is left out
    charges = {i - j for i, j in image.nums} | {i - j for i, j in target.nums if weights.get(i - j)}
    out = {}
    for charge in charges:
        c = weights.get(charge)
        pairs = [(-c, _line(target, charge))] if c else []
        v = linear_combination([*pairs, (1, _line(image, charge))])
        out[charge] = v.max_magnitude()
    return {charge: v for charge, v in out.items() if v}


def line_residuals(image, target, weights, den=1):
    """One read of image against a record per charge of CHARGES, as the pass
    builds them: the target line is target's monomials on that charge,
    weighted by weights[charge] / den (none or 0: the image alone). Each
    record's maximum, per charge, a zero left out, over a times the image's
    den, as the pass reads it."""
    lines = {}
    for charge in CHARGES:
        line = lines[charge] = verifier._Line()
        target_line, w = _line(target, charge), weights.get(charge, 0)
        if w:
            line.target = target_line.nums
            line.a, line.b = den * target_line.den, w * image.den
    verifier._read_lines(image, lines)
    return {charge: F(line.worst, image.den * line.a) for charge, line in lines.items() if line.worst}


@st.composite
def exact_lines(draw):
    # (image, target, numerators, den): the image is the weighted target plus
    # a few stray terms, or a polynomial of its own
    target, stray = draw(polys(mixed_fractions)), draw(polys(mixed_fractions))
    nums = draw(st.dictionaries(st.sampled_from(CHARGES), st.integers(-4, 4), max_size=7))
    den = draw(st.sampled_from([1, 3, 4]))
    weighted = linear_combination([(F(nums.get(c, 0), den), _line(target, c)) for c in CHARGES])
    image = draw(st.sampled_from([weighted + stray, weighted, stray]))
    return image, target, nums, den


class TestResidualMagnitude:
    @settings(max_examples=120, deadline=None)
    @given(exact_lines())
    def test_exact_equals_the_built_combination(self, lines):
        image, target, nums, den = lines
        want = _combined_magnitude(image, target, {c: F(w, den) for c, w in nums.items()})
        got = line_residuals(image, target, nums, den)
        assert all(type(v) is Fraction for v in got.values())
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(exact_lines())
    def test_exact_cancels_to_zero(self, lines):
        # the image is exactly the weighted target: every monomial is matched,
        # and no residual is built
        _, target, nums, den = lines
        weighted = linear_combination([(F(nums.get(c, 0), den), _line(target, c)) for c in CHARGES])
        assert line_residuals(weighted, target, nums, den) == {}
        assert line_residuals(Poly2.zero(), Poly2.zero(), nums, den) == {}
        # a zero weight drops its target line
        assert line_residuals(weighted, target, dict.fromkeys(nums, 0)) == _combined_magnitude(
            weighted, target, {})

    def test_an_exact_reading_beyond_the_float_range_stays_exact(self):
        # a float of its coefficients raises there; the exact walk reads integers
        huge = Poly2({(2, 0): F(10**400), (0, 2): F(-(10**400)), (1, 1): F(1, 3)})
        with pytest.raises(OverflowError):
            float(huge.max_magnitude())
        assert line_residuals(huge, Poly2.zero(), {}) == {2: F(10**400), -2: F(10**400), 0: F(1, 3)}
        assert line_residuals(huge, huge, {2: 1}) == {-2: F(10**400), 0: F(1, 3)}

    def test_a_zero_target_adds_nothing(self):
        # a zero weight drops its target, as in the built combination: the
        # image is read alone, however large the target
        huge = Poly2({(1, 0): F(10**400), (2, 2): F(-(10**400))})
        image = Poly2({(1, 0): F(5), (2, 2): F(-7, 3)})
        assert line_residuals(image, huge, {1: 0, 0: 0}) == {1: 5, 0: F(7, 3)} == _combined_magnitude(
            image, huge, {})
        assert line_residuals(Poly2.zero(), Poly2.zero(), {}) == {}
