"""Parameters, basis construction, operator catalog, envelope conjugation."""

import gc
import math
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jordan_osc
from jordan_osc import gaussint, model, verifier, weyl
from jordan_osc import (
    ACTION_RULES,
    CATALOG_NAMES,
    EXACT,
    EXPLICIT_NAMES,
    FLOAT,
    DiffOp,
    ModeMismatchError,
    Params,
    SUITES,
    Poly2,
    apply,
    build_phi,
    build_psi,
    chain_psi,
    commutator,
    conjugate_through_envelope,
    energy,
    expand_in_basis,
    explicit_form,
    from_chain,
    gram_block,
    h_block,
    inner_product,
    make_operator,
    moment,
    run_suites,
)

from conftest import close, diff_ops, polys
from reference_forms import alpha_coeffs, chain_series, phi_scale_sq, pochhammer, psi_series

F = Fraction


class TestParams:
    def test_exact_point(self, params):
        assert params.a == 1 and params.b == F(1, 4)
        assert params.sqrt_ab == F(1, 2)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            Params.exact(0, 1)
        with pytest.raises(ValueError):
            Params.from_ab(1.0, -0.5)

    @pytest.mark.parametrize("a, b", [(math.inf, 0.25), (1.0, math.inf), (math.nan, 0.25)])
    def test_finite_required(self, a, b):
        with pytest.raises(ValueError):
            Params.from_ab(a, b)
        with pytest.raises(ValueError, match="finite"):
            Params("float", math.sqrt(a), math.sqrt(b))

    def test_from_frequencies(self):
        # omega1^2 = 3, omega2^2 = 1: mean square 2, half difference 1
        P = Params.from_frequencies(math.sqrt(3), 1.0)
        lam = math.sqrt(2)
        assert P.a == pytest.approx(lam / 2)
        assert P.b == pytest.approx(1 / (4 * lam))

    def test_from_frequencies_inverts_reference_point(self):
        # the point a=1, b=1/4 has lam=2, g=2, so omega^2 = 4 +- 2
        P = Params.from_frequencies(math.sqrt(6), math.sqrt(2))
        assert P.a == pytest.approx(1.0)
        assert P.b == pytest.approx(0.25)

    def test_frequency_point_passes_the_algebraic_suites(self):
        # omega1 = 2, omega2 = 1: lam = sqrt(5/2), g = 3/2, a = lam/2 > b = g/(4 lam) > 0
        P = Params.from_frequencies(2.0, 1.0)
        lam, g = math.sqrt(2.5), 1.5
        assert P.mode == FLOAT and P.a > P.b > 0
        assert (P.a, P.b) == (pytest.approx(lam / 2, rel=1e-15), pytest.approx(g / (4 * lam), rel=1e-15))
        reports = run_suites(P, ("structure", "pseudo", "integrals"), 8)
        assert len(reports) == 153 and all(r.passed for r in reports)
        for omega1, omega2 in [(1.0, 1.0), (1.0, 2.0), (2.0, 0.0), (2.0, -1.0)]:
            with pytest.raises(ValueError):
                Params.from_frequencies(omega1, omega2)

    def test_equal_frequencies_rejected(self):
        with pytest.raises(ValueError):
            Params.from_frequencies(1.0, 1.0)
        with pytest.raises(ValueError):
            Params.from_frequencies(1.0, 2.0)

    @pytest.mark.parametrize("a, b", [(0.79, 0.23), (1e-200, 1e-201), (1e300, 1e299)])
    def test_twin_is_the_same_point_read_exactly(self, a, b):
        P = Params.from_ab(a, b)
        twin = P.twin
        assert twin.mode == EXACT and (twin.p, twin.q) == (F(P.p), F(P.q))
        assert (float(twin.p), float(twin.q)) == (P.p, P.q) and P.twin is twin

    def test_exact_point_is_its_own_twin(self, params):
        assert params.twin is params

    @pytest.mark.parametrize("make", [lambda: Params.exact(F(5, 3), F(2, 7)), lambda: Params.from_ab(0.79, 0.23)],
                             ids=["exact", "float"])
    def test_scalar_views_computed_once(self, make):
        P, fresh = make(), make()
        views = ("a", "b", "sqrt_ab")
        values = [getattr(P, name) for name in views]
        assert [getattr(P, name) for name in views] == values
        assert all(getattr(P, name) is value for name, value in zip(views, values))  # kept, not recomputed
        assert values == [P.p * P.p, P.q * P.q, P.p * P.q]
        # reading the views changes neither equality nor the hash, nor what a pickle restores
        assert P == fresh and hash(P) == hash(fresh)
        for point in (P, fresh):
            restored = pickle.loads(pickle.dumps(point))
            assert restored == P and hash(restored) == hash(P)
            assert [getattr(restored, name) for name in views] == values

    def test_parameters_are_coefficients_of_their_mode(self):
        assert type(Params("float", 1, 2).p) is float and type(Params("float", 1, 2).sqrt_ab) is float
        assert type(Params("exact", 1, 2).q) is Fraction
        with pytest.raises(ModeMismatchError):
            Params("exact", 0.5, 1)


class TestCombinatorics:
    def test_pochhammer(self):
        assert pochhammer(3, 2) == 12
        assert pochhammer(-2, 5) == 0  # hits zero at x+2
        assert pochhammer(F(1, 2), 3) == F(15, 8)
        assert pochhammer(7, 0) == 1

    def test_alpha_coeffs(self):
        assert alpha_coeffs(0) == [1]
        assert alpha_coeffs(1) == [-2, 4]
        assert alpha_coeffs(2) == [4, -16, 16]
        # endpoints in closed form
        for k in range(1, 8):
            alphas = alpha_coeffs(k)
            assert alphas[0] == (-2) ** k
            assert alphas[k] == 2 ** (2 * k)
            assert all(isinstance(v, int) or v.denominator == 1 for v in alphas)


CLOSED_FORM_POINTS = [Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3)), Params.exact(F(7, 3), F(1, 5))]
CLOSED_FORM_IDS = ["1-1/2", "3/2-2/3", "7/3-1/5"]


class TestBasis:
    def test_ground_state(self, params):
        assert build_psi(params, 0, 0) == Poly2.one(EXACT)

    def test_chain_top_is_simple(self, params):
        # psi_{1,1} = z + (b/a) ... at a=1, b=1/4: z + zbar/4
        fn = build_psi(params, 1, 1)
        assert fn.terms.get((1, 0), 0) == F(1)
        assert fn.terms.get((0, 1), 0) == F(1, 4)

    def test_chain_head_closed_form(self, params):
        # psi_{n,0} = (4 sqrt(ab))^n zbar^n; at the reference point 2^n zbar^n
        for n in range(5):
            fn = build_psi(params, n, 0)
            assert fn.terms.get((0, n), 0) == F(2**n)
            assert len(fn.terms) == 1

    def test_coefficient_types(self, params, fparams):
        # one plain number type per mode, stored directly in the term map
        assert all(type(c) is Fraction for c in build_psi(params, 4, 2).terms.values())
        assert all(type(c) is float for c in build_psi(fparams, 4, 2).terms.values())
        assert all(type(c) is Fraction for c in make_operator(params, "J+").terms.values())
        assert all(type(c) is float for c in make_operator(fparams, "J+").terms.values())

    def test_series_matches_chain_head(self, params):
        # the general double-sum construction must reproduce the closed-form
        # heads; this ties the two independent constructions together
        for n in range(9):
            assert psi_series(params, n, 0) == build_psi(params, n, 0)

    def test_series_is_what_build_returns(self, params):
        for n in range(5):
            for m in range(1, n + 1):
                assert build_psi(params, n, m) == psi_series(params, n, m)

    @pytest.mark.parametrize("P", CLOSED_FORM_POINTS, ids=CLOSED_FORM_IDS)
    def test_closed_form_is_the_paper_series(self, P):
        # the one closed form against the paper's three-factor sum, whose n!
        # and (8ab)^n cancel, in either coordinates
        for n in range(25):
            for m in range(n + 1):
                assert chain_psi(P, n, m) == chain_series(P, n, m), (n, m)
                assert build_psi(P, n, m) == psi_series(P, n, m), (n, m)

    @pytest.mark.parametrize("P", CLOSED_FORM_POINTS, ids=CLOSED_FORM_IDS)
    def test_graded_by_pq(self, P):
        # the point enters psi_{n,m} in (w, zbar) only through (pq)^(n-2m)
        unit = Params.exact(1, 1)
        for n in range(25):
            for m in range(n + 1):
                scale = P.sqrt_ab ** (n - 2 * m)
                want = {key: scale * c for key, c in chain_psi(unit, n, m).terms.items()}
                assert chain_psi(P, n, m).terms == want, (n, m)

    def test_float_construction_tracks_exact(self, params, fparams):
        for n in range(6):
            for m in range(n + 1):
                exact_fn = build_psi(params, n, m).to_float()
                float_fn = build_psi(fparams, n, m)
                assert close(float_fn, exact_fn, 1e-9)

    def test_invalid_index_rejected(self, params):
        with pytest.raises(ValueError):
            build_psi(params, 2, 3)
        with pytest.raises(ValueError):
            build_psi(params, -1, 0)


def _raises_or_matches_twin(build, P, n, m) -> bool:
    """True if build(P, n, m) raises OverflowError; otherwise it must have the
    exact terms of the dyadic twin, the same p, q read as rationals, each
    coefficient within 1e-13 relative."""
    try:
        got = build(P, n, m).terms
    except OverflowError:
        return True
    want = build(Params.exact(F(P.p), F(P.q)), n, m).terms
    assert got.keys() == want.keys(), (build.__name__, n, m)
    for key, c in got.items():
        assert math.isfinite(c) and abs(F(c) / want[key] - 1) <= 1e-13, (build.__name__, n, m, key, c)
    return False


#: float points a > b > 0 from 1e-300 to 1e300; a basis built at the first two
#: lost terms or digits to the paper's normalization (8ab)^n n!, and at the next
#: four the expansion of w meets a subnormal power of b, which a guard on the
#: finished coefficients alone would miss
FLOAT_RANGE_POINTS = [(1e10, 1e9), (1e-10, 1e-11), (1e-12, 1e-13), (1e-12, 1e-19), (1e-18, 1e-19), (1e-45, 1e-46),
                      (0.79, 0.23), (1e-20, 1e-21), (1e20, 1e13), (1e-200, 1e-201), (1e200, 1e199),
                      (1e-300, 1e-301), (1e300, 1e299)]


@pytest.mark.parametrize("a, b", FLOAT_RANGE_POINTS, ids=[f"{a:g}-{b:g}" for a, b in FLOAT_RANGE_POINTS])
def test_float_basis_is_never_silently_wrong(a, b):
    # every chain_psi and build_psi up to the CLI's largest cutoff raises
    # OverflowError or holds the exact terms to rounding
    P = Params.from_ab(a, b)
    raised = [(build.__name__, n, m) for n in range(25) for m in range(n + 1) for build in (chain_psi, build_psi)
              if _raises_or_matches_twin(build, P, n, m)]
    if 1e-10 <= b < a <= 1e10:
        assert raised == []


class TestPhi:
    def test_scale_sq(self):
        assert phi_scale_sq(3, 1) == F(1, 2)
        assert phi_scale_sq(2, 1) == 1
        assert phi_scale_sq(7, 4) == 4

    def test_float_always_folds(self, fparams):
        want = chain_psi(fparams, 3, 1).scale(math.sqrt(0.5))
        assert close(build_phi(fparams, 3, 1), want, 1e-12)

    def test_exact_params_rejected(self, params):
        # sqrt(m!/(n-m)!) is irrational in general, so phi exists in float mode only
        with pytest.raises(ModeMismatchError):
            build_phi(params, 7, 4)


class TestPointCache:
    def test_only_recent_points_keep_a_cache(self):
        points = [Params.exact(F(k + 7, 4), F(1, 5)) for k in range(10)]
        first = build_psi(points[0], 3, 2)
        psi_polys = []
        for P in points:
            fn = build_psi(P, 2, 1)
            apply(P, "H", fn)
            inner_product(P, chain_psi(P, 1, 0), chain_psi(P, 1, 1))
            psi_polys.append(weakref.ref(fn))
        assert len(model._POINTS) <= model._POINTS_MAX
        assert points[-1] in model._POINTS and points[0] not in model._POINTS
        # the integer numerators live on the cached objects, so an evicted
        # point takes them with it; neither from_chain nor the pairing keeps a
        # table in any store
        gc.collect()
        kept = psi_polys[-1]()
        assert kept is not None and all(type(v) is int for v in kept.nums.values()) and psi_polys[0]() is None
        assert not any("moments" in cache for cache in model._POINTS.values())
        rebuilt = build_psi(points[0], 3, 2)
        assert rebuilt == first and rebuilt is not first

    def test_equal_params_share_a_cache(self, params):
        assert model.point_cache(Params(FLOAT, params.p, params.q)) is model.point_cache(Params.from_ab(1.0, 0.25))
        assert model.point_cache(Params.exact("3/2", "2/3")) is model.point_cache(Params.exact(F(3, 2), F(2, 3)))
        assert model.point_cache(Params.from_ab(0.79, 0.23)) is model.point_cache(Params.from_ab(0.79, 0.23))
        assert build_psi(params, 4, 1) is build_psi(Params.exact(1, F(1, 2)), 4, 1)
        assert make_operator(params, "J+") is make_operator(params, "J+")

    def test_hash_agrees_with_equality(self):
        assert hash(Params.exact(1, F(1, 2))) == hash(Params.exact("1", "1/2"))
        # 1 and 1/2 are floats too: equal values, different modes, unequal points
        assert Params.exact(1, F(1, 2)) != Params.from_ab(1.0, 0.25)
        assert len({Params.exact(1, F(1, 2)), Params.from_ab(1.0, 0.25), Params.exact(1, F(1, 2))}) == 2

    def test_cache_hit_rehashes_no_fraction(self, monkeypatch):
        P, Q = Params.exact(F(5, 3), F(2, 7)), Params.exact(F(5, 3), F(2, 7))  # equal, built apart
        op = make_operator(P, "J+")
        apply(P, "J+", build_psi(P, 3, 1))
        hashed = []
        fraction_hash = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert build_psi(Q, 3, 1) is build_psi(P, 3, 1) and make_operator(Q, "J+") is op
        assert model.point_cache(Q) is model.point_cache(P)
        apply(P, "J+", build_psi(P, 3, 1))
        assert hashed == []


class TestCatalog:
    def test_energy(self, params):
        assert energy(params, 0) == F(4)
        assert energy(params, 3) == F(16)

    def test_lowering_operator_form(self, params):
        # A- = dz + a zbar at a=1
        want = DiffOp.dz(EXACT) + DiffOp.zbar(EXACT)
        assert make_operator(params, "A-") == want

    def test_hamiltonian_form(self, params):
        H = make_operator(params, "H")
        want = (
            DiffOp.monomial((0, 0, 1, 1), F(-4))
            + DiffOp.monomial((1, 1, 0, 0), F(4))
            + DiffOp.monomial((0, 2, 0, 0), F(2))
        )
        assert H == want

    def test_u_is_affine_in_h(self, params):
        # U = -H/2 + 2a: the central combination collapses to the Hamiltonian
        u = make_operator(params, "U")
        want = make_operator(params, "H").scale(F(-1, 2)) + DiffOp.constant(F(2))
        assert u == want

    def test_unknown_name_rejected(self, params):
        with pytest.raises(ValueError):
            make_operator(params, "Q")

    def test_aliases(self, params):
        assert make_operator(params, "D+21") == make_operator(params, "D+12")
        assert make_operator(params, "D-21") == make_operator(params, "D-12")

    @pytest.mark.parametrize("name", EXPLICIT_NAMES)
    def test_catalog_matches_explicit_forms(self, params, name):
        assert make_operator(params, name) == explicit_form(params, name)

    def test_catalog_complete(self, params):
        for name in CATALOG_NAMES:
            assert not make_operator(params, name).is_zero()


class TestEnvelopeConjugation:
    # the image is in the chain variables (w, zbar), w = a z + b zbar: DiffOp.z
    # and DiffOp.dz stand for w and dw there; at a = 1, b = 1/4
    def test_shifted_derivatives(self, params):
        # dz -> a (dw - zbar)
        got = conjugate_through_envelope(params, DiffOp.dz(EXACT))
        want = DiffOp.dz(EXACT) - DiffOp.zbar(EXACT)
        assert got == want
        # dzbar -> b dw + dzbar - w - b zbar
        got = conjugate_through_envelope(params, DiffOp.dzbar(EXACT))
        want = (
            DiffOp.dz(EXACT).scale(F(1, 4))
            + DiffOp.dzbar(EXACT)
            - DiffOp.z(EXACT)
            - DiffOp.zbar(EXACT).scale(F(1, 4))
        )
        assert got == want

    def test_multiplication_ops_unchanged(self, params):
        # the envelope commutes with multiplication operators; only the
        # change of variables z -> (w - b zbar)/a acts on them
        op = DiffOp.zbar(EXACT) * DiffOp.zbar(EXACT)
        assert conjugate_through_envelope(params, op) == op
        op = DiffOp.z(EXACT) * DiffOp.zbar(EXACT)
        want = (DiffOp.z(EXACT) - DiffOp.zbar(EXACT).scale(F(1, 4))) * DiffOp.zbar(EXACT)
        assert conjugate_through_envelope(params, op) == want

    def test_homomorphism(self, params):
        x = make_operator(params, "A+")
        y = make_operator(params, "B-")
        got = conjugate_through_envelope(params, x * y)
        want = conjugate_through_envelope(params, x) * conjugate_through_envelope(params, y)
        assert got == want


class TestFloatConjugation:
    """A float point's operators, explicit forms and catalog conjugations are
    read from its dyadic twin, the same p, q as exact rationals: the exact
    terms, each coefficient rounded once. No operator is composed in floats."""

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(1e-3, 1e3), ratio=st.floats(1e-3, 0.999))
    def test_rounded_once_from_the_dyadic_twin(self, a, ratio):
        P = Params.from_ab(a, a * ratio)
        twin = Params.exact(F(P.p), F(P.q))
        for name in CATALOG_NAMES:
            exact = conjugate_through_envelope(twin, make_operator(twin, name))
            got = model.conjugated(P, name)
            assert got.mode == "float" and got.nums.keys() == exact.nums.keys(), name
            assert [got.nums[key].hex() for key in exact.nums] == [float(F(u, exact.den)).hex()
                                                                 for u in exact.nums.values()], name

    def test_action_operators_hold_the_exact_terms(self):
        # the 23 action operators' conjugations hold the exact terms, no
        # rounding residue where they cancel
        P = Params.from_ab(0.79, 0.23)
        names = {rule.op_name for rule in ACTION_RULES}
        assert len(names) == 23
        assert sum(len(model.conjugated(P, name).nums) for name in names) == 61

    def test_su2_factor_is_the_rounded_root(self):
        for n in range(25):
            for m in range(n + 1):
                assert model.su2_factor(n, m).hex() == math.sqrt(phi_scale_sq(n, m)).hex(), (n, m)

    @pytest.mark.parametrize("a, b", [(0.79, 0.23), (3.0, 1.0)])
    def test_operators_and_forms_are_the_twins_rounded_once(self, a, b):
        P = Params.from_ab(a, b)
        assert (len(CATALOG_NAMES), len(EXPLICIT_NAMES)) == (27, 14)
        for name in CATALOG_NAMES:
            assert make_operator(P, name) == make_operator(P.twin, name).to_float(), name
        for name in EXPLICIT_NAMES:
            assert explicit_form(P, name) == explicit_form(P.twin, name).to_float(), name

    def test_a_float_point_composes_no_operator_in_floats(self, monkeypatch):
        # every operator product, adjoint, swap, conjugation generator and
        # literal read refuses a float operand or point; a float run of every
        # suite, and every float operator, form and conjugation, still completes
        def refuse(owner, name, mode_of):
            original = getattr(owner, name)

            def refusing(*args):
                if mode_of(*args) == FLOAT:
                    raise AssertionError(f"{name} met a float operand or point")
                return original(*args)

            for module in [owner] if isinstance(owner, type) else [weyl, model, verifier, gaussint]:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, refusing)

        monkeypatch.setattr(model, "_POINTS", {})
        refuse(weyl._TermMap, "_product", lambda x, *_: x.mode)
        refuse(weyl, "adjoint", lambda op: op.mode)
        refuse(weyl, "swap_vars", lambda op: op.mode)
        refuse(model, "_chain_generators", lambda params: params.mode)
        refuse(model, "_scalar", lambda token, params: params.mode)
        P = Params.from_ab(0.79, 0.23)
        assert len(run_suites(P, SUITES, 6)) == 190
        for name in CATALOG_NAMES:
            assert make_operator(P, name).mode == model.conjugated(P, name).mode == FLOAT
        assert {explicit_form(P, name).mode for name in EXPLICIT_NAMES} == {FLOAT}

    def test_an_operator_given_as_such_needs_an_exact_point(self, params, fparams):
        op, fn = make_operator(fparams, "H"), chain_psi(fparams, 2, 1)
        calls = [lambda: conjugate_through_envelope(fparams, op), lambda: apply(fparams, op, fn),
                 lambda: conjugate_through_envelope(params, op)]
        for call in calls:
            with pytest.raises(ModeMismatchError, match=r"Params\.twin, or apply\(params, name, fn\)"):
                call()
        assert apply(fparams, "H", fn) == apply(fparams.twin, "H", chain_psi(fparams.twin, 2, 1)).to_float()


class TestApply:
    def test_lowering_kills_chain_heads(self, params):
        lower = make_operator(params, "A-")
        for n in range(6):
            assert apply(params, lower, build_psi(params, n, 0)).is_zero()

    def test_jordan_step(self, params):
        H = make_operator(params, "H")
        img = apply(params, H, chain_psi(params, 1, 1))
        img = img - chain_psi(params, 1, 1).scale(energy(params, 1))
        assert img == chain_psi(params, 1, 0)

    def test_eigenvalue_on_chain_head(self, params):
        H = make_operator(params, "H")
        for n in range(5):
            fn = build_psi(params, n, 0)
            assert apply(params, H, fn) == fn.scale(energy(params, n))

    def test_linear_in_operator(self, params):
        x = make_operator(params, "B+")
        y = make_operator(params, "A+")
        fn = build_psi(params, 2, 1)
        assert apply(params, x + y, fn) == apply(params, x, fn) + apply(params, y, fn)

    def test_reuses_conjugations_of_recent_operators(self, params, fparams, image_counts):
        # a catalog name is conjugated once per point (the float point's at its
        # dyadic twin) and kept in the point's store
        for m in range(3):
            fn = build_psi(params, 2, m)
            apply(params, "H", fn)
            apply(params, "J0", fn)
            apply(fparams, "H", build_psi(fparams, 2, m))
        assert image_counts == {"conjugate": 3, "apply_to": 9}

    def test_new_operator_is_conjugated_anew(self, params):
        H = make_operator(params, "H")
        fn = build_psi(params, 2, 1)
        once = apply(params, H, fn)
        assert apply(params, H.scale(F(2)), fn) == once.scale(F(2))
        assert apply(params, H, fn) == once

    def test_remembers_only_a_few_operators(self, params):
        # one stored conjugation per catalog name, in the store of its point
        # (so it leaves with the point); an operator given as such is not kept
        fn = build_psi(params, 1, 0)
        for name in CATALOG_NAMES:
            apply(params, name, fn)
            apply(params, make_operator(params, name).scale(F(2)), fn)
        stored = [key[1:] for key in model.point_cache(params)
                  if isinstance(key, tuple) and key[0] is model.conjugated.__wrapped__]
        assert sorted(stored) == sorted((name,) for name in CATALOG_NAMES)


def _zzbar_conjugate(P, op):
    """The conjugation through the envelope in (z, zbar), with no change of
    variables: dz -> dz - a zbar, dzbar -> dzbar - a z - 2b zbar (the oracle
    of the chain form)."""
    dz = DiffOp.dz(P.mode) + DiffOp.monomial((0, 1, 0, 0), -P.a)
    dzb = DiffOp.dzbar(P.mode) + DiffOp.monomial((1, 0, 0, 0), -P.a) + DiffOp.monomial((0, 1, 0, 0), -2 * P.b)
    out = DiffOp.zero(P.mode)
    for (i, j, k, l), c in op.terms.items():
        out = out + DiffOp.monomial((i, j, 0, 0), c) * dz**k * dzb**l
    return out


def _substitute_w(P, g):
    """g(w, zbar) with w = a z + b zbar multiplied out by Poly2 products (the
    oracle of from_chain)."""
    w = Poly2.monomial(1, 0, P.a) + Poly2.monomial(0, 1, P.b)
    out = Poly2.zero(P.mode)
    for (e, i), c in g.terms.items():
        out = out + w**e * Poly2.monomial(0, i, c)
    return out


def _same(x, y):
    # exact: equal; float: equal up to rounding relative to the larger of
    # 1 and the sizes of the two results
    if x.mode == EXACT:
        return x == y
    return (x - y).max_magnitude() <= 1e-12 * max(1.0, x.max_magnitude(), y.max_magnitude())


# zb dz^2 dzb^2 + z zb^2 dz^2 + z^2 dz^2 dzb, whose commutator with itself is
# zero (in floats at the point 9/4, 4/9 it once left a rounding residue)
_ZERO_COMMUTATOR = sum((DiffOp.monomial(key, F(1)) for key in ((0, 1, 2, 2), (1, 2, 2, 0), (2, 0, 2, 1))),
                               DiffOp.zero(EXACT))
CHAIN_POINTS = [Params.exact(1, F(1, 2)), Params.exact(F(3, 2), F(2, 3)),
                Params.from_ab(0.79, 0.23), Params(FLOAT, F(3, 2), F(2, 3))]
CHAIN_IDS = ["exact-1-1/2", "exact-3/2-2/3", "float-0.79-0.23", "float-9/4-4/9"]


class TestChainCoordinates:
    """The image pass runs in the chain variables (w, zbar), w = a z + b zbar:
    the change of variables is exact, so it changes no identity."""

    # an operator is composed at exact points only (a float point's is its
    # twin's, rounded once), so these two run at the exact points
    @pytest.mark.parametrize("P", CHAIN_POINTS[:2], ids=CHAIN_IDS[:2])
    @settings(max_examples=25, deadline=None)
    @given(x=diff_ops(), y=diff_ops())
    @example(x=_ZERO_COMMUTATOR, y=_ZERO_COMMUTATOR)
    @example(x=DiffOp.monomial((0, 0, 2, 2), F(2)), y=DiffOp.monomial((0, 0, 2, 2), F(7, 3)))
    def test_conjugation_respects_products_and_commutators(self, P, x, y):
        conj = lambda op: conjugate_through_envelope(P, op)  # noqa: E731
        cx, cy = conj(x), conj(y)
        assert conj(x * y) == cx * cy
        assert conj(commutator(x, y)) == commutator(cx, cy)

    @pytest.mark.parametrize("P", CHAIN_POINTS[:2], ids=CHAIN_IDS[:2])
    @settings(max_examples=25, deadline=None)
    @given(op=diff_ops(), g=polys())
    def test_apply_in_chain_form_is_apply_in_z_zbar(self, P, op, g):
        assert from_chain(P, apply(P, op, g)) == _zzbar_conjugate(P, op).apply_to(from_chain(P, g))

    @pytest.mark.parametrize("P", CHAIN_POINTS, ids=CHAIN_IDS)
    @settings(max_examples=25, deadline=None)
    @given(g=polys())
    def test_from_chain_substitutes_w(self, P, g):
        if P.mode != EXACT:
            g = g.to_float()
        assert _same(from_chain(P, g), _substitute_w(P, g))

    @pytest.mark.parametrize("P", CHAIN_POINTS[:2], ids=CHAIN_IDS[:2])
    def test_chain_basis_is_the_series(self, P):
        for n in range(11):
            for m in range(n + 1):
                chain = chain_psi(P, n, m)
                assert len(chain.nums) <= min(m, n - m) + 1
                assert from_chain(P, chain) == psi_series(P, n, m) == build_psi(P, n, m)
                assert from_chain(P, chain) == _substitute_w(P, chain)

    def test_from_chain_overflows_to_inf(self):
        # the powers of w come from Pascal's rule, so a float overflows to inf
        # where a ** 2 would raise with no word of where; the float guard then
        # names the range
        P = Params.from_ab(1e200, 1e199)
        with pytest.raises(OverflowError, match="^a chain form in \\(z, zbar\\) in floats leaves the float range$"):
            from_chain(P, Poly2.monomial(2, 0, 1.0))  # w^2 = a^2 z^2 + 2ab z zbar + b^2 zbar^2

    @pytest.mark.parametrize("a, b, n, m", [(1e-18, 1e-19, 20, 18), (1e-15, 1e-16, 22, 21)])
    def test_from_chain_loses_no_term_to_underflow(self, a, b, n, m):
        # here a term of the expansion underflows to zero: from_chain raises
        # rather than drop it, and so does build_psi, which reads it
        P = Params.from_ab(a, b)
        chain = chain_psi(P, n, m)
        for build in (lambda: from_chain(P, chain), lambda: build_psi(P, n, m)):
            with pytest.raises(OverflowError, match="leaves the float range"):
                build()
        # the same expansion at the dyadic twin has every term
        twin = from_chain(Params.exact(F(P.p), F(P.q)), chain_psi(Params.exact(F(P.p), F(P.q)), n, m))
        assert len(twin.nums) == sum(e + 1 for e, _ in chain.nums)

    def test_chain_psi_names_the_float_range(self):
        # (2pq)^(n-2m) = (2pq)^-24 overflows at this point: chain_psi raises its
        # own OverflowError, not float ** int's
        with pytest.raises(OverflowError, match="^psi_\\{24,24\\} in floats leaves the float range$"):
            chain_psi(Params.from_ab(1e-20, 1e-21), 24, 24)

    def test_catalog_conjugations_agree_with_z_zbar(self):
        # every catalog operator, applied to a full polynomial of degree 6
        P = Params.exact(F(3, 2), F(2, 3))
        g = Poly2(EXACT, {(i, j): F(i + 2 * j + 1, j + 1) for i in range(4) for j in range(4 - i)})
        for name in CATALOG_NAMES:
            op = make_operator(P, name)
            assert from_chain(P, apply(P, op, g)) == _zzbar_conjugate(P, op).apply_to(from_chain(P, g)), name


@pytest.mark.parametrize("a, b", [(0.79, 0.23), (3.0, 1.0)])
def test_float_coefficients_are_floats(a, b):
    # one number type per mode: whatever float mode builds holds floats only
    P = Params.from_ab(a, b)
    ops = [make_operator(P, name) for name in CATALOG_NAMES] + [explicit_form(P, name) for name in EXPLICIT_NAMES]
    objects = ops + [model.conjugated(P, name) for name in CATALOG_NAMES]
    objects += [build_psi(P, n, m) for n in range(9) for m in range(n + 1)]
    objects += [apply(P, name, chain_psi(P, 3, 1)) for name in CATALOG_NAMES]
    coeffs = [c for obj in objects for c in obj.terms.values()]
    coeffs += [c for n in range(5) for block in (gram_block(P, n), h_block(P, n)) for row in block for c in row]
    coeffs += [moment(P, p, q) for p in range(12) for q in range(12)]
    coeffs += [P.a, P.b, P.sqrt_ab, energy(P, 3)]
    assert {type(c) for c in coeffs} == {float}


@pytest.mark.parametrize("P", [Params.exact(1, F(1, 2)), Params.from_ab(1.0, 0.25)], ids=["exact", "float"])
def test_basis_functions_are_poly2(P):
    # a basis function is its polynomial P: kappa and the envelope are implied by the point
    psi, chain = build_psi(P, 3, 2), chain_psi(P, 3, 2)
    results = [psi_series(P, 3, 2), psi, chain, apply(P, "H", chain), expand_in_basis(P, psi, 3)]
    if P.mode == "float":
        results.append(build_phi(P, 3, 2))
    assert [type(x) for x in results] == [Poly2] * len(results)
    # and no wrapper type around it is left in the package or the model
    assert [name for name in {**vars(jordan_osc), **vars(model)} if name.endswith("Fn")] == []
