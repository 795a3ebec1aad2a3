import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import jordan_osc.model
from jordan_osc import EXACT, DiffOp, Params, Poly2


def close(x, y, tol: float) -> bool:
    """Whether two term maps agree term by term within ``tol``. Equality of
    term maps is bitwise, so a test comparing two roundings of one value
    states its tolerance here."""
    mine, theirs = x.terms, y.terms
    return all(abs(mine.get(k, 0) - theirs.get(k, 0)) <= tol for k in mine.keys() | theirs.keys())


@pytest.fixture(scope="session")
def params():
    # a = 1, b = 1/4: the reference admissible point (a > b > 0)
    return Params.exact(1, Fraction(1, 2))


@pytest.fixture(scope="session")
def fparams():
    return Params.from_ab(1.0, 0.25)


@pytest.fixture
def image_counts(monkeypatch):
    """Counts envelope conjugations ("conjugate") and DiffOp.apply_to calls
    ("apply_to") made while the test runs, at every module that binds
    conjugate_through_envelope. The test starts with empty point stores, so
    no conjugation is reused from earlier calls of ``apply``."""
    counts = Counter()
    monkeypatch.setattr(jordan_osc.model, "_POINTS", {})
    conjugate = jordan_osc.model.conjugate_through_envelope
    apply_to = DiffOp.apply_to

    def counted_conjugate(*args, **kwargs):
        counts["conjugate"] += 1
        return conjugate(*args, **kwargs)

    def counted_apply_to(self, poly, *args, **kwargs):
        counts["apply_to"] += 1
        return apply_to(self, poly, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("jordan_osc") and getattr(module, "conjugate_through_envelope", None) is conjugate:
            monkeypatch.setattr(module, "conjugate_through_envelope", counted_conjugate)
    monkeypatch.setattr(DiffOp, "apply_to", counted_apply_to)
    return counts


@pytest.fixture
def poly_products(monkeypatch):
    """Counts Poly2 products (``Poly2.__mul__`` calls) made while the test runs."""
    counts = Counter()
    mul = Poly2.__mul__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Poly2, "__mul__", counted_mul)
    return counts


small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)

# coefficients whose denominators differ from term to term
mixed_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)

_term_keys = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@st.composite
def diff_ops(draw, coeffs=small_fractions):
    terms = draw(st.dictionaries(_term_keys, coeffs, min_size=0, max_size=3))
    out = DiffOp.zero(EXACT)
    for key, coeff in terms.items():
        out = out + DiffOp.monomial(key, coeff)
    return out


@st.composite
def polys(draw, coeffs=small_fractions):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                 coeffs, min_size=0, max_size=4))
    out = Poly2.zero(EXACT)
    for (i, j), coeff in terms.items():
        out = out + Poly2.monomial(i, j, coeff)
    return out
