from fractions import Fraction

import pytest
from hypothesis import strategies as st

from jordan_osc import EXACT, DiffOp, Params, Poly2


@pytest.fixture(scope="session")
def params():
    # a = 1, b = 1/4: the reference admissible point (a > b > 0)
    return Params.exact(1, Fraction(1, 2))


@pytest.fixture(scope="session")
def fparams():
    return Params.from_ab(1.0, 0.25)


small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)

_term_keys = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@st.composite
def diff_ops(draw):
    terms = draw(st.dictionaries(_term_keys, small_fractions, min_size=0, max_size=3))
    out = DiffOp.zero(EXACT)
    for key, coeff in terms.items():
        out = out + DiffOp.monomial(key, coeff)
    return out


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                 small_fractions, min_size=0, max_size=4))
    out = Poly2.zero(EXACT)
    for (i, j), coeff in terms.items():
        out = out + Poly2.monomial(i, j, coeff)
    return out
