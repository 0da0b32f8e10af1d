import pytest
from hypothesis import given, strategies as st

from hilbstrata.diagrams import HilbertFunction, enumerate_diagrams
from hilbstrata.laurent import IntLaurentPoly

P = IntLaurentPoly


def test_product_difference_of_squares():
    a = P({0: 1, 1: -1})
    b = P({0: 1, 1: 1})
    assert a * b == P({0: 1, 2: -1})


def test_cube_of_one_minus_t():
    a = P({0: 1, 1: -1})
    assert a * a * a == P({0: 1, 1: -3, 2: 3, 3: -1})


def test_product_with_negative_degrees():
    a = P({-1: 1, -2: -1})
    b = P({0: 1, -1: 1})
    assert a * b == P({-1: 1, -3: -1})


def test_coeff_examples():
    shift = P({-1: 1, -2: -1})
    three_collinear = shift * P({0: 1, -1: 1, -2: 1}) * P({0: 1, 1: 1, 2: 1})
    assert three_collinear.coeff(0) == 1
    assert P({0: 1, 1: 2}).coeff(5) == 0
    assert P({0: 1, 1: 2}).coeff(1) == 2


def test_canonical_form_drops_zeros():
    assert P({3: 0, 1: 2}) == P({1: 2})
    assert (P({1: 1}) - P({1: 1})).is_zero()
    assert P({1: 1}).coeffs == {1: 1}


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(P)


@given(small_polys, small_polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(small_polys, small_polys, small_polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(small_polys, small_polys, small_polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys, small_polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", range(0, 13))
def test_difference_of_running_sums_is_the_height_sequence(n):
    one_minus_t = P({0: 1, 1: -1})
    for d in enumerate_diagrams(n):
        h = HilbertFunction(d)
        # (1 - t) applied to the values gives back the heights, in every degree
        for m in range(-2, len(d.s) + 3):
            assert h.value(m) - h.value(m - 1) == d.height(m)
        # and on the polynomial side the finite transient reproduces it too
        window = P({m: h.value(m) for m in range(0, len(d.s) + 4)})
        diff = one_minus_t * window
        for m in range(0, len(d.s) + 1):
            assert diff.coeff(m) == d.height(m)
