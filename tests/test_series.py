from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wickred.poly import LaurentElem
from wickred.scalar import gauss
from wickred.series import Series, UnivarPoly, scalar_series


def s_of(values, K=4):
    return scalar_series(values, K)


def test_series_ops():
    one_plus = s_of([1, 1], 2)
    one_minus = s_of([1, -1], 2)
    assert one_plus * one_minus == s_of([1, 0, -1], 2)


def test_series_poly_carrier(sp1):
    x = LaurentElem.x_power(sp1, 1)
    one = LaurentElem.one_of(sp1)
    s = Series([one, x, LaurentElem.zero_of(sp1)])
    sq = s * s
    assert sq.coeffs[1] == x.scale(2)
    assert sq.coeffs[2] == x * x
    # x * (lambda / x) = lambda
    xs = Series.const(x, 1)
    lam_over_x = Series([LaurentElem.zero_of(sp1), x.inverse()])
    prod = xs * lam_over_x
    assert prod.coeffs[0].is_zero() and prod.coeffs[1] == one


def test_min_order_truncation():
    a = s_of([1, 2, 3], 2)
    b = s_of([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_invert():
    assert s_of([1, 1], 3).invert() == s_of([1, -1, 1, -1], 3)
    assert s_of([2], 1).invert() == s_of([Fraction(1, 2)], 1)


def test_invert_laurent(sp1):
    x = LaurentElem.x_power(sp1, 1)
    s = Series([LaurentElem.one_of(sp1), x.inverse(), LaurentElem.zero_of(sp1)])
    inv = s.invert()
    assert inv.coeffs[1] == -x.inverse()
    assert inv.coeffs[2] == x.inverse() * x.inverse()
    assert (s * inv - Series.const(LaurentElem.one_of(sp1), 2)).is_zero()


def test_invert_error(sp1):
    z0 = LaurentElem.variable(sp1, 0)
    with pytest.raises(ValueError):
        Series.const(z0, 2).invert()


def test_reparametrize():
    a = s_of([1, 1], 3)
    assert a.reparametrize(s_of([0, 2], 3)) == s_of([1, 2], 3)
    lam_sq = s_of([0, 0, 1], 3)
    u = s_of([1, 1], 3).invert().times_lambda(1)  # lambda / (1 + lambda)
    assert lam_sq.reparametrize(u) == s_of([0, 0, 1, -2], 3)
    ident = s_of([0, 1], 3)
    b = s_of([2, 0, 5, 7], 3)
    assert b.reparametrize(ident) == b


def test_reparametrize_needs_zero_const():
    with pytest.raises(ValueError):
        s_of([1, 1], 2).reparametrize(s_of([1, 1], 2))


def test_exp():
    assert s_of([0, 1], 2).exp() == s_of([1, 1, Fraction(1, 2)], 2)
    assert s_of([0], 3).exp() == s_of([1], 3)
    with pytest.raises(ValueError):
        s_of([1, 1], 2).exp()


def test_exp_symbol_exponent_example():
    # exp(-l x a^2/2 + l^2 x a^3/3) to order 2, on the two-variable carrier
    from wickred.equiv import SparsePoly

    zero = SparsePoly.constant(2, 0)
    e = Series([zero,
                SparsePoly.term((1, 2), Fraction(-1, 2)),
                SparsePoly.term((1, 3), Fraction(1, 3))])
    out = e.exp()
    assert out.coeffs[0] == SparsePoly.constant(2, 1)
    assert out.coeffs[1] == SparsePoly.term((1, 2), Fraction(-1, 2))
    expected2 = SparsePoly.term((1, 3), Fraction(1, 3)) + SparsePoly.term((2, 4), Fraction(1, 8))
    assert out.coeffs[2] == expected2


small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60)
@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
def test_ring_axioms(a, b, c):
    A, B, C = s_of(a, 2), s_of(b, 2), s_of(c, 2)
    assert (A + B) * C == A * C + B * C
    assert (A * B) * C == A * (B * C)


@settings(max_examples=40)
@given(st.lists(small, min_size=4, max_size=4))
def test_invert_involution(a):
    if a[0] == 0:
        a[0] = 1
    A = s_of(a, 3)
    assert A.invert().invert() == A
    assert (A * A.invert()) == s_of([1], 3)


@settings(max_examples=40)
@given(st.lists(small, min_size=3, max_size=3))
def test_exp_inverse(a):
    A = s_of([0] + a, 3)
    prod = A.exp() * (-A).exp()
    assert prod == s_of([1], 3)


def test_univar_poly_basics():
    p = UnivarPoly([1, 2, 1])
    q = UnivarPoly([0, 1])
    assert p == (q + UnivarPoly([1])) * (q + UnivarPoly([1]))
    assert p.deriv() == UnivarPoly([2, 2])
    assert p.eval(gauss(2)) == gauss(9)
    with pytest.raises(ValueError):
        p + UnivarPoly([1], var="Delta")
    assert UnivarPoly([1, 1]).pow(2) == UnivarPoly([1, 2, 1])


def test_univar_subst_elem(sp1):
    x = LaurentElem.x_power(sp1, 1)
    p = UnivarPoly([Fraction(1, 2), 0, 1])
    assert p.subst_elem(x) == x * x + LaurentElem.scalar(sp1, Fraction(1, 2))


def test_negative_powers_raise(sp1):
    # a negative exponent once returned the one series silently and made
    # UnivarPoly.pow loop forever
    with pytest.raises(ValueError):
        Series([2]).pow(-2)
    with pytest.raises(ValueError):
        s_of([2]).pow(-2)
    with pytest.raises(ValueError):
        Series.const(LaurentElem.x_power(sp1, 1), 2).pow(-1)
    with pytest.raises(ValueError):
        UnivarPoly([1, 1]).pow(-1)
    with pytest.raises(ValueError):
        UnivarPoly([1, 1]).pow(-3)


def test_zero_power_is_one(sp1):
    assert s_of([2, 1], 3).pow(0) == s_of([1], 3)
    assert UnivarPoly([1, 1], "alpha").pow(0) == UnivarPoly([1], "alpha")
