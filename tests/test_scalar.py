from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wickred.scalar import GaussianRational, binomial, factorial, gauss

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_norm_of_one_plus_i():
    one_plus_i = gauss(1, 1)
    assert one_plus_i * gauss(1, -1) == gauss(2)


def test_conjugation():
    c = gauss(Fraction(3, 2), Fraction(1, 4))
    assert c.conj() == gauss(Fraction(3, 2), Fraction(-1, 4))
    assert c.conj().conj() == c


def test_two_over_i():
    assert gauss(2) / gauss(0, 1) == gauss(0, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gauss(1) / gauss(0)
    with pytest.raises(ZeroDivisionError):
        gauss(0).inverse()


def test_pow():
    i = gauss(0, 1)
    assert i ** 2 == gauss(-1)
    assert i ** -1 == gauss(0, -1)
    assert gauss(Fraction(1, 2)) ** -2 == gauss(4)
    assert gauss(5) ** 0 == gauss(1)


def test_combinatorics():
    assert binomial(4, 2) == 6
    assert factorial(0) == 1
    assert binomial(3 - 1, 2 - 1) == 2
    with pytest.raises(ValueError):
        binomial(2, 3)
    with pytest.raises(ValueError):
        factorial(-1)


def test_token_serialization():
    assert gauss(Fraction(3, 2), Fraction(-1, 4)).token() == "3/2-1/4*i"
    assert gauss(0).token() == "0/1+0/1*i"
    assert gauss(2).token() == "2/1+0/1*i"
    assert gauss(0, 1).token() == "0/1+1/1*i"


def test_components_are_reduced():
    c = GaussianRational(Fraction(2, 4), Fraction(6, 8))
    assert c.re == Fraction(1, 2) and c.im == Fraction(3, 4)
    assert c.re.denominator == 2 and c.im.denominator == 4


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_inverses(a):
    assert a + (-a) == gauss(0)
    if a:
        assert a * a.inverse() == gauss(1)


@given(gaussians)
def test_canonical_idempotence(a):
    again = GaussianRational(a.re, a.im)
    assert (again.p, again.q, again.d) == (a.p, a.q, a.d)


@given(gaussians, gaussians)
def test_conj_is_homomorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(st.integers(min_value=-30, max_value=30), rationals)
def test_mixed_arithmetic(n, f):
    a = gauss(Fraction(5, 3), 2)
    assert a * n == a * gauss(n)
    assert a + f == a + gauss(f)
    assert n * a == a * n


def test_common_bits_reads_one_common_denominator():
    third, fifth = GaussianRational.coerce(Fraction(1, 3)), GaussianRational.coerce(Fraction(2, 5))
    # 5/15 and 6/15
    assert GaussianRational.common_bits([third, fifth], 100) == 4
    assert GaussianRational.common_bits([gauss(0, 1024)], 100) == GaussianRational.coerce(1024).bits() == 11
    # no coefficients: the common denominator 1
    assert GaussianRational.common_bits([], 100) == 1
    # the scan stops at the first denominator past the cap
    big = GaussianRational.coerce(Fraction(1, 2**200 + 1))
    assert GaussianRational.common_bits([third, big, fifth], 100) == (3 * (2**200 + 1)).bit_length()
