import sys
from fractions import Fraction

import pytest

from wickred.moreno import (
    ChartElem,
    a_identity_check,
    chart_cross_check,
    coeff_vanishing,
    hom_to_chart,
    k_poly,
    laplacian,
    moreno_recursion_residual,
    p_poly,
)
from wickred.poly import LaurentElem, VarSpace
from wickred.reduction import k_coeff
from wickred.sampling import rand_homogeneous
from wickred.series import UnivarPoly


def D(*coeffs):
    return UnivarPoly(list(coeffs), "Delta")


def test_p_poly():
    assert p_poly(1, 1) == D(0, 1)
    assert p_poly(2, 1) == D(0, 0, 1)
    assert p_poly(3, 1) == D(0, 0, 2, 1)  # Delta^2 (Delta + 2)
    assert p_poly(2, 2) == D(0, -1, 1)  # Delta(Delta - 1) for n = 2


def _p_product(r, n):
    """The product definition prod_{k=0..r-1} (Delta + k(k-n))."""
    acc = D(1)
    for k in range(r):
        acc = acc * D(k * (k - n), 1)
    return acc


def test_p_poly_matches_product_definition():
    for n in (1, 2, 3):
        for r in range(1, 13):
            assert p_poly(r, n) == _p_product(r, n)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_p_poly_cold_call_is_not_deep():
    # --rmax has no upper bound, so a cold p_poly(r) must not recurse r levels
    p_poly.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        got = p_poly(250, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert got == _p_product(250, 1)


def test_moreno_cli_builds_each_table_once(capsys):
    from wickred.cli import main

    k_poly.cache_clear()
    p_poly.cache_clear()
    assert main(["moreno", "--rmax", "18"]) == 0
    capsys.readouterr()
    assert k_poly.cache_info().misses == 19
    assert p_poly.cache_info().misses == 19


def test_k_poly():
    assert k_poly(1, 1) == D(0, 1)
    assert k_poly(2, 1) == D(0, -1, Fraction(1, 2))
    expected3 = D(0, 1) - D(0, 0, 1).scale(Fraction(3, 2)) + D(0, 0, 2, 1).scale(Fraction(1, 6))
    assert k_poly(3, 1) == expected3


def test_recursion_residual_hand_case():
    # r = 1: 2 k_2 - [Delta k_1 - 2 k_1] with k_1 = Delta, k_2 = -Delta + Delta^2/2
    assert moreno_recursion_residual(1).is_zero()


def test_recursion_residuals():
    for r in range(1, 11):
        assert moreno_recursion_residual(r).is_zero()


def test_coeff_vanishing():
    assert coeff_vanishing(2, 2) == 0
    assert coeff_vanishing(3, 2) == 0
    assert coeff_vanishing(8, 5) == 0
    assert all(coeff_vanishing(r, s) == 0 for r in range(2, 11) for s in range(2, r + 1))
    with pytest.raises(ValueError):
        coeff_vanishing(3, 1)


def test_a_identity():
    assert a_identity_check(1, 1) == 0
    assert a_identity_check(2, 2) == 0
    assert a_identity_check(5, 9) == 0
    assert all(a_identity_check(s, t) == 0 for s in range(1, 9) for t in range(s, 13))


def test_k_poly_matches_k_coeff():
    for n in (1, 2, 3):
        for r in range(1, 11):
            acc = UnivarPoly.zero_poly("Delta")
            for s in range(1, r + 1):
                acc = acc + p_poly(s, n).scale(k_coeff(r, s))
            assert acc == k_poly(r, n)


# ----------------------------------------------------------------------
# chart calculus


def test_chart_map_basics(sp1, phi):
    c = hom_to_chart(phi, "vv")
    # phi = z0 zb0 / x -> 1 / (1 + v vb)
    assert c.den == (0, 0, 0, 1)
    assert list(c.num.values())[0].re == 1 and len(c.num) == 1
    with pytest.raises(ValueError):
        hom_to_chart(LaurentElem.variable(sp1, 0), "vv")


def test_chart_laplacian_on_phi(ctx1, sp1, phi):
    # by hand: Delta applied to 1/(D1 D2), restricted, equals v vb / D4^2
    T = hom_to_chart(phi, "uv") * hom_to_chart(phi, "vu")
    lap = laplacian(T).restrict_diagonal()
    expected = hom_to_chart(phi - phi * phi, "vv")
    assert (lap - expected).is_zero()


def test_chart_cross_check_examples(ctx1, sp1, phi):
    assert chart_cross_check(phi, phi, 1, ctx1).is_zero()
    one = LaurentElem.one_of(sp1)
    assert chart_cross_check(phi, one, 1, ctx1).is_zero()
    assert chart_cross_check(one, phi, 2, ctx1).is_zero()


def test_chart_cross_check_random(ctx1, sp1, rng):
    for _ in range(4):
        f = rand_homogeneous(sp1, rng, deg=1)
        g = rand_homogeneous(sp1, rng, deg=1)
        for r in (1, 2, 3):
            assert chart_cross_check(f, g, r, ctx1).is_zero()


def test_chart_cross_check_order_four(ctx1, sp1, rng):
    f = rand_homogeneous(sp1, rng, deg=1)
    g = rand_homogeneous(sp1, rng, deg=1)
    assert chart_cross_check(f, g, 4, ctx1).is_zero()


def test_chart_rejects_indefinite_metric(sp1d, ctx1d):
    x = LaurentElem.x_power(sp1d, 1)
    f = LaurentElem.variable(sp1d, 0) * LaurentElem.variable(sp1d, 2) * x.inverse()
    with pytest.raises(ValueError):
        hom_to_chart(f, "vv")
