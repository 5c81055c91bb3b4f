from fractions import Fraction

import pytest

from wickred.equiv import (
    SparsePoly,
    a_coeff,
    equivalence_check,
    functional_equation_residual,
    s_apply,
    s_apply_xpow,
    standard_order_apply,
    symbol,
    symbol_at_alpha_zero,
    tilde_star,
    tilde_star_closed,
    tilde_star_elems,
)
from wickred.poly import LaurentElem, VarSpace
from wickred.sampling import rand_homogeneous, rand_invariant, rand_radial
from wickred.series import Series, UnivarPoly
from wickred.suites import a_table_oracle
from wickred.wick import StarContext, m_op, radial_elem


def ctx_with_d1(sp1, K=4):
    return StarContext(space=sp1, K=K, D=(Fraction(1), Fraction(1)))


# ----------------------------------------------------------------------
# A coefficients


def test_a_coeff_base_cases():
    assert a_coeff(0, 0) == 1
    assert all(a_coeff(0, s) == 0 for s in range(1, 6))


def test_a_coeff_row_one_and_two():
    assert all(a_coeff(1, s) == (-1) ** s for s in range(9))
    assert all(a_coeff(2, s) == (-1) ** s * (2 ** (s + 1) - 1) for s in range(9))
    assert (a_coeff(2, 0), a_coeff(2, 1), a_coeff(2, 2)) == (1, -3, 7)


def test_a_coeff_against_series_inversion_oracle():
    # independent route: invert prod_{k=1..r} (1 + k u) as a power series
    oracle = a_table_oracle(8, 8)
    for r in range(9):
        for s in range(9):
            assert a_coeff(r, s) == oracle[r][s]


# ----------------------------------------------------------------------
# the symbol


def test_symbol_leading_terms(ctx1):
    sym = symbol(ctx1)
    assert sym.coeffs[0] == SparsePoly.constant(2, 1)
    assert sym.coeffs[1] == SparsePoly.term((1, 2), Fraction(-1, 2))
    expected2 = SparsePoly.term((1, 3), Fraction(1, 3)) + SparsePoly.term((2, 4), Fraction(1, 8))
    assert sym.coeffs[2] == expected2


def test_symbol_at_alpha_zero_is_one(ctx1, sp1):
    for ctx in (ctx1, ctx_with_d1(sp1)):
        sym0 = symbol_at_alpha_zero(ctx)
        assert sym0 == Series.const(SparsePoly.constant(2, 1), ctx.K)


def test_functional_equation(sp1):
    for D in ((1,), (1, 1)):
        ctx = StarContext(space=sp1, K=6, D=D)
        res = functional_equation_residual(ctx)
        assert res.coeffs[0].is_zero()
        assert res.coeffs[1].is_zero()
        assert all(p.is_zero() for p in res.coeffs)


def test_malformed_d(sp1):
    with pytest.raises(ValueError):
        StarContext(space=sp1, D=(Fraction(1, 2),))


# ----------------------------------------------------------------------
# S on powers of x


def test_s_apply_xpow_examples(ctx1, sp1):
    x = LaurentElem.x_power(sp1, 1)
    one = LaurentElem.one_of(sp1)
    assert s_apply_xpow(1, ctx1) == Series.const(x, ctx1.K)
    s2 = s_apply_xpow(2, ctx1)
    assert s2.coeffs[0] == x * x and s2.coeffs[1] == -x
    assert all(c.is_zero() for c in s2.coeffs[2:])
    sm1 = s_apply_xpow(-1, ctx1)
    for m in range(ctx1.K + 1):
        assert sm1.coeffs[m] == LaurentElem.x_power(sp1, -1 - m).scale((-1) ** m)
    assert s_apply_xpow(0, ctx1) == Series.const(one, ctx1.K)


def test_standard_ordering_consistency(sp1):
    for D in ((1,), (1, 1)):
        ctx = StarContext(space=sp1, K=4, D=D)
        for j in range(-4, 5):
            assert (s_apply_xpow(j, ctx) - standard_order_apply(j, ctx)).is_zero()


def test_s_apply_fixes_homogeneous(ctx1, sp1, phi, rng):
    F = Series.const(phi, ctx1.K)
    assert (s_apply(F, ctx1) - F).is_zero()
    assert (s_apply(F, ctx1, inverse=True) - F).is_zero()
    h = rand_homogeneous(sp1, rng)
    H = Series.const(h, ctx1.K)
    assert (s_apply(H, ctx_with_d1(sp1)) - H).is_zero()


def test_s_apply_on_x_powers(ctx1, sp1):
    x = LaurentElem.x_power(sp1, 1)
    F = Series.const(x, ctx1.K)
    assert (s_apply(F, ctx1) - F).is_zero()
    F2 = Series.const(x * x, ctx1.K)
    out = s_apply(F2, ctx1)
    assert out.coeffs[0] == x * x and out.coeffs[1] == -x


def test_s_apply_requires_invariance(ctx1, sp1):
    z0 = LaurentElem.variable(sp1, 0)
    with pytest.raises(ValueError):
        s_apply(Series.const(z0, ctx1.K), ctx1)


def test_s_roundtrip(sp1, rng):
    for D in ((1,), (1, 1), (1, 0, Fraction(1, 2))):
        ctx = StarContext(space=sp1, K=4, D=D)
        F = Series([rand_invariant(sp1, rng) for _ in range(ctx.K + 1)])
        assert (s_apply(s_apply(F, ctx), ctx, inverse=True) - F).is_zero()
        assert (s_apply(s_apply(F, ctx, inverse=True), ctx) - F).is_zero()


# ----------------------------------------------------------------------
# the equivalence property and the transformed product


def test_equivalence_check_examples(ctx1, rng):
    one = UnivarPoly([1])
    x = UnivarPoly([0, 1])
    assert equivalence_check(one, rand_radial(rng), ctx1).is_zero()
    assert equivalence_check(x, x, ctx1).is_zero()
    ctx = StarContext(space=ctx1.space, K=4)
    assert equivalence_check(UnivarPoly([0, 0, 1]), x, ctx).is_zero()
    for _ in range(3):
        assert equivalence_check(rand_radial(rng), rand_radial(rng), ctx1).is_zero()


def test_tilde_star_radial_relations(ctx1, sp1, phi, rng):
    x = LaurentElem.x_power(sp1, 1)
    ts = tilde_star_elems(x, x, ctx1)
    assert (ts - Series.const(x * x, ctx1.K)).is_zero()
    ts = tilde_star_elems(x, phi, ctx1)
    assert (ts - Series.const(x * phi, ctx1.K)).is_zero()
    F = rand_invariant(sp1, rng)
    assert (tilde_star_elems(x, F, ctx1) - Series.const(x * F, ctx1.K)).is_zero()
    assert (tilde_star_elems(F, x, ctx1) - Series.const(x * F, ctx1.K)).is_zero()


def test_tilde_star_first_order(ctx1, sp1, phi):
    ts = tilde_star_elems(phi, phi, ctx1)
    assert ts.coeffs[0] == phi * phi
    assert ts.coeffs[1] == m_op(phi, phi, 1, ctx1).mul_xpow(-1)


def test_tilde_star_closed_formula(sp1, rng):
    for D in ((1,), (1, 1)):
        ctx = StarContext(space=sp1, K=4, D=D)
        for _ in range(3):
            f, g = rand_homogeneous(sp1, rng), rand_homogeneous(sp1, rng)
            a = tilde_star_elems(f, g, ctx)
            b = tilde_star_closed(f, g, ctx)
            assert (a - b).is_zero()


def test_tilde_star_associativity(sp1, rng):
    ctx = StarContext(space=sp1, K=4)
    A, B, C = (Series.const(rand_invariant(sp1, rng), ctx.K) for _ in range(3))
    left = tilde_star(tilde_star(A, B, ctx), C, ctx)
    right = tilde_star(A, tilde_star(B, C, ctx), ctx)
    assert (left - right).is_zero()


def test_tilde_star_associativity_nontrivial_d(sp1, rng):
    # conjugation by S preserves associativity for every admissible D
    ctx = StarContext(space=sp1, K=3, D=(1, 1, Fraction(-1, 2)))
    A, B, C = (Series.const(rand_invariant(sp1, rng), ctx.K) for _ in range(3))
    left = tilde_star(tilde_star(A, B, ctx), C, ctx)
    right = tilde_star(A, tilde_star(B, C, ctx), ctx)
    assert (left - right).is_zero()


def test_tilde_star_rejects_non_invariant(ctx1, sp1):
    z0 = Series.const(LaurentElem.variable(sp1, 0), ctx1.K)
    with pytest.raises(ValueError):
        tilde_star(z0, z0, ctx1)
