from fractions import Fraction

import pytest

from wickred.equiv import a_coeff, tilde_star_elems
from wickred.poly import LaurentElem
from wickred.reduction import (
    ideal_decompose,
    k_coeff,
    momentum_map,
    mu_star,
    mu_star_elems,
    quantum_momentum_check,
    reduce_elem,
    reduce_function,
    reduced_poisson,
    reduction_compatibility,
    reparametrize_check,
    wick_reduce,
    wick_reduce_by_division,
)
from wickred.sampling import rand_homogeneous, rand_invariant, rand_poly
from wickred.scalar import factorial, gauss
from wickred.series import Series
from wickred.wick import StarContext, poisson, wick_product_elems

from euler_ops import euler
from point_eval import point_eval


def zvar(sp, k):
    return LaurentElem.variable(sp, sp.iz(k))


def zbvar(sp, k):
    return LaurentElem.variable(sp, sp.izb(k))


def test_momentum_map(sp1, sp1d):
    J = momentum_map(sp1)
    z0, zb0, z1, zb1 = zvar(sp1, 0), zbvar(sp1, 0), zvar(sp1, 1), zbvar(sp1, 1)
    assert J == (z0 * zb0 + z1 * zb1).scale(Fraction(-1, 2))
    assert point_eval(J, [1, 0]) == gauss(Fraction(-1, 2))
    Jd = momentum_map(sp1d)
    z0, zb0, z1, zb1 = zvar(sp1d, 0), zbvar(sp1d, 0), zvar(sp1d, 1), zbvar(sp1d, 1)
    assert Jd == ((-(z0 * zb0)) + z1 * zb1).scale(Fraction(-1, 2))


def test_is_invariant(ctx1, sp1, rng):
    x = LaurentElem.x_power(sp1, 1)
    assert x.is_invariant()
    assert not zvar(sp1, 0).is_invariant()
    assert (zvar(sp1, 0) * zbvar(sp1, 1) * x.inverse()).is_invariant()
    # cross-checks: Y-kernel and vanishing Wick commutator with J
    J = momentum_map(sp1)
    for _ in range(6):
        F = rand_poly(sp1, rng, max_deg=2)
        flag = F.is_invariant()
        assert flag == euler(F, "Y").is_zero()
        comm = wick_product_elems(F, J, ctx1) - wick_product_elems(J, F, ctx1)
        assert flag == comm.is_zero()


def test_reduce_function(ctx1, sp1, phi):
    x = LaurentElem.x_power(sp1, 1)
    one = LaurentElem.one_of(sp1)
    assert reduce_elem(x, ctx1) == one  # x -> -2 mu = 1
    assert reduce_elem(zvar(sp1, 0) * zbvar(sp1, 0), ctx1) == phi.scale(1)
    assert reduce_elem(phi, ctx1) == phi
    ctx2 = StarContext(space=sp1, K=4, mu=Fraction(-2))
    assert reduce_elem(x, ctx2) == LaurentElem.scalar(sp1, 4)
    assert reduce_elem(zvar(sp1, 0) * zbvar(sp1, 0), ctx2) == phi.scale(4)
    with pytest.raises(ValueError):
        reduce_elem(zvar(sp1, 0), ctx1)


def test_ideal_decompose_examples(ctx1, sp1, phi):
    x = LaurentElem.x_power(sp1, 1)
    one = LaurentElem.one_of(sp1)
    dec = ideal_decompose(Series.const(x, ctx1.K), ctx1)
    assert dec.projection.coeffs[0] == one
    assert dec.multiplier.coeffs[0] == LaurentElem.scalar(sp1, -2)
    dec = ideal_decompose(Series.const(phi, ctx1.K), ctx1)
    assert dec.projection.coeffs[0] == phi
    assert dec.multiplier.coeffs[0].is_zero()
    J_mu = momentum_map(sp1) - LaurentElem.scalar(sp1, ctx1.mu)
    F = J_mu * x
    dec = ideal_decompose(Series.const(F, ctx1.K), ctx1)
    assert dec.projection.coeffs[0].is_zero()
    assert dec.multiplier.coeffs[0] == x


def test_ideal_decompose_reconstruction(ctx1, sp1, rng):
    J_mu = momentum_map(sp1) - LaurentElem.scalar(sp1, ctx1.mu)
    F = Series([rand_invariant(sp1, rng) for _ in range(ctx1.K + 1)])
    dec = ideal_decompose(F, ctx1)
    rebuilt = dec.projection + dec.multiplier.map(lambda c: J_mu * c)
    assert (rebuilt - F).is_zero()
    for c in dec.projection.coeffs:
        assert c.is_homogeneous()
    for c in dec.multiplier.coeffs:
        assert c.is_invariant()


def test_k_coeff_values():
    assert k_coeff(1, 1) == 1
    assert k_coeff(2, 1) == -1 and k_coeff(2, 2) == Fraction(1, 2)
    assert k_coeff(3, 1) == 1
    assert k_coeff(3, 2) == Fraction(-3, 2)
    assert k_coeff(3, 3) == Fraction(1, 6)
    with pytest.raises(ValueError):
        k_coeff(2, 3)


def test_k_coeff_equals_a_over_factorial():
    for r in range(1, 11):
        for s in range(1, r + 1):
            assert k_coeff(r, s) == a_coeff(s, r - s) / factorial(s)


def test_mu_star_unit_and_example(ctx1, sp1, phi):
    one = Series.const(LaurentElem.one_of(sp1), ctx1.K)
    P = Series.const(phi, ctx1.K)
    assert (mu_star(P, one, ctx1) - P).is_zero()
    assert (mu_star(one, P, ctx1) - P).is_zero()
    prod = mu_star_elems(phi, phi, ctx1)
    assert prod.coeffs[0] == phi * phi
    assert prod.coeffs[1] == phi - phi * phi  # lambda/(-2mu) = lambda at mu = -1/2
    with pytest.raises(ValueError):
        mu_star(Series.const(LaurentElem.x_power(sp1, 1), ctx1.K), one, ctx1)
    bad = StarContext(space=sp1, K=4, D=(1, 1))
    with pytest.raises(ValueError):
        mu_star(P, P, bad)


def test_mu_star_commutator(ctx1, sp1, rng):
    for _ in range(4):
        f, g = rand_homogeneous(sp1, rng), rand_homogeneous(sp1, rng)
        comm = mu_star_elems(f, g, ctx1) - mu_star_elems(g, f, ctx1)
        assert comm.coeffs[0].is_zero()
        assert comm.coeffs[1] == reduced_poisson(f, g, ctx1).scale(gauss(0, Fraction(1, 2)))


def test_reduced_poisson(ctx1, sp1, phi, rng):
    assert reduced_poisson(phi, phi, ctx1).is_zero()
    assert reduced_poisson(phi, LaurentElem.one_of(sp1), ctx1).is_zero()
    f = zvar(sp1, 0) * zbvar(sp1, 1) * LaurentElem.x_power(sp1, 1).inverse()
    a = reduced_poisson(phi, f, ctx1)
    b = reduced_poisson(f, phi, ctx1)
    assert (a + b).is_zero()
    # the quoted identity: reduce(ambient bracket) = reduced bracket
    g = rand_homogeneous(sp1, rng)
    assert reduced_poisson(f, g, ctx1) == reduce_elem(poisson(f, g), ctx1)


def test_mu_star_associativity_and_conjugation(sp1, rng):
    ctx = StarContext(space=sp1, K=4)
    f, g, h = (rand_homogeneous(sp1, rng) for _ in range(3))
    left = mu_star(mu_star_elems(f, g, ctx), Series.const(h, ctx.K), ctx)
    right = mu_star(Series.const(f, ctx.K), mu_star_elems(g, h, ctx), ctx)
    assert (left - right).is_zero()
    conj_prod = mu_star_elems(f, g, ctx).map(lambda c: c.conj())
    assert (conj_prod - mu_star_elems(g.conj(), f.conj(), ctx)).is_zero()


def test_reduction_compatibility(ctx1, sp1, rng):
    x = LaurentElem.x_power(sp1, 1)
    G = Series.const(rand_invariant(sp1, rng), ctx1.K)
    assert reduction_compatibility(Series.const(x, ctx1.K), G, ctx1).is_zero()
    zz = zvar(sp1, 0) * zbvar(sp1, 0)
    ctx3 = StarContext(space=sp1, K=3)
    assert reduction_compatibility(Series.const(zz, 3), Series.const(zz, 3), ctx3).is_zero()
    f = rand_homogeneous(sp1, rng)
    g = rand_homogeneous(sp1, rng)
    assert reduction_compatibility(Series.const(f, ctx1.K), Series.const(g, ctx1.K), ctx1).is_zero()


def test_wick_reduce_routes(ctx1, sp1, phi, rng):
    w = wick_reduce(phi, phi, ctx1)
    assert w.coeffs[0] == phi * phi
    from wickred.wick import m_op

    assert w.coeffs[1] == m_op(phi, phi, 1)  # (1/(-2mu)) M~_1 at mu = -1/2
    for _ in range(3):
        f, g = rand_homogeneous(sp1, rng), rand_homogeneous(sp1, rng)
        t1 = mu_star_elems(f, g, ctx1)
        t2 = wick_reduce(f, g, ctx1)
        t3 = wick_reduce_by_division(f, g, ctx1)
        t4 = reduce_function(tilde_star_elems(f, g, ctx1), ctx1)
        assert (t1 - t2).is_zero()
        assert (t1 - t3).is_zero()
        assert (t1 - t4).is_zero()


def test_quantum_momentum(ctx1, sp1, phi, rng):
    F = Series.const(phi, ctx1.K)
    assert quantum_momentum_check(F, ctx1).is_zero()
    f = zvar(sp1, 0) * zbvar(sp1, 1) * LaurentElem.x_power(sp1, 1).inverse()
    assert quantum_momentum_check(Series.const(f, ctx1.K), ctx1).is_zero()
    ctx_d = StarContext(space=sp1, K=4, D=(1, 1))
    F2 = Series.const(rand_invariant(sp1, rng), 4)
    assert quantum_momentum_check(F2, ctx_d).is_zero()
    # SJ = D J for the nontrivial D
    from wickred.equiv import s_apply

    SJ = s_apply(Series.const(momentum_map(sp1), 4), ctx_d)
    J = momentum_map(sp1)
    expected = Series([J, J.mul_xpow(-1)] + [LaurentElem.zero_of(sp1)] * 3)
    assert (SJ - expected).is_zero()


def test_reparametrize_check(ctx1, sp1, phi, rng):
    assert reparametrize_check(phi, phi, ctx1).is_zero()
    for _ in range(3):
        f, g = rand_homogeneous(sp1, rng), rand_homogeneous(sp1, rng)
        res = reparametrize_check(f, g, StarContext(sp1, ctx1.K, (1, 1)))
        assert res.coeffs[0].is_zero()
        assert res.is_zero()
    res = reparametrize_check(phi, phi, StarContext(sp1, ctx1.K, (1, 0, Fraction(-1, 3))))
    assert res.is_zero()


def test_su1n_context(sp1d, rng):
    ctx = StarContext(space=sp1d, K=4)
    f, g, h = (rand_homogeneous(sp1d, rng) for _ in range(3))
    left = mu_star(mu_star_elems(f, g, ctx), Series.const(h, ctx.K), ctx)
    right = mu_star(Series.const(f, ctx.K), mu_star_elems(g, h, ctx), ctx)
    assert (left - right).is_zero()
    comm = mu_star_elems(f, g, ctx) - mu_star_elems(g, f, ctx)
    assert comm.coeffs[1] == reduced_poisson(f, g, ctx).scale(gauss(0, Fraction(1, 2)))
