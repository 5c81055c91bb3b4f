from fractions import Fraction

import pytest

from wickred.poly import LaurentElem, Poly, VarSpace, is_radial
from wickred.sampling import rand_homogeneous, rand_invariant, rand_poly
from wickred.scalar import gauss


def zvar(sp, k):
    return LaurentElem.variable(sp, sp.iz(k))


def zbvar(sp, k):
    return LaurentElem.variable(sp, sp.izb(k))


def test_varspace_validation():
    with pytest.raises(ValueError):
        VarSpace(0, (1,))
    with pytest.raises(ValueError):
        VarSpace(1, (1, 2))


def test_ring_ops(sp1):
    x = LaurentElem.x_power(sp1, 1)
    assert zvar(sp1, 0) * zbvar(sp1, 0) == LaurentElem.from_poly(
        Poly.variable(sp1, 0) * Poly.variable(sp1, 2)
    )
    assert x * x.inverse() == LaurentElem.one_of(sp1)
    e = zvar(sp1, 0) * zbvar(sp1, 0) + zvar(sp1, 1) * zbvar(sp1, 1)
    assert e == x
    assert e.mz == -1 and e.num.is_scalar()


def test_space_mismatch(sp1, sp1d):
    with pytest.raises(ValueError):
        LaurentElem.x_power(sp1, 1) + LaurentElem.x_power(sp1d, 1)


def test_diff(sp1):
    x = LaurentElem.x_power(sp1, 1)
    z0, zb0, z1, zb1 = zvar(sp1, 0), zbvar(sp1, 0), zvar(sp1, 1), zbvar(sp1, 1)
    assert (z0 * zb0).diff(sp1.iz(0)) == zb0
    inv_x = x.inverse()
    for k in range(2):
        assert inv_x.diff(sp1.iz(k)) == -(zbvar(sp1, k) * inv_x * inv_x)
    phi = z0 * zb0 * inv_x
    assert phi.diff(sp1.iz(1)) == -(z0 * zb0 * zb1 * inv_x * inv_x)


def test_diff_metric(sp1d):
    # d x / d z0 carries the metric sign
    x = LaurentElem.x_power(sp1d, 1)
    assert x.diff(sp1d.iz(0)) == -zbvar(sp1d, 0)
    assert x.inverse().diff(sp1d.iz(0)) == zbvar(sp1d, 0) * x.inverse() * x.inverse()


def test_bidegree(sp1, phi):
    x = LaurentElem.x_power(sp1, 1)
    assert phi.bidegree() == (0, 0) and phi.is_homogeneous()
    assert x.bidegree() == (1, 1) and x.is_invariant() and not x.is_homogeneous()
    z0 = zvar(sp1, 0)
    assert z0.bidegree() == (1, 0) and not z0.is_invariant()
    mixed = x * x + z0 * zbvar(sp1, 0)
    assert mixed.bidegree() is None and mixed.is_invariant()


def test_euler_ops(sp1, phi):
    x = LaurentElem.x_power(sp1, 1)
    z0 = zvar(sp1, 0)
    assert phi.euler("E").is_zero() and phi.euler("Ebar").is_zero()
    assert x.euler("Y").is_zero()
    assert z0.euler("E") == z0
    assert z0.euler("Y") == z0.scale(gauss(0, 1))


def test_divide_by_x(sp1):
    xpoly = Poly.x(sp1)
    p = Poly.variable(sp1, 0) * Poly.variable(sp1, 2) + Poly.variable(sp1, 1) * Poly.variable(sp1, 3)
    assert p.divided_by_x() == Poly.one(sp1)
    assert (Poly.variable(sp1, 0) * Poly.variable(sp1, 2)).divided_by_x() is None
    assert (xpoly * xpoly - xpoly).divided_by_x() == xpoly - Poly.one(sp1)


def test_eval(sp1, sp1d, phi):
    x = LaurentElem.x_power(sp1, 1)
    assert x.eval([1, 0]) == gauss(1)
    assert phi.eval([1, 1]) == gauss(Fraction(1, 2))
    y = LaurentElem.x_power(sp1d, 1)
    assert y.eval([1, 1]) == gauss(0)
    with pytest.raises(ZeroDivisionError):
        y.inverse().eval([1, 1])
    # complex coordinates use the conjugate for zb
    assert x.eval([gauss(0, 1), 0]) == gauss(1)


def test_eval_is_ring_morphism(sp1, rng):
    pts = [[gauss(1, 1), gauss(Fraction(1, 2))], [gauss(2), gauss(0, 1)]]
    for _ in range(20):
        p = rand_poly(sp1, rng, max_deg=2)
        q = rand_invariant(sp1, rng)
        for pt in pts:
            assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
            assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_canonicalization_idempotent(sp1, rng):
    for _ in range(50):
        e = rand_invariant(sp1, rng)
        again = LaurentElem(e.num, e.mz, e.mw)
        assert again == e


def test_cross_mult_equality(sp1, rng):
    x = LaurentElem.x_power(sp1, 1)
    for _ in range(200):
        a = rand_invariant(sp1, rng)
        b = rand_invariant(sp1, rng) if rng.random() < 0.5 else a * x * x.inverse()
        assert (a == b) == a.eq_cross_mult(b)


def test_mixed_partials_commute(sp1, rng):
    for _ in range(20):
        e = rand_invariant(sp1, rng)
        v1, v2 = rng.randrange(4), rng.randrange(4)
        assert e.diff(v1).diff(v2) == e.diff(v2).diff(v1)


def test_homogeneous_euler_annihilation(sp1, rng):
    for _ in range(30):
        f = rand_homogeneous(sp1, rng)
        assert f.euler("E").is_zero() and f.euler("Ebar").is_zero()


def test_peel_reconstruction(sp1, rng):
    for _ in range(30):
        e = rand_invariant(sp1, rng)
        rebuilt = LaurentElem.zero_of(sp1)
        for j, h in e.peel().items():
            assert h.is_homogeneous()
            rebuilt = rebuilt + h.mul_xpow(j)
        assert rebuilt == e
    with pytest.raises(ValueError):
        zvar(sp1, 0).peel()


def test_is_radial(sp1, phi):
    x = LaurentElem.x_power(sp1, 1)
    assert is_radial(x + x.inverse().scale(3))
    assert not is_radial(phi)
    assert not is_radial(zvar(sp1, 0))


def test_conj(sp1, phi):
    z0 = zvar(sp1, 0)
    assert z0.conj() == zbvar(sp1, 0)
    e = phi.scale(gauss(0, 1))
    assert e.conj() == phi.scale(gauss(0, -1))
    assert e.conj().conj() == e


def test_dx(sp1):
    x = LaurentElem.x_power(sp1, 1)
    assert x.dx() == LaurentElem.one_of(sp1)
    assert (x * x).dx() == x.scale(2)
    assert x.inverse().dx() == -(x.inverse() * x.inverse())
    with pytest.raises(ValueError):
        zvar(sp1, 0).dx()
