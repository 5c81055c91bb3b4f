import itertools
import math
from fractions import Fraction
from random import Random

import pytest

from wickred.poly import LaurentElem, Poly, VarSpace, is_radial
from wickred.sampling import rand_homogeneous, rand_invariant, rand_poly, rand_radial
from wickred.scalar import GaussianRational, gauss
from wickred.series import Series, UnivarPoly
from wickred.wick import (
    StarContext,
    commutator_check,
    m_op,
    op_calm,
    poisson,
    product_formula_check,
    radial_invariant_expansion,
    restrict_diagonal,
    tensor,
    wick_product,
    wick_product_elems,
)

from euler_ops import euler
from two_point_ops import euler_zwb


def zvar(sp, k):
    return LaurentElem.variable(sp, sp.iz(k))


def zbvar(sp, k):
    return LaurentElem.variable(sp, sp.izb(k))


def test_context_validation(sp1):
    with pytest.raises(ValueError):
        StarContext(space=sp1, K=0)
    with pytest.raises(ValueError):
        StarContext(space=sp1, D=(2,))
    with pytest.raises(ValueError):
        StarContext(space=sp1, mu=Fraction(1, 2))


def test_wick_on_coordinates(ctx1, sp1):
    for i in range(2):
        for j in range(2):
            prod = wick_product_elems(zvar(sp1, i), zbvar(sp1, j), ctx1)
            assert prod.coeffs[0] == zvar(sp1, i) * zbvar(sp1, j)
            expected = LaurentElem.one_of(sp1) if i == j else LaurentElem.zero_of(sp1)
            assert prod.coeffs[1] == expected
            assert all(c.is_zero() for c in prod.coeffs[2:])
            rev = wick_product_elems(zbvar(sp1, j), zvar(sp1, i), ctx1)
            assert rev.coeffs[0] == zvar(sp1, i) * zbvar(sp1, j)
            assert all(c.is_zero() for c in rev.coeffs[1:])


def test_wick_x_star_x(ctx1, sp1):
    # the Wick product of x with x^r is x^(r+1) + lambda r x^r; here r = 1
    x = LaurentElem.x_power(sp1, 1)
    prod = wick_product_elems(x, x, ctx1)
    assert prod.coeffs[0] == x * x
    assert prod.coeffs[1] == x
    assert all(c.is_zero() for c in prod.coeffs[2:])
    # and r = 2
    prod = wick_product_elems(x, x * x, ctx1)
    assert prod.coeffs[0] == x.pow(3)
    assert prod.coeffs[1] == (x * x).scale(2)


def test_wick_indefinite_metric(ctx1d, sp1d):
    prod = wick_product_elems(zvar(sp1d, 0), zbvar(sp1d, 0), ctx1d)
    assert prod.coeffs[1] == LaurentElem.scalar(sp1d, -1)
    prod = wick_product_elems(zvar(sp1d, 1), zbvar(sp1d, 1), ctx1d)
    assert prod.coeffs[1] == LaurentElem.one_of(sp1d)


def test_poisson(sp1):
    for i in range(2):
        for j in range(2):
            br = poisson(zvar(sp1, i), zbvar(sp1, j))
            expected = LaurentElem.scalar(sp1, gauss(0, -2)) if i == j else LaurentElem.zero_of(sp1)
            assert br == expected
    x = LaurentElem.x_power(sp1, 1)
    F = zvar(sp1, 0) * zbvar(sp1, 0)
    assert poisson(x, F).is_zero()
    assert poisson(F, F).is_zero()


def test_commutator_check(ctx1, sp1):
    res = commutator_check(zvar(sp1, 0), zbvar(sp1, 1), ctx1)
    assert res.coeffs[1].is_zero()
    F = rand_poly(sp1, __import__("random").Random(3), max_deg=2)
    assert commutator_check(F, F, ctx1).is_zero()
    x = LaurentElem.x_power(sp1, 1)
    res = commutator_check(x, zvar(sp1, 0) * zbvar(sp1, 0), ctx1)
    assert res.coeffs[1].is_zero()


def test_m_ops(sp1, phi):
    g = rand_invariant(sp1, __import__("random").Random(1))
    assert m_op(phi, g, 0) == phi * g
    assert m_op(phi, phi, 1) == phi - phi * phi
    one = LaurentElem.one_of(sp1)
    for r in (1, 2, 3):
        assert m_op(one, g, r).is_zero()


def test_radial_wick_products(ctx1, sp1):
    x = LaurentElem.x_power(sp1, 1)
    prod = wick_product_elems(x, x, ctx1)
    assert prod.coeffs[0] == x.pow(2)
    assert prod.coeffs[1] == x
    one = LaurentElem.one_of(sp1)
    rho = one.scale(2) + x.pow(2).scale(3)
    assert wick_product_elems(one, rho, ctx1).coeffs[0] == rho
    assert all(c.is_zero() for c in wick_product_elems(one, rho, ctx1).coeffs[1:])
    x2 = x.pow(2)
    prod = wick_product_elems(x2, x2, ctx1)
    assert prod.coeffs[0] == x.pow(4)
    assert prod.coeffs[1] == x.pow(3).scale(4)
    assert prod.coeffs[2] == x2.scale(2)
    # the radial expansion is the same series
    for R, G in ((x, x), (one, rho), (x2, x2)):
        assert radial_invariant_expansion(R, G, ctx1) == wick_product_elems(R, G, ctx1)


def _deriv(p: UnivarPoly) -> UnivarPoly:
    return UnivarPoly([c.scale(k) for k, c in enumerate(p.coeffs)][1:])


def _shift(p: UnivarPoly, k: int) -> UnivarPoly:
    """p times its variable to the k-th power."""
    return UnivarPoly([0] * k + p.coeffs)


class ExpPoly:
    """P(x) * e^(g x) with polynomial prefactor, a UnivarPoly standing
    for a polynomial in x; closed under d/dx."""

    __slots__ = ("prefactor", "g")

    def __init__(self, prefactor: UnivarPoly, g):
        self.prefactor = prefactor
        self.g = g

    def deriv(self) -> "ExpPoly":
        return ExpPoly(_deriv(self.prefactor) + self.prefactor.scale(self.g), self.g)


def exp_symbol_product(alpha, beta, ctx: StarContext) -> Series:
    """Residual of e_alpha (radial-star) e_beta against the expansion of
    the exponential with shifted argument alpha + beta + lambda alpha beta.

    Both sides share the factor e^((alpha+beta) x); what is returned is
    the series of polynomial cofactors of that common exponential, which
    must vanish identically.
    """
    alpha = GaussianRational.coerce(Fraction(alpha)) if not isinstance(alpha, GaussianRational) else alpha
    beta = GaussianRational.coerce(Fraction(beta)) if not isinstance(beta, GaussianRational) else beta
    K = ctx.K
    one = UnivarPoly([1])
    ea = ExpPoly(one, alpha)
    eb = ExpPoly(one, beta)
    lhs = []
    fact = 1
    for r in range(K + 1):
        if r:
            ea = ea.deriv()
            eb = eb.deriv()
            fact *= r
        lhs.append(_shift(ea.prefactor * eb.prefactor, r).scale(Fraction(1, fact)))
    # right side: e^((a+b)x) * sum_m lambda^m (a b x)^m / m!
    rhs = []
    fact = 1
    abx = UnivarPoly([0, alpha * beta])
    power = one
    for m in range(K + 1):
        if m:
            power = power * abx
            fact *= m
        rhs.append(power.scale(Fraction(1, fact)))
    return Series(lhs) - Series(rhs)


def test_exp_symbol_product(ctx1):
    assert exp_symbol_product(0, 3, ctx1).is_zero()
    assert exp_symbol_product(1, 1, ctx1).is_zero()
    assert exp_symbol_product(1, -1, ctx1).is_zero()
    assert exp_symbol_product(Fraction(1, 2), Fraction(2, 3), ctx1).is_zero()


def _radial_product_suite(ctx, rng, tuples):
    sp = ctx.space
    for _ in range(tuples):
        R1, R2 = rand_radial(sp, rng), rand_radial(sp, rng)
        F = rand_invariant(sp, rng)
        f, g = rand_homogeneous(sp, rng), rand_homogeneous(sp, rng)
        # (i) radial * invariant via x-derivative expansion, both orders
        lhs = wick_product_elems(R1, F, ctx)
        assert (lhs - radial_invariant_expansion(R1, F, ctx)).is_zero()
        assert (lhs - wick_product_elems(F, R1, ctx)).is_zero()
        # (ii) radial * radial commute and stay radial
        r12 = wick_product_elems(R1, R2, ctx)
        assert (r12 - wick_product_elems(R2, R1, ctx)).is_zero()
        assert all(is_radial(c) for c in r12.coeffs)
        # (iii) radial * homogeneous is pointwise
        pw = Series.const(R1 * f, ctx.K)
        assert (wick_product_elems(R1, f, ctx) - pw).is_zero()
        assert (wick_product_elems(f, R1, ctx) - pw).is_zero()
        # (iv) M_r homogeneous and the (lambda/x)^r expansion
        fg = wick_product_elems(f, g, ctx)
        fact = 1
        for r in range(ctx.K + 1):
            if r:
                fact *= r
            mr = m_op(f, g, r)
            assert mr.is_zero() or mr.is_homogeneous()
            assert fg.coeffs[r] == mr.mul_xpow(-r).scale(Fraction(1, fact))


def test_radial_product_relations(ctx1, rng):
    _radial_product_suite(ctx1, rng, 3)


def test_radial_product_relations_indefinite(ctx1d, rng):
    _radial_product_suite(ctx1d, rng, 3)


def test_associativity_small(rng):
    for n in (1, 2):
        for make in (VarSpace.cpn, VarSpace.dn):
            ctx = StarContext(space=make(n), K=6)
            F, G, H = (rand_poly(ctx.space, rng, max_deg=3) for _ in range(3))
            left = wick_product(wick_product_elems(F, G, ctx), Series.const(H, ctx.K), ctx)
            right = wick_product(Series.const(F, ctx.K), wick_product_elems(G, H, ctx), ctx)
            assert (left - right).is_zero()


def _m_op_tuple_oracle(F, G, r, ctx):
    """Brute force over all index tuples (i1..ir), no multinomial weights."""
    from itertools import product as iproduct

    sp = ctx.space
    acc = LaurentElem.zero_of(sp)
    for tup in iproduct(range(sp.nv), repeat=r):
        sign = 1
        a, b = F, G
        for i in tup:
            if sp.metric[i] == -1:
                sign = -sign
            a = a.diff(sp.iz(i))
            b = b.diff(sp.izb(i))
        term = a * b
        acc = acc + (term if sign == 1 else -term)
    return acc.mul_xpow(r)


def test_m_op_against_tuple_oracle(rng):
    for n in (1, 2):
        for make in (VarSpace.cpn, VarSpace.dn):
            ctx = StarContext(space=make(n), K=4)
            F = rand_invariant(ctx.space, rng)
            G = rand_homogeneous(ctx.space, rng)
            for r in (1, 2, 3):
                assert m_op(F, G, r) == _m_op_tuple_oracle(F, G, r, ctx)


def test_first_order_commutator_fifty_pairs(ctx1, ctx1d, rng):
    for ctx in (ctx1, ctx1d):
        for _ in range(25):
            F = rand_poly(ctx.space, rng, max_deg=2)
            G = rand_poly(ctx.space, rng, max_deg=2)
            assert commutator_check(F, G, ctx).coeffs[1].is_zero()


def test_wick_space_mismatch(ctx1, sp1d):
    F = Series.const(LaurentElem.x_power(sp1d, 1), ctx1.K)
    with pytest.raises(ValueError):
        wick_product(F, F, ctx1)


def test_momentum_commutator_no_higher_orders(ctx1, sp1, rng):
    # F * J - J * F = (i lambda / 2){F, J} exactly, all higher orders zero
    J = LaurentElem.x_power(sp1, 1).scale(Fraction(-1, 2))
    for _ in range(5):
        F = rand_poly(sp1, rng, max_deg=3)
        comm = wick_product_elems(F, J, ctx1) - wick_product_elems(J, F, ctx1)
        br = Series.const(poisson(F, J).scale(gauss(0, Fraction(1, 2))), ctx1.K)
        assert (comm - br.times_lambda(1)).is_zero()
    Finv = rand_invariant(sp1, rng)
    comm = wick_product_elems(Finv, J, ctx1) - wick_product_elems(J, Finv, ctx1)
    assert comm.is_zero()
    assert poisson(Finv, J).is_zero()


# ----------------------------------------------------------------------
# two-point operators on tensor symbols


def test_radial_expansion_rejects_a_non_radial_factor(sp1):
    # two invariant draws that are not radial: the closed form does not
    # hold for them, so it must not return a series
    ctx = StarContext(space=sp1, K=3)
    rng = Random(5)
    R, F = rand_invariant(sp1, rng), rand_invariant(sp1, rng)
    assert not is_radial(R)
    with pytest.raises(ValueError, match="radial"):
        radial_invariant_expansion(R, F, ctx)


def test_two_point_restriction(sp1, phi):
    f, g = phi, phi
    T = tensor(f, g)
    zero = (0, 0)
    assert T.terms == {(zero, zero): Poly.one(sp1)}
    assert restrict_diagonal(T) == f * g
    assert (restrict_diagonal(op_calm(T, 1)) - m_op(f, g, 1)).is_zero()


def test_two_point_errors(sp1, phi):
    with pytest.raises(ValueError):
        tensor(phi, LaurentElem.one_of(VarSpace.dn(1)))
    # symbols add key by key only over the same factors
    with pytest.raises(ValueError):
        tensor(phi, phi) + tensor(phi, LaurentElem.one_of(sp1))
    with pytest.raises(ValueError):
        op_calm(tensor(phi, phi), -1)


def test_euler_zwb_annihilates_homogeneous_tensors_on_the_diagonal(rng):
    # (E_z + Ebar_w)(f (x) g) restricts to (E f) g + f (Ebar g), zero for
    # degree-(0,0) f and g, though as a symbol it is not zero
    for space in (VarSpace.cpn(1), VarSpace.dn(2)):
        f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
        T = euler_zwb(tensor(f, g))
        assert T.terms
        assert restrict_diagonal(T).is_zero()


def test_recursion_on_tensor_inputs(ctx1, sp1, rng):
    # calM_2 = (N - 1(n-1) - 1 H) calM_1 on f (x) g with homogeneous f, g;
    # H commutes with the restriction, which is where it is taken
    n = ctx1.n
    f, g = rand_homogeneous(sp1, rng), rand_homogeneous(sp1, rng)
    T = tensor(f, g)
    m1 = op_calm(T, 1)
    rhs = restrict_diagonal(op_calm(m1, 1) - m1.scale(1 * (n - 1))) - euler(restrict_diagonal(m1), "H")
    assert (restrict_diagonal(op_calm(T, 2)) - rhs).is_zero()


def test_recursion_general_inputs(rng):
    # on arbitrary factors the Euler weight E_z + Ebar_w of the contraction
    # prefactor z.wb drives the recursion
    # calM_{r+1} = (N - r(n-r) - r(E_z+Ebar_w)) calM_r, an operator identity
    # and so an identity of symbols.  On homogeneous factors it acts as
    # zero on the diagonal exactly like H, so the two are interchangeable
    # inside the solved product formula
    for n in (1, 2):
        ctx = StarContext(space=VarSpace.cpn(n), K=3)
        for _ in range(3):
            T = tensor(rand_poly(ctx.space, rng, max_deg=2), rand_invariant(ctx.space, rng))
            for r in (1, 2):
                mr = op_calm(T, r)
                rhs = op_calm(mr, 1) - mr.scale(r * (n - r)) - euler_zwb(mr).scale(r)
                assert op_calm(T, r + 1) == rhs


def test_product_formula(rng):
    for n in (1, 2):
        for make in (VarSpace.cpn, VarSpace.dn):
            ctx = StarContext(space=make(n), K=4)
            f = rand_homogeneous(ctx.space, rng)
            g = rand_homogeneous(ctx.space, rng)
            for r in (1, 2, 3):
                assert product_formula_check(r, f, g, ctx).is_zero()


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1)], ids=str)
def test_calm_on_the_diagonal_is_m_op(space, rng):
    # calM_r(f (x) g) is the symbol of M_r, sum over |beta| = r of
    # (g z.wb)^r r! g^beta / beta! d^beta f dbar^beta g, and so restricted
    # to the diagonal it is M_r(f, g) term for term: (g z.wb)^r becomes
    # x^r and dbar_w^beta g(w) becomes dbar_z^beta g(z), homogeneous or
    # not, with or without an x in the denominator
    pairs = [(rand_homogeneous(space, rng), rand_homogeneous(space, rng)),
             (rand_poly(space, rng, max_deg=2), rand_invariant(space, rng))]
    for f, g in pairs:
        for r in (1, 2, 3):
            T = op_calm(tensor(f, g), r)
            want = {}
            for beta in itertools.product(range(r + 1), repeat=space.nv):
                if sum(beta) == r:
                    sign = math.prod(s ** b for s, b in zip(space.metric, beta))
                    weight = Fraction(math.factorial(r) * sign, math.prod(map(math.factorial, beta)))
                    want[(beta, beta)] = Poly.x(space).pow(r).scale(weight)
            assert T.terms == want
            assert restrict_diagonal(T) == m_op(f, g, r)
