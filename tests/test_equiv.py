from fractions import Fraction
from random import Random

import pytest

from wickred.cli import MAX_FLAG_DIGITS, MAX_ORDER
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
from wickred.scalar import GaussianRational
from wickred.series import Series, scalar_series
from wickred.sparse import pack, total_degree
from wickred.suites import a_table_oracle
from wickred.wick import StarContext, m_op


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


def beta_poly(*terms) -> SparsePoly:
    """sum c beta^m over (m, c) pairs, on packed keys."""
    return SparsePoly(1, {pack((m,)): GaussianRational.coerce(Fraction(c)) for m, c in terms})


def test_symbol_leading_terms(ctx1):
    # order t stands for x^-t p_t(x alpha): -1/2 x alpha^2, 1/3 x alpha^3 + 1/8 x^2 alpha^4
    sym = symbol(ctx1)
    assert sym.coeffs[0] == beta_poly((0, 1))
    assert sym.coeffs[1] == beta_poly((2, Fraction(-1, 2)))
    assert sym.coeffs[2] == beta_poly((3, Fraction(1, 3)), (4, Fraction(1, 8)))


def test_symbol_at_alpha_zero_is_one(ctx1, sp1):
    for ctx in (ctx1, ctx_with_d1(sp1)):
        sym0 = symbol_at_alpha_zero(ctx)
        assert sym0 == Series.const(beta_poly((0, 1)), ctx.K)


def test_functional_equation(sp1):
    for D in ((1,), (1, 1)):
        ctx = StarContext(space=sp1, K=6, D=D)
        res = functional_equation_residual(ctx)
        assert res.coeffs[0].is_zero()
        assert res.coeffs[1].is_zero()
        assert all(p.is_zero() for p in res.coeffs)


# the largest D that --d-series accepts: cli.MAX_ORDER entries past d_0,
# numerators and denominators of cli.MAX_FLAG_DIGITS digits
WIDE_D = (1,) + tuple(Fraction(-(10**MAX_FLAG_DIGITS - r), 10**MAX_FLAG_DIGITS - 2 * r - 1)
                      for r in range(1, MAX_ORDER + 1))


@pytest.mark.parametrize("D", [(1,), WIDE_D], ids=["D1", "wide"])
def test_symbol_checks_at_the_largest_order(sp1, D):
    """Every symbol check at K = cli.MAX_ORDER, where the symbol's top
    order has beta-degree 2K = 32: every product of the checks stays below
    sparse.DEG_CAP."""
    ctx = StarContext(space=sp1, K=MAX_ORDER, D=D)
    assert max(total_degree(k, 1) for k in symbol(ctx).coeffs[-1].terms) == 2 * MAX_ORDER
    res = functional_equation_residual(ctx)
    assert res.order == MAX_ORDER and res.is_zero()
    for j in range(-3, 4):
        assert (s_apply_xpow(j, ctx) - standard_order_apply(j, ctx)).is_zero()
    assert symbol_at_alpha_zero(ctx) == Series.const(beta_poly((0, 1)), MAX_ORDER)


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



def s_inverse_xpow(j, ctx):
    """S^-1(x^j): S^-1 on the constant series x^j."""
    return s_apply(Series.const(LaurentElem.x_power(ctx.space, j), ctx.K), ctx, inverse=True)


def stirling2_triangle(N):
    """S(n, k) for 0 <= k <= n <= N from S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    S = [[0] * (N + 1) for _ in range(N + 1)]
    S[0][0] = 1
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            S[n][k] = k * S[n - 1][k] + S[n - 1][k - 1]
    return S


def test_s_inverse_xpow_is_stirling_for_trivial_d(sp1):
    # D = 1: S(x^j) is the falling factorial x(x - l)...(x - (j-1) l), so
    # S^-1(x^j) = sum_k S(j, k) l^(j-k) x^k, order t carrying S(j, j-t) x^(j-t)
    ctx = StarContext(space=sp1, K=8)
    S = stirling2_triangle(8)
    for j in range(1, 9):
        table = s_inverse_xpow(j, ctx)
        assert table.order == 8
        for t, c in enumerate(table.coeffs):
            want = S[j][j - t] if t <= j else 0
            assert c == LaurentElem.x_power(sp1, j - t).scale(want), (j, t)


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.dn(1)])
@pytest.mark.parametrize("D", [(1,), (1, 1), (1, Fraction(-1, 3), 2)])
def test_s_undoes_s_inverse_xpow(space, D):
    ctx = StarContext(space=space, K=4, D=D)
    for j in range(-4, 5):
        x_j = Series.const(LaurentElem.x_power(space, j), ctx.K)
        assert s_apply(s_inverse_xpow(j, ctx), ctx) == x_j, j


def sigma_closed_form(j, ctx):
    """sigma_j with S(x^j) = x^j sigma_j(u), u = lambda/x, by its closed
    forms in v = u / Dh(u): Dh^j prod_{k=1..j-1} (1 - k v) for j >= 0 and
    Dh^(-|j|) sum_s A^(|j|)_s v^s for j < 0."""
    d = scalar_series(ctx.D, ctx.K)
    v, one = d.invert().times_lambda(1), d.one()
    if j >= 0:
        sigma = d.pow(j)
        for k in range(1, j):
            sigma = sigma * (one - v.scale(k))
        return sigma
    acc = sum((v.pow(s).scale(a_coeff(-j, s)) for s in range(1, ctx.K + 1)), one)
    return acc * d.invert().pow(-j)


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.dn(1)])
@pytest.mark.parametrize("D", [(1,), (1, 1), (1, Fraction(-1, 3), 2)])
def test_s_apply_xpow_matches_closed_forms(space, D):
    ctx = StarContext(space=space, K=8, D=D)
    for j in range(-12, 13):
        sigma = sigma_closed_form(j, ctx)
        want = Series([LaurentElem.x_power(space, j - t).scale(c) for t, c in enumerate(sigma.coeffs)])
        assert s_apply_xpow(j, ctx) == want, j


# ----------------------------------------------------------------------
# the equivalence property and the transformed product


def test_equivalence_check_examples(ctx1, rng):
    sp = ctx1.space
    one = LaurentElem.one_of(sp)
    x = LaurentElem.x_power(sp, 1)
    assert equivalence_check(one, rand_radial(sp, rng), ctx1).is_zero()
    assert equivalence_check(x, x, ctx1).is_zero()
    ctx = StarContext(space=sp, K=4)
    assert equivalence_check(x.pow(2), x, ctx).is_zero()
    for _ in range(3):
        assert equivalence_check(rand_radial(sp, rng), rand_radial(sp, rng), ctx1).is_zero()


def test_equivalence_check_rejects_a_non_radial_factor(sp1):
    # the check runs the Wick product in its closed radial form, which
    # holds only for a radial first factor
    ctx = StarContext(space=sp1, K=3)
    rng = Random(5)
    R1, R2 = rand_invariant(sp1, rng), rand_invariant(sp1, rng)
    with pytest.raises(ValueError, match="radial"):
        equivalence_check(R1, R2, ctx)


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
    assert ts.coeffs[1] == m_op(phi, phi, 1).mul_xpow(-1)


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


# ----------------------------------------------------------------------
# S by slice weights against the route through the peel


def solved_inverse_xpow(j, ctx):
    """Reference S^-1(x^j) = x^j tau_j(u) by the triangular solve
    tau_j[m] = -sum_(t<m) tau_j[t] sigma_(j-t)[m-t], each sigma read off
    S(x^(j-t))."""
    sig = [[c.num.scalar_value() for c in s_apply_xpow(j - t, ctx).coeffs] for t in range(ctx.K + 1)]
    tau = [sig[0][0]]
    for m in range(1, ctx.K + 1):
        tau.append(-sum((tau[t] * sig[t][m - t] for t in range(1, m)), sig[0][m]))
    return Series([LaurentElem.x_power(ctx.space, j - t).scale(c) for t, c in enumerate(tau)])


def peel_route(F, ctx, inverse=False):
    """Reference: S (or S^-1) through the homogeneous peel, each order split
    into canonical h_j and sum_j h_j S(x^j) summed per output order."""
    xpow = solved_inverse_xpow if inverse else s_apply_xpow
    K = min(F.order, ctx.K)
    pairs = []
    for Fm in F.coeffs[: K + 1]:
        if not Fm.is_invariant():
            raise ValueError("S acts on invariant elements only")
        pairs.append([(h, xpow(j, ctx)) for j, h in Fm.peel().items()])
    return Series([
        LaurentElem.sum_of_products(ctx.space, [
            (1, h, sx.coeffs[t - m]) for m in range(t + 1) for h, sx in pairs[m]])
        for t in range(K + 1)])


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1)], ids=str)
@pytest.mark.parametrize("D", [(1,), (1, 1), (1, Fraction(-1, 3), 2)])
def test_s_apply_matches_peel_route(space, D):
    """Series with several slices per order, zero orders and x powers of
    both signs; x^2 + 1 has a slice that x divides and that stands alone
    at its power wherever the weight of the other slice, sigma_0, vanishes."""
    ctx = StarContext(space=space, K=6, D=D)
    rng = Random(31)
    x2 = LaurentElem.x_power(space, 2)
    draws = [Series.const(x2 + x2.one(), ctx.K)]
    for _ in range(3):
        draws.append(Series([
            x2.zero() if rng.random() < 0.25 else
            rand_invariant(space, rng).mul_xpow(rng.choice((-3, -1, 2))) + rand_invariant(space, rng)
            for _ in range(ctx.K + 1)]))
    for F in draws:
        for inverse in (False, True):
            assert s_apply(F, ctx, inverse) == peel_route(F, ctx, inverse), inverse
