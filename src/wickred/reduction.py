"""Quantum phase-space reduction to complex projective space (and, with
the indefinite metric, to the complex hyperbolic ball).

Functions on the reduced space are represented by their pullbacks: Laurent
elements of degree (0, 0), annihilated by both Euler operators.  Reduction
of an invariant element substitutes x -> -2*mu slice by slice; the reduced
star-product is the closed bidifferential formula with coefficients
c_{r,s}, cross-checkable against the conjugated product upstairs and
against direct separation of the momentum ideal from the Wick product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .equiv import closed_sum, closed_weights, s_apply, tilde_star
from .poly import LaurentElem, VarSpace
from .scalar import GaussianRational, factorial
from .series import Series, scalar_series
from .wick import DerivCache, StarContext, m_op, poisson, wick_product


def momentum_map(ctx: StarContext) -> LaurentElem:
    """J = -x/2 (with the metric-twisted x when the signature is mixed)."""
    return LaurentElem.x_power(ctx.space, 1).scale(Fraction(-1, 2))


def reduce_elem(F: LaurentElem, ctx: StarContext) -> LaurentElem:
    """Project one invariant element to its reduced representative by
    substituting x -> -2*mu in the homogeneous peel."""
    c = -2 * ctx.mu
    one = LaurentElem.one_of(ctx.space)
    return LaurentElem.sum_of_products(ctx.space, [(c ** j, h, one) for j, h in F.peel().items()])


def reduce_function(F: Series, ctx: StarContext) -> Series:
    """Reduce a series coefficientwise."""
    return F.map(lambda c: reduce_elem(c, ctx))


@dataclass
class DecompResult:
    """F = pullback(projection) + (J - mu) * multiplier, per order."""

    projection: Series
    multiplier: Series


def _geometric_cofactor(space: VarSpace, j: int, c: Fraction) -> LaurentElem:
    """(x^j - c^j) / (x - c) on the radial Laurent line, for any integer j."""
    k = abs(j)
    one = LaurentElem.one_of(space)
    acc = LaurentElem.sum_of_products(
        space, [(c ** t, LaurentElem.x_power(space, k - 1 - t), one) for t in range(k)])
    return acc if j > 0 else acc.mul_xpow(-k).scale(-(c ** (-k)))


def _split(F: LaurentElem, ctx: StarContext) -> tuple:
    """(p, g) with F = p + (J - mu) g for one invariant element: p is F
    with x -> -2 mu slice by slice, g the exact quotient of F - p by
    J - mu = (x + 2 mu)/(-2)."""
    c = -2 * ctx.mu
    g = LaurentElem.sum_of_products(
        ctx.space, [(-2, h, _geometric_cofactor(ctx.space, j, c)) for j, h in F.peel().items()])
    return reduce_elem(F, ctx), g


def ideal_decompose(F: Series, ctx: StarContext) -> DecompResult:
    """Split an invariant series as pullback + multiple of (J - mu).

    Exact division of F - pullback(F_mu) by (x + 2 mu)/(-2) in the x-slice
    decomposition; because (J - mu) multiplies invariant elements
    pointwise in the transformed product, the same multiplier witnesses
    membership in the transformed ideal.
    """
    proj, mult = zip(*(_split(Fm, ctx) for Fm in F.coeffs))
    return DecompResult(Series(proj), Series(mult))


# ----------------------------------------------------------------------
# the reduced star-product


@lru_cache(maxsize=None)
def k_coeff(r: int, s: int) -> Fraction:
    """c_{r,s} = sum_{k=1..s} k^(r-1) (-1)^(r-k) / (s! (s-k)! (k-1)!),
    the coefficient of M~_s inside the order-r term of the reduced
    product; equals A^(s)_{r-s} / s!."""
    if not (1 <= s <= r):
        raise ValueError("k_coeff wants 1 <= s <= r")
    total = Fraction(0)
    for k in range(1, s + 1):
        total += Fraction(
            k ** (r - 1) * (-1) ** (r - k),
            factorial(s) * factorial(s - k) * factorial(k - 1),
        )
    return total


def _k_tilde_items(r: int, ms, scale=1) -> list:
    """(scale * c_{r,s}, M~_s, 1) for s = 1..r, given ms[s] = M~_s: the
    items of scale * K~_r for ``LaurentElem.sum_of_products``."""
    one = ms[1].one()
    return [(scale * k_coeff(r, s), ms[s], one) for s in range(1, r + 1)]


def _k_tilde(r: int, ms) -> LaurentElem:
    """K~_r = sum_{s=1..r} c_{r,s} M~_s, given ms[s] = M~_s for 1 <= s <= r."""
    return LaurentElem.sum_of_products(ms[1].space, _k_tilde_items(r, ms))


def _require_reduced(F: Series):
    for c in F.coeffs:
        if not c.is_homogeneous():
            raise ValueError("reduced product wants degree-(0,0) representatives")


def mu_star(phi: Series, psi: Series, ctx: StarContext) -> Series:
    """The reduced star-product:
    phi psi + sum_{r>=1} (lambda/(-2 mu))^r sum_{s=1..r} c_{r,s} M~_s(phi, psi),
    extended bilinearly over the coefficient series."""
    if not ctx.is_trivial_D():
        raise ValueError("the canonical reduced product is defined for D == 1")
    _require_reduced(phi)
    _require_reduced(psi)
    space = ctx.space
    K = min(phi.order, psi.order, ctx.K)
    cinv = (-2 * ctx.mu) ** -1
    items = [[] for _ in range(K + 1)]
    for a in range(K + 1):
        fa = phi.coeffs[a]
        if fa.is_zero():
            continue
        dF = DerivCache(fa, "z")
        for b in range(K + 1 - a):
            gb = psi.coeffs[b]
            if gb.is_zero():
                continue
            dG = DerivCache(gb, "zb")
            items[a + b].append((1, fa, gb))
            ms = [None] + [m_op(fa, gb, s, ctx, dF, dG) for s in range(1, K + 1 - a - b)]
            for r in range(1, K + 1 - a - b):
                items[a + b + r].extend(_k_tilde_items(r, ms, cinv ** r))
    return Series([LaurentElem.sum_of_products(space, its) for its in items])


def mu_star_elems(phi: LaurentElem, psi: LaurentElem, ctx: StarContext) -> Series:
    return mu_star(Series.const(phi, ctx.K), Series.const(psi, ctx.K), ctx)


def reduced_poisson(phi: LaurentElem, psi: LaurentElem, ctx: StarContext) -> LaurentElem:
    """Poisson bracket on the reduced space: the ambient bracket of the
    representatives (invariant again) pushed through the reduction."""
    return reduce_elem(poisson(phi, psi, ctx), ctx)


def reduction_compatibility(F: Series, G: Series, ctx: StarContext) -> Series:
    """reduce(F tilde-star G) - (reduce F) mu-star (reduce G); zero."""
    lhs = reduce_function(tilde_star(F, G, ctx), ctx)
    rhs = mu_star(reduce_function(F, ctx), reduce_function(G, ctx), ctx)
    return lhs - rhs


def wick_reduce(phi: LaurentElem, psi: LaurentElem, ctx: StarContext) -> Series:
    """Third route to the reduced product: plain Wick product of the
    pullbacks, then projection along the Wick-side momentum ideal.

    The projection is computed as reduce o S, which is the projection
    onto pullbacks along S^(-1) of the transformed ideal.
    """
    if not (phi.is_homogeneous() and psi.is_homogeneous()):
        raise ValueError("wick_reduce wants degree-(0,0) representatives")
    W = wick_product(Series.const(phi, ctx.K), Series.const(psi, ctx.K), ctx)
    return reduce_function(s_apply(W, ctx), ctx)


def wick_reduce_by_division(phi: LaurentElem, psi: LaurentElem, ctx: StarContext) -> Series:
    """Same projection computed by literally separating off star-product
    factors of (J - mu) order by order, never invoking S.

    (J - mu) is radial with constant derivative, so its Wick product with
    any G is (J - mu) G - (lambda/2) x dG/dx; subtracting that for the
    multiplier found at each order pushes a correction one order up.
    """
    if not ctx.is_trivial_D():
        raise ValueError("direct separation is set up for D == 1")
    if not (phi.is_homogeneous() and psi.is_homogeneous()):
        raise ValueError("wick_reduce wants degree-(0,0) representatives")
    W = wick_product(Series.const(phi, ctx.K), Series.const(psi, ctx.K), ctx)
    rem = list(W.coeffs)
    out = []
    for m in range(len(rem)):
        # p is already of degree (0, 0): its own reduction
        p, g = _split(rem[m], ctx)
        out.append(p)
        if m + 1 < len(rem) and not g.is_zero():
            # cancel (J-mu)*G exactly at this order; its star-product tail
            # contributes +(1/2) x dG/dx at the next order
            rem[m + 1] = rem[m + 1] + g.dx().mul_xpow(1).scale(Fraction(1, 2))
    return Series(out)


def quantum_momentum_check(F: Series, ctx: StarContext) -> Series:
    """F tilde-star SJ - SJ tilde-star F - (i lambda / 2) {F, J}; zero for
    every admissible D.  SJ = D J is the quantum momentum map."""
    SJ = s_apply(Series.const(momentum_map(ctx), ctx.K), ctx)
    lhs = tilde_star(F, SJ, ctx) - tilde_star(SJ, F, ctx)
    half_i = GaussianRational(0, Fraction(1, 2))
    bracket = [poisson(c, momentum_map(ctx), ctx).scale(half_i) for c in F.coeffs[: ctx.K + 1]]
    return lhs - Series(bracket).times_lambda(1)


def reparametrize_check(phi: LaurentElem, psi: LaurentElem, D, ctx: StarContext) -> Series:
    """General-D reduced product against the D == 1 product with the
    deformation parameter replaced by lambda / D(-2 mu, lambda).

    Both are series in u = lambda/(D(-2mu,lambda) (-2mu)); the first is
    the closed tilde-star formula evaluated at x = -2 mu, the second the
    canonical c_{r,s} sum under the scalar substitution.
    """
    if not (phi.is_homogeneous() and psi.is_homogeneous()):
        raise ValueError("reparametrize_check wants degree-(0,0) representatives")
    K = ctx.K
    D = tuple(Fraction(d) for d in D)
    c = -2 * ctx.mu
    # scalar series D(-2mu, lambda) and u = lambda/(c D)
    Dc = scalar_series([D[r] * c ** (-r) if r < len(D) else 0 for r in range(K + 1)], K)
    u = Dc.scale(c).invert().times_lambda(1)

    dF, dG = DerivCache(phi, "z"), DerivCache(psi, "zb")
    ms = [None] + [reduce_elem(m_op(phi, psi, s, ctx, dF, dG), ctx) for s in range(1, K + 1)]

    def lift(w: Series) -> Series:
        return w.map(lambda sc: LaurentElem.scalar(phi.space, sc))

    # route A: closed formula with x -> -2mu
    weights = closed_weights(u, K)
    routeA = closed_sum(phi, psi, [(ms[r], lift(weights[r])) for r in range(1, K + 1)], K)
    # route B: canonical product in powers of lambda/(-2mu), then
    # lambda -> lambda / D(-2mu, lambda), i.e. powers of u directly
    upows = [u]
    for _ in range(1, K):
        upows.append(upows[-1] * u)
    routeB = closed_sum(phi, psi, [(_k_tilde(r, ms), lift(upows[r - 1])) for r in range(1, K + 1)], K)
    return routeA - routeB
