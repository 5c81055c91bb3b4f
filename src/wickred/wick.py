"""Star-products on the punctured complex space: the Wick product (both
metric signatures), the Poisson bracket, the bidifferential operators M_r,
the radial product, and the two-point operators N, calM_r, H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import sparse
from .poly import LaurentElem, Poly, VarSpace
from .scalar import GaussianRational, MINUS_TWO_I
from .series import Series, UnivarPoly


@dataclass(frozen=True)
class StarContext:
    """Shared parameters: variable space, truncation order K, the radial
    normalization series D (coefficients d_r, d_0 = 1) and the level mu."""

    space: VarSpace
    K: int = 6
    D: tuple = (Fraction(1),)
    mu: Fraction = Fraction(-1, 2)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need K >= 1")
        object.__setattr__(self, "D", tuple(Fraction(d) for d in self.D))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if not self.D or self.D[0] != 1:
            raise ValueError("D series must start with d_0 = 1")
        if self.mu >= 0:
            raise ValueError("the level mu must be negative")

    @property
    def n(self) -> int:
        return self.space.n

    def d_coeff(self, r: int) -> Fraction:
        return self.D[r] if r < len(self.D) else Fraction(0)

    def is_trivial_D(self) -> bool:
        return all(d == 0 for d in self.D[1:])


def default_context(n: int = 1, K: int = 6, mu=Fraction(-1, 2), space_kind: str = "cpn",
                    D=(Fraction(1),)) -> StarContext:
    space = VarSpace.cpn(n) if space_kind == "cpn" else VarSpace.dn(n)
    return StarContext(space=space, K=K, D=tuple(D), mu=mu)


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    """All exponent tuples beta with |beta| = total over `parts` slots."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _multi_factorial(beta: tuple) -> int:
    out = 1
    for b in beta:
        for j in range(2, b + 1):
            out *= j
    return out


class DerivCache:
    """Memoized mixed partials d^beta of one element along one variable
    block (z, zb, or wb); beta is a tuple over the n+1 coordinates."""

    __slots__ = ("elem", "block", "cache", "space")

    def __init__(self, elem: LaurentElem, block: str):
        self.elem = elem
        self.block = block
        self.space = elem.space
        self.cache = {(0,) * elem.space.nv: elem}

    def _var(self, k: int) -> int:
        if self.block == "z":
            return self.space.iz(k)
        if self.block == "zb":
            return self.space.izb(k)
        if self.block == "wb":
            return self.space.iwb(k)
        raise ValueError(self.block)

    def get(self, beta: tuple) -> LaurentElem:
        got = self.cache.get(beta)
        if got is not None:
            return got
        k = max(i for i, b in enumerate(beta) if b)
        prev = list(beta)
        prev[k] -= 1
        res = self.get(tuple(prev)).diff(self._var(k))
        self.cache[beta] = res
        return res

    def level_all_zero(self, r: int) -> bool:
        return all(self.get(b).is_zero() for b in _compositions(r, self.space.nv))


def _metric_sign(space: VarSpace, beta: tuple) -> int:
    s = 1
    for k, b in enumerate(beta):
        if b & 1 and space.metric[k] == -1:
            s = -s
    return s


def _contraction(r: int, dF: DerivCache, dG: DerivCache, scale=1) -> list:
    """(scale * g^beta / beta!, d^beta F, dbar^beta G) over |beta| = r: the
    items of the metric-contracted r-fold derivative pairing, with the
    zero derivatives left out."""
    space = dF.space
    items = []
    for beta in _compositions(r, space.nv):
        a = dF.get(beta)
        if a.is_zero():
            continue
        b = dG.get(beta)
        if b.is_zero():
            continue
        items.append((Fraction(scale * _metric_sign(space, beta), _multi_factorial(beta)), a, b))
    return items


def wick_product(F: Series, G: Series, ctx: StarContext) -> Series:
    """The Wick star-product of two coefficient series, truncated at K.

    The order-m coefficient is one sum, over a + b + r = m and |beta| = r,
    of (g^beta / beta!) d^beta F_a dbar^beta G_b, summed and canonicalized
    once.  For polynomial coefficients the derivative sum terminates on
    its own and every retained order is exact; Laurent denominators never
    terminate, so the contract cut at K applies.
    """
    space = ctx.space
    for s in (F, G):
        for c in s.coeffs:
            if c.space != space:
                raise ValueError("operands live in a different space than the context")
    K = min(F.order, G.order, ctx.K)
    cF = [DerivCache(c, "z") for c in F.coeffs[: K + 1]]
    cG = [DerivCache(c, "zb") for c in G.coeffs[: K + 1]]
    items = [[] for _ in range(K + 1)]
    for a in range(K + 1):
        if F.coeffs[a].is_zero():
            continue
        for b in range(K + 1 - a):
            if G.coeffs[b].is_zero():
                continue
            for r in range(K + 1 - a - b):
                if r and (cF[a].level_all_zero(r) or cG[b].level_all_zero(r)):
                    break
                items[a + b + r].extend(_contraction(r, cF[a], cG[b]))
    return Series([LaurentElem.sum_of_products(space, its) for its in items])


def wick_product_elems(F: LaurentElem, G: LaurentElem, ctx: StarContext) -> Series:
    K = ctx.K
    return wick_product(Series.const(F, K), Series.const(G, K), ctx)


def poisson(F: LaurentElem, G: LaurentElem, ctx: StarContext) -> LaurentElem:
    """(2/i) * g^kk (dF/dz^k dG/dzb^k - dF/dzb^k dG/dz^k), exactly."""
    space = ctx.space
    if F.space != space or G.space != space:
        raise ValueError("operands live in a different space than the context")
    items = (_contraction(1, DerivCache(F, "z"), DerivCache(G, "zb"))
             + _contraction(1, DerivCache(F, "zb"), DerivCache(G, "z"), -1))
    return LaurentElem.sum_of_products(space, items).scale(MINUS_TWO_I)


def commutator_check(F: LaurentElem, G: LaurentElem, ctx: StarContext) -> Series:
    """(F*G - G*F) - (i lambda / 2) {F, G}; the order-1 coefficient must
    vanish identically."""
    lhs = wick_product_elems(F, G, ctx) - wick_product_elems(G, F, ctx)
    bracket = poisson(F, G, ctx).scale(GaussianRational(0, Fraction(1, 2)))
    return lhs - Series.const(bracket, ctx.K).times_lambda(1)


def m_op(F: LaurentElem, G: LaurentElem, r: int, ctx: StarContext,
         dF: DerivCache = None, dG: DerivCache = None) -> LaurentElem:
    """M_r(F, G) = x^r * (contracted r-fold derivative pairing).

    M_0 is the pointwise product; on homogeneous arguments every M_r is
    homogeneous again.  Passing DerivCache instances shares the mixed
    partials across different orders r.
    """
    dF = dF or DerivCache(F, "z")
    dG = dG or DerivCache(G, "zb")
    items = _contraction(r, dF, dG, _multi_factorial((r,)))
    return LaurentElem.sum_of_products(F.space, items).mul_xpow(r)


def radial_star(rho1: UnivarPoly, rho2: UnivarPoly, ctx: StarContext) -> Series:
    """Radial product: sum_r lambda^r (x^r / r!) rho1^(r) rho2^(r)."""
    K = ctx.K
    zero = UnivarPoly.zero_poly(rho1.var)
    out = [zero] * (K + 1)
    a, b = rho1, rho2
    fact = 1
    for r in range(K + 1):
        if r:
            a = a.deriv()
            b = b.deriv()
            fact *= r
        if a.is_zero() or b.is_zero():
            break
        out[r] = (a * b).shift(r).scale(Fraction(1, fact))
    return Series(out)


class ExpPoly:
    """P(x) * e^(g x) with polynomial prefactor; closed under d/dx."""

    __slots__ = ("prefactor", "g")

    def __init__(self, prefactor: UnivarPoly, g):
        self.prefactor = prefactor
        self.g = g

    def deriv(self) -> "ExpPoly":
        return ExpPoly(self.prefactor.deriv() + self.prefactor.scale(self.g), self.g)


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
    one = UnivarPoly([1], "x")
    ea = ExpPoly(one, alpha)
    eb = ExpPoly(one, beta)
    lhs = []
    fact = 1
    for r in range(K + 1):
        if r:
            ea = ea.deriv()
            eb = eb.deriv()
            fact *= r
        lhs.append((ea.prefactor * eb.prefactor).shift(r).scale(Fraction(1, fact)))
    # right side: e^((a+b)x) * sum_m lambda^m (a b x)^m / m!
    rhs = []
    fact = 1
    abx = UnivarPoly([0, alpha * beta], "x")
    power = one
    for m in range(K + 1):
        if m:
            power = power * abx
            fact *= m
        rhs.append(power.scale(Fraction(1, fact)))
    return Series(lhs) - Series(rhs)


# ----------------------------------------------------------------------
# two-point operators


def tensor(f: LaurentElem, g: LaurentElem) -> LaurentElem:
    """f(z) * g(w) on the two-point space."""
    if f.space != g.space or f.space.two_point:
        raise ValueError("tensor takes two one-point elements of one space")
    sp2 = f.space.with_two_point()
    nv2 = 2 * f.space.nv
    # f's variables keep their slots; g's move into the (w, wb) block
    fnum = Poly(sp2, sparse.rekey(f.num.terms, sp2.var_keys[:nv2], nv2))
    gnum = Poly(sp2, sparse.rekey(g.num.terms, sp2.var_keys[nv2:], nv2))
    return LaurentElem(fnum, f.mz, 0, canonical=True) * LaurentElem(gnum, 0, g.mz, canonical=True)


def restrict_diagonal(F: LaurentElem) -> LaurentElem:
    """Substitute w -> z, wb -> zb, landing on the one-point space."""
    sp2 = F.space
    if not sp2.two_point:
        raise ValueError("needs a two-point element")
    sp1 = sp2.one_point()
    out = sparse.rekey(F.num.terms, sp1.var_keys * 2, sp2.nvars)
    return LaurentElem(Poly(sp1, out), F.mz + F.mw)


def op_n(F: LaurentElem, ctx: StarContext) -> LaurentElem:
    """N(F) = (g_ii z^i wb^i) g_jj d^2 F / dz^j dwb^j."""
    return op_calm(F, 1, ctx)


def op_calm(F: LaurentElem, r: int, ctx: StarContext) -> LaurentElem:
    """calM_r(F) = (g z wb)^r * contracted d^r/dz d^r/dwb of F."""
    sp2 = F.space
    if not sp2.two_point:
        raise ValueError("needs a two-point element")
    if r == 0:
        return F
    dz = DerivCache(F, "z")
    prefactor = LaurentElem(_zwb_poly(sp2), canonical=True).pow(r)
    items = []
    for beta in _compositions(r, sp2.nv):
        a = dz.get(beta)
        if a.is_zero():
            continue
        b = DerivCache(a, "wb").get(beta)
        if b.is_zero():
            continue
        sign = _metric_sign(sp2, beta)
        items.append((Fraction(_multi_factorial((r,)) * sign, _multi_factorial(beta)), b, prefactor))
    return LaurentElem.sum_of_products(sp2, items)


def _zwb_poly(sp2: VarSpace) -> Poly:
    vk = sp2.var_keys
    return Poly(sp2, {vk[sp2.iz(k)] + vk[sp2.iwb(k)]: GaussianRational.coerce(sp2.metric[k])
                      for k in range(sp2.nv)})


def op_h(F: LaurentElem) -> LaurentElem:
    """H = z d/dz + zb d/dzb + w d/dw + wb d/dwb (all four Euler sums);
    vanishes on doubly homogeneous elements."""
    return F.euler("H")


def op_euler_zwb(F: LaurentElem) -> LaurentElem:
    """E_z + Ebar_w, the Euler weight of the variables in the contraction
    prefactor z.wb.

    On doubly homogeneous elements it acts as zero exactly like H, so the
    two are interchangeable inside the solved product formula; unlike H it
    satisfies the recursion calM_{r+1} = (N - r(n-r) - r(E_z+Ebar_w)) calM_r
    on arbitrary arguments.
    """
    if not F.space.two_point:
        raise ValueError("needs a two-point element")
    return F.weighted(lambda d: d[0] + d[3])


def product_formula_check(r: int, f: LaurentElem, g: LaurentElem, ctx: StarContext) -> LaurentElem:
    """calM_r(f (x) g) against prod_{s<r} (N - s(n-s)) applied to f (x) g,
    both restricted to the diagonal; zero for homogeneous f, g (H drops on
    the doubly homogeneous input)."""
    if not (f.is_homogeneous() and g.is_homogeneous()):
        raise ValueError("the product formula check wants homogeneous factors")
    n = ctx.n
    T = tensor(f, g)
    lhs = restrict_diagonal(op_calm(T, r, ctx))
    acc = T
    for s in range(r):
        acc = op_n(acc, ctx) - acc.scale(s * (n - s))
    rhs = restrict_diagonal(acc)
    return lhs - rhs


# ----------------------------------------------------------------------
# helpers for the radial/invariant relations


def radial_elem(rho: UnivarPoly, space: VarSpace) -> LaurentElem:
    """rho(x) as a Laurent element."""
    return rho.subst_elem(LaurentElem.x_power(space, 1))


def radial_invariant_expansion(rho: UnivarPoly, F: LaurentElem, ctx: StarContext) -> Series:
    """sum_r (lambda^r / r!) x^r rho^(r)(x) (d/dx)^r F -- the closed form
    of the Wick product of a radial with an invariant function."""
    space = ctx.space
    K = ctx.K
    out = [LaurentElem.zero_of(space) for _ in range(K + 1)]
    dxF = F
    rd = rho
    fact = 1
    for r in range(K + 1):
        if r:
            rd = rd.deriv()
            dxF = dxF.dx()
            fact *= r
        if rd.is_zero():
            break
        radial_part = rd.subst_elem(LaurentElem.x_power(space, 1)).mul_xpow(r)
        out[r] = (radial_part * dxF).scale(Fraction(1, fact))
    return Series(out)
