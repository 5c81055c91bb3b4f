"""Star-products on the punctured complex space: the Wick product (both
metric signatures), the Poisson bracket, the momentum map J = -x/2, the
bidifferential operators M_r, the radial expansion, and the two-point
operators calM_r, with N = calM_1 (H, the total-degree operator, is
``LaurentElem.weighted(sum)``).

Only the truncated products read a ``StarContext`` (its order K).  The
bracket, J, M_r and calM_r depend on the metric alone, which every operand
carries in its ``VarSpace``, so they take no context.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

from . import sparse
from .poly import LaurentElem, Poly, VarSpace
from .scalar import GaussianRational, MINUS_TWO_I
from .series import Series


class StarContext:
    """Shared parameters: variable space, truncation order K, the radial
    normalization series D (coefficients d_r, d_0 = 1) and the level mu.
    Equal parameters compare and hash equal, so a context can key a cache."""

    def __init__(self, space: VarSpace, K: int = 6, D: tuple = (Fraction(1),),
                 mu=Fraction(-1, 2)):
        if K < 1:
            raise ValueError("need K >= 1")
        self.space, self.K = space, K
        self.D = tuple(Fraction(d) for d in D)
        self.mu = Fraction(mu)
        if not self.D or self.D[0] != 1:
            raise ValueError("D series must start with d_0 = 1")
        if self.mu >= 0:
            raise ValueError("the level mu must be negative")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.K, self.D, self.mu) == (other.space, other.K, other.D, other.mu)

    def __hash__(self):
        return hash((self.space, self.K, self.D, self.mu))

    def __repr__(self):
        return f"StarContext(space={self.space!r}, K={self.K}, D={self.D!r}, mu={self.mu!r})"

    @property
    def n(self) -> int:
        return self.space.n

    def is_trivial_D(self) -> bool:
        return all(d == 0 for d in self.D[1:])


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
    return math.prod(map(math.factorial, beta))


class DerivCache:
    """Memoized mixed partials d^beta of one element along one variable
    block (z or zb); beta is a tuple over the n+1 coordinates.  One per
    element object and block (in its ``partials``): products share it.

    ``_reach()`` is the top order with a nonzero partial, read off the
    element P / x^m: -1 for zero, the block degree of the polynomial
    P x^-m for m <= 0, and unbounded for m > 0, since x is irreducible and
    primitive in the block: by Gauss's lemma a P / x^m whose partials of
    some order all vanish needs x^m | P, which canonical form forbids."""

    __slots__ = ("block", "cache", "space", "_top")

    def __new__(cls, elem: LaurentElem, block: str):
        views = getattr(elem, "partials", None)
        if views is None:
            views = elem.partials = {}
        self = views.get(block)
        if self is None:
            # d^0 is a copy of elem, so no table refers back to its element
            self = views[block] = object.__new__(cls)
            self.block, self.space, self._top = block, elem.space, None
            self.cache = {(0,) * elem.space.nv: LaurentElem(elem.num, elem.mz, elem.mw, canonical=True)}
        return self

    def get(self, beta: tuple) -> LaurentElem:
        got = self.cache.get(beta)
        if got is not None:
            return got
        k = max(i for i, b in enumerate(beta) if b)
        prev = list(beta)
        prev[k] -= 1
        slot = {"z": self.space.iz, "zb": self.space.izb}[self.block]
        res = self.get(tuple(prev)).diff(slot(k))
        self.cache[beta] = res
        return res

    def _reach(self):
        if self._top is None:
            e, i = self.cache[(0,) * self.space.nv], ("z", "zb").index(self.block)
            self._top = (-1 if e.is_zero() else float("inf") if e.mz > 0
                         else max(d[i] for d in map(e.num.degrees, e.num.terms)) - e.mz)
        return self._top


def _metric_sign(space: VarSpace, beta: tuple) -> int:
    return -1 if sum(b for b, g in zip(beta, space.metric) if g == -1) & 1 else 1


def _contraction(r: int, dF: DerivCache, dG: DerivCache, scale=1) -> list:
    """(scale * g^beta / beta!, d^beta F, dbar^beta G) over |beta| = r: the
    items of the metric-contracted r-fold derivative pairing, with the
    zero derivatives left out, and none past either operand's reach."""
    space = dF.space
    items = []
    if r > dF._reach() or r > dG._reach():
        return items
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
    once.  Each derivative sum stops at the lower reach of its operands
    (DerivCache); with x in both denominators only the cut at K stops it.
    """
    space = ctx.space
    for s in (F, G):
        for c in s.coeffs:
            if c.space != space:
                raise ValueError("operands live in a different space than the context")
    K = min(F.order, G.order, ctx.K)
    cF = [(a, DerivCache(c, "z")) for a, c in enumerate(F.coeffs[: K + 1]) if not c.is_zero()]
    cG = [(b, DerivCache(c, "zb")) for b, c in enumerate(G.coeffs[: K + 1]) if not c.is_zero()]
    items = [[] for _ in range(K + 1)]
    for a, dF in cF:
        for b, dG in cG:
            for r in range(K + 1 - a - b):
                items[a + b + r].extend(_contraction(r, dF, dG))
    return Series([LaurentElem.sum_of_products(space, its) for its in items])


def wick_product_elems(F: LaurentElem, G: LaurentElem, ctx: StarContext) -> Series:
    K = ctx.K
    return wick_product(Series.const(F, K), Series.const(G, K), ctx)


def poisson(F: LaurentElem, G: LaurentElem) -> LaurentElem:
    """(2/i) * g^kk (dF/dz^k dG/dzb^k - dF/dzb^k dG/dz^k), exactly."""
    F._check(G)
    items = (_contraction(1, DerivCache(F, "z"), DerivCache(G, "zb"))
             + _contraction(1, DerivCache(F, "zb"), DerivCache(G, "z"), -1))
    return LaurentElem.sum_of_products(F.space, items).scale(MINUS_TWO_I)


def momentum_map(space: VarSpace) -> LaurentElem:
    """J = -x/2 (with the metric-twisted x when the signature is mixed)."""
    return LaurentElem.x_power(space, 1).scale(Fraction(-1, 2))


def commutator_check(F: LaurentElem, G: LaurentElem, ctx: StarContext) -> Series:
    """(F*G - G*F) - (i lambda / 2) {F, G}; the order-1 coefficient must
    vanish identically."""
    lhs = wick_product_elems(F, G, ctx) - wick_product_elems(G, F, ctx)
    bracket = poisson(F, G).scale(GaussianRational(0, Fraction(1, 2)))
    return lhs - Series.const(bracket, ctx.K).times_lambda(1)


def m_op(F: LaurentElem, G: LaurentElem, r: int) -> LaurentElem:
    """M_r(F, G) = x^r * (contracted r-fold derivative pairing).

    M_0 is the pointwise product; on homogeneous arguments every M_r is
    homogeneous again.
    """
    items = _contraction(r, DerivCache(F, "z"), DerivCache(G, "zb"), _multi_factorial((r,)))
    return LaurentElem.sum_of_products(F.space, items).mul_xpow(r)


# ----------------------------------------------------------------------
# two-point operators


def tensor(f: LaurentElem, g: LaurentElem) -> LaurentElem:
    """f(z) * g(w) on the two-point space."""
    if f.space != g.space or f.space.two_point:
        raise ValueError("tensor takes two one-point elements of one space")
    sp2 = f.space.with_two_point()
    nv2 = 2 * f.space.nv
    # f's variables keep their slots; g's move into the (w, wb) block
    fnum = Poly(sp2, sparse.rekey(f.num.terms, sp2.var_keys[:nv2]))
    gnum = Poly(sp2, sparse.rekey(g.num.terms, sp2.var_keys[nv2:]))
    return LaurentElem(fnum, f.mz, 0, canonical=True) * LaurentElem(gnum, 0, g.mz, canonical=True)


def restrict_diagonal(F: LaurentElem) -> LaurentElem:
    """Substitute w -> z, wb -> zb, landing on the one-point space."""
    sp2 = F.space
    if not sp2.two_point:
        raise ValueError("needs a two-point element")
    sp1 = sp2.one_point()
    out = sparse.rekey(F.num.terms, sp1.var_keys * 2)
    return LaurentElem(Poly(sp1, out), F.mz + F.mw)


def op_calm(F: LaurentElem, r: int) -> LaurentElem:
    """calM_r(F) = (g z wb)^r * contracted d^r/dz d^r/dwb of F.  calM_1 is
    N(F) = (g_ii z^i wb^i) g_jj d^2 F / dz^j dwb^j."""
    sp2 = F.space
    if not sp2.two_point:
        raise ValueError("needs a two-point element")
    if r == 0:
        return F
    dz = DerivCache(F, "z")
    if r > dz._reach():
        return F.zero()
    prefactor = LaurentElem(_zwb_poly(sp2), canonical=True).pow(r)
    items = []
    for beta in _compositions(r, sp2.nv):
        a = dz.get(beta)
        if a.is_zero():
            continue
        # its wb partials are needed once: chained here, kept out of a's table
        b = reduce(LaurentElem.diff, [sp2.iwb(k) for k, e in enumerate(beta) for _ in range(e)], a)
        if b.is_zero():
            continue
        sign = _metric_sign(sp2, beta)
        items.append((Fraction(_multi_factorial((r,)) * sign, _multi_factorial(beta)), b, prefactor))
    return LaurentElem.sum_of_products(sp2, items)


def _zwb_poly(sp2: VarSpace) -> Poly:
    vk = sp2.var_keys
    return Poly(sp2, {vk[sp2.iz(k)] + vk[sp2.iwb(k)]: GaussianRational.coerce(sp2.metric[k])
                      for k in range(sp2.nv)})


def product_formula_check(r: int, f: LaurentElem, g: LaurentElem, ctx: StarContext) -> LaurentElem:
    """M_r(f, g) (calM_r(f (x) g) on the diagonal, term for term) against
    prod_{s<r} (N - s(n-s)) applied to f (x) g on the diagonal; zero for
    homogeneous f, g (H drops on the doubly homogeneous input)."""
    if not (f.is_homogeneous() and g.is_homogeneous()):
        raise ValueError("the product formula check wants homogeneous factors")
    n = ctx.n
    acc = tensor(f, g)
    for s in range(r):
        acc = op_calm(acc, 1) - acc.scale(s * (n - s))
    return m_op(f, g, r) - restrict_diagonal(acc)


# ----------------------------------------------------------------------
# the radial expansion


def radial_invariant_expansion(R: LaurentElem, F: LaurentElem, ctx: StarContext) -> Series:
    """sum_r (lambda^r / r!) x^r R^(r)(x) (d/dx)^r F for a radial R -- the
    closed form of the Wick product of a radial with an invariant function,
    and so, for F radial too, of the radial product."""
    out = [R.zero()] * (ctx.K + 1)
    fact = 1
    for r in range(ctx.K + 1):
        if r:
            R, F = R.dx(), F.dx()
            fact *= r
        if R.is_zero():
            break
        out[r] = (R.mul_xpow(r) * F).scale(Fraction(1, fact))
    return Series(out)
