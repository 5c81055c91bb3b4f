"""Star-products on the punctured complex space: the Wick product (both
metric signatures), the Poisson bracket, the momentum map J = -x/2, the
bidifferential operators M_r, the radial expansion, and the two-point
operators calM_r, with N = calM_1, on tensor symbols (``TwoPoint``): a
two-point function of f and g is kept as polynomial coefficients of the
partials of f and g, which meet only on the diagonal, where they are the
derivative tables of M_r.

Only the truncated products read a ``StarContext`` (its order K).  The
bracket, J, M_r and calM_r depend on the metric alone, which every operand
carries in its ``VarSpace``, so they take no context.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import sparse
from .poly import LaurentElem, Poly, VarSpace, is_radial
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
            self.cache = {(0,) * elem.space.nv: LaurentElem(elem.num, elem.mz, canonical=True)}
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
                         else max(d[i] for d in map(e.num.degrees, e.num.view[2])) - e.mz)
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


class TwoPoint:
    """A two-point function of f(z, zb) and g(w, wb) by its tensor symbol:
    terms {(alpha, beta): P} stand for

        sum P(z, wb) * d_z^alpha f(z, zb) * dbar_w^beta g(w, wb).

    Each P is a one-point ``Poly`` whose zb slots stand for wb, so the
    contraction prefactor g_kk z^k wb^k is the one-point x.  The symbol is
    the normal-ordered form of a differential operator in z and wb applied
    to f (x) g, so an operator identity on tensors is an identity of
    symbols; zero P are never stored."""

    __slots__ = ("f", "g", "terms")

    def __init__(self, f: LaurentElem, g: LaurentElem, terms: dict):
        self.f, self.g, self.terms = f, g, terms

    def __eq__(self, other):
        return (isinstance(other, TwoPoint) and self.f == other.f and self.g == other.g
                and self.terms == other.terms)

    def __add__(self, other):
        if not (self.f == other.f and self.g == other.g):
            raise ValueError("two-point functions of different factors")
        out = dict(self.terms)
        for key, p in other.terms.items():
            out[key] = out[key] + p if key in out else p
        return TwoPoint(self.f, self.g, {key: p for key, p in out.items() if not p.is_zero()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        scaled = ((key, p.scale(c)) for key, p in self.terms.items())
        return TwoPoint(self.f, self.g, {key: p for key, p in scaled if not p.is_zero()})


def tensor(f: LaurentElem, g: LaurentElem) -> TwoPoint:
    """f(z) * g(w): the symbol {(0, 0): 1}."""
    if f.space != g.space:
        raise ValueError("tensor takes two elements of one space")
    zero = (0,) * f.space.nv
    return TwoPoint(f, g, {(zero, zero): Poly.one(f.space)})


def restrict_diagonal(T: TwoPoint) -> LaurentElem:
    """Substitute w -> z, wb -> zb: sum P * d^alpha f * dbar^beta g on the
    one-point space, from the derivative tables that M_r fills too.

    P is multiplied into d^alpha f uncanonicalized (x may divide P), so
    the sum, not each P, takes the full canonicalization."""
    dF, dG = DerivCache(T.f, "z"), DerivCache(T.g, "zb")
    items = []
    for (alpha, beta), p in T.terms.items():
        if sum(alpha) > dF._reach() or sum(beta) > dG._reach():
            continue
        a = dF.get(alpha)
        if a.is_zero():
            continue
        b = dG.get(beta)
        if b.is_zero():
            continue
        items.append((1, LaurentElem(p * a.num, a.mz, canonical=True), b))
    out = LaurentElem.sum_of_products(T.f.space, items)
    return LaurentElem(out.num, out.mz)


def op_calm(T: TwoPoint, r: int) -> TwoPoint:
    """calM_r = (g z wb)^r * sum_{|gamma| = r} r! g^gamma / gamma!
    d_z^gamma d_wb^gamma, by the Leibniz rule on P, d^alpha f and dbar^beta g:
    d_z^gamma sends P d^alpha f to C(gamma, a) d_z^a P d^(alpha+gamma-a) f
    over a <= gamma, and d_wb^gamma likewise on the zb slots of P and beta.
    calM_1 is N."""
    if r < 0:
        raise ValueError(f"calM_r needs an order r >= 0, not {r}")
    if r == 0:
        return T
    space = T.f.space
    xv = xr = Poly.x(space).view
    for _ in range(r - 1):
        xr = sparse.tprod(xr, xv, space.nvars)
    items = []
    for gamma in _compositions(r, space.nv):
        w = math.factorial(r) * _metric_sign(space, gamma) // _multi_factorial(gamma)
        subs = [(a, math.prod(map(math.comb, gamma, a)))
                for a in itertools.product(*(range(e + 1) for e in gamma))]
        for (alpha, beta), p in T.terms.items():
            for a, ca in subs:
                pa = _partial(p, space.iz, a)
                if pa.is_zero():
                    continue
                key_a = tuple(x + g - e for x, g, e in zip(alpha, gamma, a))
                for b, cb in subs:
                    pab = _partial(pa, space.izb, b)
                    if pab.is_zero():
                        continue
                    key = (key_a, tuple(x + g - e for x, g, e in zip(beta, gamma, b)))
                    items.append((key, w * ca * cb, pab.view, xr))
    den, acc = sparse.tmacs(items)
    views = ((key, sparse.tcanon(t, den, space.nvars)) for key, t in acc.items())
    return TwoPoint(T.f, T.g, {key: Poly._of(space, v) for key, v in views if v[2]})


def _partial(p: Poly, slot, a: tuple) -> Poly:
    """d^a p along the slots ``slot(k)``."""
    for k, e in enumerate(a):
        for _ in range(e):
            p = p.diff(slot(k))
    return p


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
    if not is_radial(R):
        raise ValueError("the radial expansion wants a radial first factor")
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
