"""The equivalence transformation S between the radial product and the
pointwise product: its rational coefficient table A^(r)_s, its symbol in
(x, alpha), the functional equation, the action on powers of x and on the
whole invariant Laurent class, and the transformed star-product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import sparse
from .poly import LaurentElem
from .scalar import GaussianRational, binomial, factorial
from .series import Series, UnivarPoly
from .wick import DerivCache, StarContext, m_op, radial_elem, radial_star, wick_product


# ----------------------------------------------------------------------
# coefficients A^(r)_s


@lru_cache(maxsize=None)
def a_coeff(r: int, s: int) -> Fraction:
    """A^(r)_s: the u^s coefficient of prod_{k=1..r} (1 + k u)^(-1).

    A^(0)_0 = 1 and A^(0)_s = 0 for s >= 1; for r >= 1 the closed form is
    (1/(r-1)!) sum_{k=1..r} C(r-1, k-1) k^(s+r-1) (-1)^(r+s-k).
    """
    if r < 0 or s < 0:
        raise ValueError("a_coeff wants nonnegative indices")
    if r == 0:
        return Fraction(1 if s == 0 else 0)
    total = 0
    for k in range(1, r + 1):
        total += binomial(r - 1, k - 1) * k ** (s + r - 1) * (-1) ** (r + s - k)
    return Fraction(total, factorial(r - 1))


# ----------------------------------------------------------------------
# sparse polynomials in (x, alpha) and (x, alpha, beta); the x exponent
# may be negative, so the keys are plain tuples rather than packed ints
# (the dict-level sums and products are the kernel's)


class SparsePoly:
    """Tiny sparse multinomial with tuple exponents (ints, possibly
    negative in the first slot) over GaussianRational."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict = None):
        self.arity = arity
        self.terms = terms or {}

    @classmethod
    def constant(cls, arity: int, c) -> "SparsePoly":
        c = GaussianRational.coerce(c)
        return cls(arity, {(0,) * arity: c} if c else {})

    @classmethod
    def term(cls, exps: tuple, c) -> "SparsePoly":
        c = GaussianRational.coerce(c)
        return cls(len(exps), {tuple(exps): c} if c else {})

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("mixed arities")

    def __add__(self, other):
        self._check(other)
        return SparsePoly(self.arity, sparse.tadd(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SparsePoly(self.arity, sparse.tneg(self.terms))

    def __mul__(self, other):
        self._check(other)
        return SparsePoly(self.arity, sparse.tcollect(
            (tuple(a + b for a, b in zip(ka, kb)), ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        ))

    def scale(self, c):
        return SparsePoly(self.arity, sparse.tscale(self.terms, GaussianRational.coerce(c)))

    def one(self):
        return SparsePoly.constant(self.arity, 1)

    def zero(self):
        return SparsePoly(self.arity, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def subst_alpha_zero(self) -> "SparsePoly":
        out = {}
        for k, c in self.terms.items():
            if all(e == 0 for e in k[1:]):
                out[k] = c
        return SparsePoly(self.arity, out)

    def __str__(self):
        names = ("x", "a", "b")[: self.arity]
        parts = []
        for k in sorted(self.terms):
            mono = "*".join(
                f"{names[i]}^{e}" for i, e in enumerate(k) if e
            )
            parts.append(f"({self.terms[k]})" + ("*" + mono if mono else ""))
        return " + ".join(parts) or "0"

    __repr__ = __str__


# ----------------------------------------------------------------------
# the symbol of S


@lru_cache(maxsize=None)
def symbol(ctx: StarContext) -> Series:
    """Symbol of S as a series in lambda with coefficients polynomial in
    (x, alpha): exp((x/lambda)(D log(1 + lambda alpha) - lambda alpha)).

    With D = sum_r d_r (lambda/x)^r the 1/lambda pole cancels against the
    leading log term, so the exponent is a genuine power series:
    its lambda^(r+m-1) coefficient is d_r (-1)^(m+1) x^(1-r) alpha^m / m
    over r >= 0, m >= 1, (r, m) != (0, 1).

    Cached per ctx: the returned series is shared and must never be
    mutated.
    """
    K = ctx.K
    exponent = Series.zeros(SparsePoly.constant(2, 0), K)
    for r in range(len(ctx.D)):
        d = ctx.D[r]
        if d == 0:
            continue
        for m in range(1, K + 2 - r):
            if r == 0 and m == 1:
                continue
            lam = r + m - 1
            if lam > K:
                break
            c = Fraction((-1) ** (m + 1), m) * d
            exponent.coeffs[lam] = exponent.coeffs[lam] + SparsePoly.term((1 - r, m), c)
    sym = exponent.exp()
    assert sym.coeffs[0] == SparsePoly.constant(2, 1)
    return sym


def symbol_at_alpha_zero(ctx: StarContext) -> Series:
    """S applied to the constant function 1, i.e. the symbol at alpha = 0."""
    return symbol(ctx).map(lambda p: p.subst_alpha_zero())


def functional_equation_residual(ctx: StarContext) -> Series:
    """S-hat(x, la*a*b + a + b) e^(la*a*b*x) - S-hat(x, a) S-hat(x, b),
    expanded in (x, a, b); must vanish identically order by order."""
    K = ctx.K
    sym = symbol(ctx)

    def emb(p: SparsePoly, swap: bool) -> SparsePoly:
        out = {}
        for (i, j), c in p.terms.items():
            key = (i, 0, j) if swap else (i, j, 0)
            out[key] = c
        return SparsePoly(3, out)

    rhs = Series([emb(c, False) for c in sym.coeffs]) * Series(
        [emb(c, True) for c in sym.coeffs]
    )

    # substitute alpha -> alpha + beta + lambda alpha beta
    lhs = Series.zeros(SparsePoly.constant(3, 0), K)
    for t, p in enumerate(sym.coeffs):
        for (i, j), c in p.terms.items():
            # (a + b + la a b)^j = sum_{u+v+w=j} j!/(u!v!w!) a^(u+w) b^(v+w) la^w
            for w in range(0, j + 1):
                if t + w > K:
                    continue
                for u in range(0, j - w + 1):
                    v = j - w - u
                    mult = Fraction(
                        factorial(j), factorial(u) * factorial(v) * factorial(w)
                    )
                    term = SparsePoly.term((i, u + w, v + w), c * mult)
                    lhs.coeffs[t + w] = lhs.coeffs[t + w] + term
    # multiply by e^(lambda a b x)
    efac = Series.zeros(SparsePoly.constant(3, 0), K)
    for m in range(K + 1):
        efac.coeffs[m] = SparsePoly.term((m, m, m), Fraction(1, factorial(m)))
    return lhs * efac - rhs


# ----------------------------------------------------------------------
# action of S on the Laurent class


@lru_cache(maxsize=None)
def dx_series(ctx: StarContext) -> Series:
    """D(x, lambda) * x as a series of radial Laurent elements."""
    coeffs = []
    for r in range(ctx.K + 1):
        d = ctx.d_coeff(r)
        if d:
            coeffs.append(LaurentElem.x_power(ctx.space, 1 - r).scale(d))
        else:
            coeffs.append(LaurentElem.zero_of(ctx.space))
    return Series(coeffs)


@lru_cache(maxsize=None)
def lam_over_dx(ctx: StarContext) -> Series:
    """lambda / (D x): the expansion parameter of the closed formulas."""
    return dx_series(ctx).invert().times_lambda(1)


@lru_cache(maxsize=None)
def s_apply_xpow(j: int, ctx: StarContext) -> Series:
    """S applied to x^j.

    j >= 1: (Dx)^j prod_{k=0..j-1} (1 - k lambda/(Dx));
    j <= -1: (Dx)^j sum_s A^(|j|)_s (lambda/(Dx))^s;
    j == 0: 1.
    """
    space = ctx.space
    K = ctx.K
    if j == 0:
        return Series.const(LaurentElem.one_of(space), K)
    u = lam_over_dx(ctx)
    one = Series.const(LaurentElem.one_of(space), K)
    if j > 0:
        res = dx_series(ctx).pow(j)
        for k in range(1, j):
            res = res * (one - u.scale(k))
        return res
    r = -j
    upows = [one]
    for _ in range(K):
        upows.append(upows[-1] * u)
    unit = LaurentElem.one_of(space)
    terms = [(a_coeff(r, s), w) for s, w in enumerate(upows)]
    acc = Series([LaurentElem.sum_of_products(space, [(c, w.coeffs[t], unit) for c, w in terms])
                  for t in range(K + 1)])
    return acc * dx_series(ctx).invert().pow(r)


def _s_pairs(elem: LaurentElem, ctx: StarContext) -> list:
    """(h_j, S(x^j)) over the homogeneous peel of one invariant element:
    S(sum_j h_j x^j) = sum_j h_j S(x^j) since d/dx annihilates each h_j."""
    if not elem.is_invariant():
        raise ValueError("S acts on invariant elements only")
    return [(h, s_apply_xpow(j, ctx)) for j, h in elem.peel().items()]


def s_apply(F: Series, ctx: StarContext, inverse: bool = False) -> Series:
    """S (or S^-1) on a series of invariant Laurent elements.

    Each output order is one sum over the peeled input orders.  The
    inverse is the triangular order-by-order solve of S G = F, using that
    the order-0 part of S is the identity.
    """
    K = min(F.order, ctx.K)
    space = ctx.space
    if not inverse:
        pairs = [_s_pairs(Fm, ctx) for Fm in F.coeffs[: K + 1]]
        return Series([
            LaurentElem.sum_of_products(space, [
                (1, h, sx.coeffs[t - m]) for m in range(t + 1) for h, sx in pairs[m]])
            for t in range(K + 1)])
    one = LaurentElem.one_of(space)
    G = []
    pairs = []  # _s_pairs(G[k]) for each solved order k
    for m in range(K + 1):
        items = [(1, F.coeffs[m], one)]
        items += [(-1, h, sx.coeffs[m - k]) for k in range(m) for h, sx in pairs[k]]
        G.append(LaurentElem.sum_of_products(space, items))
        pairs.append(_s_pairs(G[m], ctx))
    return Series(G)


def equivalence_check(rho1: UnivarPoly, rho2: UnivarPoly, ctx: StarContext) -> Series:
    """S(rho1 radial-star rho2) - (S rho1)(S rho2); must vanish."""
    space = ctx.space
    star = radial_star(rho1, rho2, ctx)
    star_elems = Series([p.subst_elem(LaurentElem.x_power(space, 1)) for p in star.coeffs])
    lhs = s_apply(star_elems, ctx)
    r1 = s_apply(Series.const(radial_elem(rho1, space), ctx.K), ctx)
    r2 = s_apply(Series.const(radial_elem(rho2, space), ctx.K), ctx)
    return lhs - r1 * r2


# ----------------------------------------------------------------------
# the transformed star-product


def tilde_star(F: Series, G: Series, ctx: StarContext) -> Series:
    """F tilde-star G = S((S^-1 F) * (S^-1 G)) on invariant series."""
    Fi = s_apply(F, ctx, inverse=True)
    Gi = s_apply(G, ctx, inverse=True)
    return s_apply(wick_product(Fi, Gi, ctx), ctx)


def tilde_star_elems(f: LaurentElem, g: LaurentElem, ctx: StarContext) -> Series:
    return tilde_star(Series.const(f, ctx.K), Series.const(g, ctx.K), ctx)


def closed_weights(u: Series, K: int) -> list:
    """The radial weights of the closed formula, [w_0, ..., w_K] with
    w_r = (1/r!) u^r prod_{k=1..r} (1 + k u)^(-1), so w_0 = 1."""
    one = u.one()
    weights = [one]
    upow = one
    prodinv = one
    fact = 1
    for r in range(1, K + 1):
        upow = upow * u
        prodinv = prodinv * (one + u.scale(r)).invert()
        fact *= r
        weights.append((upow * prodinv).scale(Fraction(1, fact)))
    return weights


def closed_sum(f: LaurentElem, g: LaurentElem, pairs: list, K: int) -> Series:
    """f*g + sum A*W over (A, W) pairs, W a series of Laurent elements:
    the shape of every closed product formula, one sum per order."""
    pairs = [(f, Series.const(g, K))] + pairs
    return Series([LaurentElem.sum_of_products(f.space, [(1, a, w.coeffs[t]) for a, w in pairs])
                   for t in range(K + 1)])


def tilde_star_closed(f: LaurentElem, g: LaurentElem, ctx: StarContext) -> Series:
    """Closed formula on homogeneous arguments:
    sum_r (1/r!) u^r prod_{k=1..r} (1 + k u)^(-1) M_r(f, g), u = lambda/(Dx)."""
    if not (f.is_homogeneous() and g.is_homogeneous()):
        raise ValueError("the closed formula wants homogeneous arguments")
    K = ctx.K
    weights = closed_weights(lam_over_dx(ctx), K)
    dF, dG = DerivCache(f, "z"), DerivCache(g, "zb")
    return closed_sum(f, g, [(m_op(f, g, r, ctx, dF, dG), weights[r]) for r in range(1, K + 1)], K)


# ----------------------------------------------------------------------
# standard-ordering consistency


def standard_order_apply(j: int, ctx: StarContext) -> Series:
    """Apply the standard-ordered operator read off from the symbol
    (x powers to the left of d/dx powers) to x^j on the radial line."""
    space = ctx.space
    out = []
    for p in symbol(ctx).coeffs:
        items = []
        for (i, a), c in p.terms.items():
            ff = 1
            for t in range(a):
                ff *= j - t
            items.append((ff, LaurentElem.x_power(space, i + j - a), LaurentElem.scalar(space, c)))
        out.append(LaurentElem.sum_of_products(space, items))
    return Series(out)
