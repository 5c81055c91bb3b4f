"""The equivalence transformation S between the radial product and the
pointwise product: its symbol in (x, alpha), the functional equation, the
action on powers of x (each table one step from its neighbour) and on the
whole invariant Laurent class, and the transformed star-product, whose
closed weights read the table A^(r)_s of `coeffs`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import sparse
from .coeffs import a_coeff
from .poly import LaurentElem, Poly, z_slices
from .scalar import GaussianRational, factorial
from .series import Series, scalar_series
from .wick import StarContext, m_op, radial_invariant_expansion, wick_product


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


# S(x^j), S^-1(x^j), D x and lambda/(D x) are each x^j times a scalar
# series in u = lambda/x: with Dh(u) = sum_r d_r u^r, D x = x Dh(u) and
# lambda/(D x) = u / Dh(u).  They are computed as scalar series; S and S^-1
# weigh numerator slices by them, and a table that stands alone is lifted
# once, order t to the single term sigma[t] x^(j-t).


def _lift(sigma: Series, j: int, ctx: StarContext) -> Series:
    """x^j sigma(lambda/x) as a series of radial Laurent elements."""
    return Series([LaurentElem.x_power(ctx.space, j - t).scale(c) for t, c in enumerate(sigma.coeffs)])


@lru_cache(maxsize=None)
def _sigma_tables(ctx: StarContext) -> dict:
    """The sigma_j filled so far, by j: a run of neighbours around sigma_0 = 1."""
    return {0: scalar_series((1,), ctx.K)}


def _sigma(j: int, ctx: StarContext) -> Series:
    """sigma_j with S(x^j) = x^j sigma_j(u).  The step
    S(x^(k+1)) = (D x - k lambda) S(x^k), for every integer k, reads
    sigma_(k+1) = sigma_k (Dh - k u); the tables are filled in a loop from
    sigma_0 = 1 toward j, one product per step up and one division per
    step down.  Kept per ctx, as S^-1(x^j) reads K + 1 of them:
    shared, so never mutate one."""
    tables, step = _sigma_tables(ctx), 1 if j > 0 else -1
    k = j
    while k not in tables:
        k -= step
    d = scalar_series(ctx.D, ctx.K)
    u = d.one().times_lambda(1)
    for k in range(k, j, step):
        f = d - u.scale(min(k, k + step))
        tables[k + step] = tables[k] * f if step > 0 else tables[k] / f
    return tables[j]


@lru_cache(maxsize=None)
def s_apply_xpow(j: int, ctx: StarContext) -> Series:
    """S(x^j)."""
    return _lift(_sigma(j, ctx), j, ctx)


@lru_cache(maxsize=None)
def _weights(j: int, ctx: StarContext, inverse: bool) -> tuple:
    """sigma_j, or tau_j with S^-1(x^j) = x^j tau_j(u), as Fractions: D is
    real, and so is every weight.  S(x^j u^t) = x^j u^t sigma_(j-t)(u), so
    tau_j[0] = sigma_j[0] = 1 and tau_j[m] = -sum_(t<m) tau_j[t] sigma_(j-t)[m-t]."""
    if not inverse:
        return tuple(c.re for c in _sigma(j, ctx).coeffs)
    sig = [_weights(j - t, ctx, False) for t in range(ctx.K + 1)]
    tau = [sig[0][0]]
    for m in range(1, ctx.K + 1):
        tau.append(-sum((tau[t] * sig[t][m - t] for t in range(1, m)), sig[0][m]))
    return tuple(tau)


def s_apply(F: Series, ctx: StarContext, inverse: bool = False) -> Series:
    """S (or S^-1) on a series of invariant Laurent elements.  S touches
    only the radial factor: sum_j h_j x^j, each h_j of degree (0, 0), goes
    to sum_j h_j S(x^j), since d/dx annihilates each h_j.  So S is diagonal
    on the z-degree slices of a numerator: for F_m = P / x^M the slice P_d
    is h_j x^j with j = d - M, and order s of S(x^j) = x^j sigma_j(u) puts
    it over x^(M+s), weighed by sigma_j[s] (tau_j[s] for S^-1).  Each
    output order is one ``sum_of_products`` over the weighted slices,
    which canonicalizes the sum; no slice is canonicalized on its own.  A
    non-invariant order raises ValueError (``z_slices``)."""
    K = min(F.order, ctx.K)
    space = ctx.space
    xs = [LaurentElem.x_power(space, -s) for s in range(K + 1)]
    slices = []
    for Fm in F.coeffs[: K + 1]:
        # a slice need not be canonical: sum_of_products ties it with the
        # other slices of its numerator, which sit at the same power
        slices.append([(_weights(d - Fm.mz, ctx, inverse),
                        LaurentElem(Poly(space, t), Fm.mz, canonical=True))
                       for d, t in z_slices(Fm).items()])
    return Series([
        LaurentElem.sum_of_products(space, [
            (w[t - m], a, xs[t - m]) for m in range(t + 1) for w, a in slices[m]])
        for t in range(K + 1)])


def equivalence_check(R1: LaurentElem, R2: LaurentElem, ctx: StarContext) -> Series:
    """S(R1 * R2) - (S R1)(S R2) for radial R1, R2, the Wick product in its
    closed radial form; must vanish."""
    K = ctx.K
    lhs = s_apply(radial_invariant_expansion(R1, R2, ctx), ctx)
    return lhs - s_apply(Series.const(R1, K), ctx) * s_apply(Series.const(R2, K), ctx)


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
    w_r = (1/r!) u^r prod_{k=1..r} (1 + k u)^(-1) = (1/r!) sum_s A^(r)_s u^(r+s),
    so w_0 = 1.  u has no constant term, so u^(r+s) vanishes past order K."""
    upows = [u.one()]
    for _ in range(K):
        upows.append(upows[-1] * u)
    # A^(r)_0 = 1
    return [sum((upows[r + s].scale(a_coeff(r, s)) for s in range(1, K + 1 - r)), upows[r])
            .scale(Fraction(1, factorial(r))) for r in range(K + 1)]


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
    weights = closed_weights(scalar_series(ctx.D, K).invert().times_lambda(1), K)
    return closed_sum(f, g, [(m_op(f, g, r), _lift(weights[r], 0, ctx))
                             for r in range(1, K + 1)], K)


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
