"""The equivalence transformation S between the radial product and the
pointwise product: its symbol in u = lambda/x and beta = x alpha, on the
packed keys of `sparse`, the functional equation, the standard ordering, the
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
from .scalar import ONE, ZERO, GaussianRational, factorial
from .series import Series, scalar_series
from .wick import StarContext, m_op, radial_invariant_expansion, wick_product


# ----------------------------------------------------------------------
# the symbol of S in u = lambda/x and beta = x alpha: each order is u^t
# times a polynomial in beta, so no exponent is negative and the
# polynomials are the kernel's packed terms


class SparsePoly:
    """A polynomial over GaussianRational in ``arity`` variables, on
    ``sparse.pack`` keys: beta for the symbol, (beta_a, beta_b) for its
    functional equation."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict):
        self.arity = arity
        self.terms = terms

    def __add__(self, other):
        return SparsePoly(self.arity, sparse.tadd(self.terms, other.terms))

    def __sub__(self, other):
        return SparsePoly(self.arity, sparse.tsub(self.terms, other.terms))

    def __neg__(self):
        return SparsePoly(self.arity, sparse.tneg(self.terms))

    def __mul__(self, other):
        return SparsePoly(self.arity, sparse.tmul(self.terms, other.terms, self.arity))

    def scale(self, c):
        return SparsePoly(self.arity, sparse.tscale(self.terms, GaussianRational.coerce(c)))

    def one(self):
        return SparsePoly(self.arity, {0: ONE})

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


@lru_cache(maxsize=None)
def symbol(ctx: StarContext) -> Series:
    """Symbol of S, exp((x/lambda)(D log(1 + lambda alpha) - lambda alpha)),
    as a series whose order t is the polynomial p_t(beta), standing for
    u^t p_t(beta) = x^-t p_t(x alpha).

    With D = sum_r d_r u^r the 1/lambda pole cancels against the leading
    log term, so the exponent is a genuine power series: its order r+m-1
    coefficient is d_r (-1)^(m+1) beta^m / m over r >= 0, m >= 1,
    (r, m) != (0, 1).

    Cached per ctx: the returned series is shared and must never be
    mutated.
    """
    exponent = [{} for _ in range(ctx.K + 1)]
    for r, d in enumerate(ctx.D):
        if d:
            for m in range(1 if r else 2, ctx.K + 2 - r):
                exponent[r + m - 1][sparse.pack((m,))] = GaussianRational.coerce(
                    Fraction((-1) ** (m + 1), m) * d)
    return Series([SparsePoly(1, e) for e in exponent]).exp()


def symbol_at_alpha_zero(ctx: StarContext) -> Series:
    """S applied to the constant function 1: the symbol at alpha = 0, that
    is at beta = 0, its constant terms."""
    return symbol(ctx).map(lambda p: SparsePoly(1, {k: c for k, c in p.terms.items() if not k}))


def functional_equation_residual(ctx: StarContext) -> Series:
    """S-hat(u, b_a + b_b + u b_a b_b) e^(u b_a b_b) - S-hat(u, b_a) S-hat(u, b_b)
    in (beta_a, beta_b), with S-hat(u, beta) = sum_t u^t p_t(beta): it is
    S-hat(x, a + b + lambda a b) e^(lambda a b x) - S-hat(x, a) S-hat(x, b)
    at beta_a = x a, beta_b = x b.  Must vanish identically order by order."""
    K = ctx.K
    sym = symbol(ctx)
    a, b = sparse.var_keys(2)
    rhs = (sym.map(lambda p: SparsePoly(2, sparse.rekey(p.terms, (a,))))
           * sym.map(lambda p: SparsePoly(2, sparse.rekey(p.terms, (b,)))))

    # (b_a + b_b + u b_a b_b)^j = sum_{i+k+w=j} j!/(i!k!w!) b_a^(i+w) b_b^(k+w) u^w
    lhs = [[] for _ in range(K + 1)]
    for t, p in enumerate(sym.coeffs):
        for key, c in p.terms.items():
            j = sparse.total_degree(key, 1)
            for w in range(min(j, K - t) + 1):
                for i in range(j - w + 1):
                    mult = Fraction(factorial(j), factorial(i) * factorial(j - w - i) * factorial(w))
                    lhs[t + w].append(((i + w) * a + (j - i) * b, c * mult))
    # times e^(u b_a b_b)
    efac = Series([SparsePoly(2, {m * (a + b): GaussianRational.coerce(Fraction(1, factorial(m)))})
                   for m in range(K + 1)])
    return Series([SparsePoly(2, sparse.tcollect(pairs)) for pairs in lhs]) * efac - rhs


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
    (x powers to the left of d/dx powers) to x^j on the radial line.  The
    term u^t beta^m = x^(m-t) alpha^m sends x^j to j(j-1)...(j-m+1) x^(j-t),
    so the result is x^j times the scalar series whose order t is
    sum_m p_t[m] j(j-1)...(j-m+1)."""
    falling = [1]
    for m in range(2 * ctx.K):  # order t has beta-degree at most 2t
        falling.append(falling[-1] * (j - m))
    sigma = [sum((c * falling[sparse.total_degree(k, 1)] for k, c in p.terms.items()), ZERO)
             for p in symbol(ctx).coeffs]
    return _lift(Series(sigma), j, ctx)
