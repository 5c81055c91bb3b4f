"""Comparison with the recursion-defined star-product on the sphere:
Laplacian polynomials p_r and k~_r, the recursion and coefficient
identities, and the inhomogeneous-chart cross-check of the local
expression for the reduced bidifferential operators.

Chart calculus: inhomogeneous coordinates v = z/z0 with a second copy u
for the two-point continuation.  Every denominator that can occur is a
power of one of the four irreducible factors

    D1 = 1 + u.vb    D2 = 1 + v.ub    D3 = 1 + u.ub    D4 = 1 + v.vb

whose u/ub derivatives are polynomial, so the class is closed under the
chart Laplacian; restriction to the diagonal (u -> v) merges D1, D2, D3
into D4.  Equality is decided on cross-multiplied numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import sparse
from .equiv import a_coeff
from .poly import LaurentElem
from .scalar import ONE, GaussianRational, binomial, factorial
from .series import UnivarPoly
from .wick import StarContext, m_op


# ----------------------------------------------------------------------
# Laplacian polynomials


@lru_cache(maxsize=None)
def p_poly(r: int, n: int) -> UnivarPoly:
    """p_r(Delta) = prod_{k=0..r-1} (Delta + k(k-n)), built as
    p_{r-1}(Delta) (Delta + (r-1)(r-1-n)).

    Cached per (r, n): the returned polynomial is shared and must never be
    mutated.  A cold call fills the table from p_1 upward, so it recurses
    one level deep, not r levels.
    """
    if r < 1:
        raise ValueError("p_poly wants r >= 1")
    prev = UnivarPoly([1], "Delta")
    for t in range(1, r):
        prev = p_poly(t, n)
    return prev * UnivarPoly([(r - 1) * (r - 1 - n), 1], "Delta")


@lru_cache(maxsize=None)
def k_poly(r: int, n: int) -> UnivarPoly:
    """k~_r(Delta) = sum_{t=1..r} (1/t!) p_t(Delta) A^(t)_{r-t}.

    Cached per (r, n): the returned polynomial is shared and must never be
    mutated."""
    if r < 1:
        raise ValueError("k_poly wants r >= 1")
    acc = UnivarPoly.zero_poly("Delta")
    for t in range(1, r + 1):
        c = a_coeff(t, r - t) / factorial(t)
        if c:
            acc = acc + p_poly(t, n).scale(c)
    return acc


def moreno_recursion_residual(r: int) -> UnivarPoly:
    """(r+1) k~_{r+1} - [Delta k~_r - sum_s r!(r+3+s)/((s+2)!(r-1-s)!) k~_{r-s}]
    for the sphere (n = 1); must be the zero polynomial."""
    n = 1
    delta = UnivarPoly([0, 1], "Delta")
    lhs = k_poly(r + 1, n).scale(r + 1)
    bracket = delta * k_poly(r, n)
    for s in range(r):
        c = Fraction(factorial(r) * (r + 3 + s), factorial(s + 2) * factorial(r - 1 - s))
        bracket = bracket - k_poly(r - s, n).scale(c)
    return lhs - bracket


def coeff_vanishing(r: int, s: int) -> Fraction:
    """Coefficient of p_s(Delta) in the recursion residual, r >= 2,
    2 <= s <= r; must vanish."""
    if not (2 <= s <= r):
        raise ValueError("coeff_vanishing wants 2 <= s <= r")
    total = a_coeff(s, r + 1 - s)
    inner = Fraction(0)
    for t in range(s, r + 1):
        inner += (binomial(r + 1, t - 1) + binomial(r, t - 1)) * a_coeff(s, t - s)
    total += inner / (r + 1)
    total -= Fraction(s, r + 1) * (a_coeff(s - 1, r + 1 - s) - (s - 1) * a_coeff(s, r - s))
    return total


def a_identity_check(s: int, t: int) -> Fraction:
    """A^(s)_{t+1-s} - (A^(s-1)_{t+1-s} - s A^(s)_{t-s}) for s >= 1, t >= s."""
    if s < 1 or t < s:
        raise ValueError("a_identity_check wants 1 <= s <= t")
    return a_coeff(s, t + 1 - s) - (a_coeff(s - 1, t + 1 - s) - s * a_coeff(s, t - s))


# ----------------------------------------------------------------------
# chart elements


class ChartElem:
    """num / (D1^a D2^b D3^c D4^d) with num a polynomial in the 4n chart
    variables (u, ub, v, vb), packed like the main kernel."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num: dict, den: tuple = (0, 0, 0, 0)):
        self.n = n
        self.num = num
        self.den = den

    # slots: u_1..u_n, ub_1..ub_n, v_1..v_n, vb_1..vb_n (0-based internally)
    def iu(self, k):
        return k

    def iub(self, k):
        return self.n + k

    def iv(self, k):
        return 2 * self.n + k

    def ivb(self, k):
        return 3 * self.n + k

    @property
    def nvars(self):
        return 4 * self.n

    @property
    def var_keys(self) -> tuple:
        return sparse.var_keys(4 * self.n)

    @classmethod
    def constant(cls, n: int, c) -> "ChartElem":
        c = GaussianRational.coerce(c)
        return cls(n, {0: c} if c else {})

    def _den_poly(self, idx: int) -> dict:
        a, b = {
            0: (self.iu, self.ivb),
            1: (self.iv, self.iub),
            2: (self.iu, self.iub),
            3: (self.iv, self.ivb),
        }[idx]
        vk = self.var_keys
        terms = {0: ONE}
        for k in range(self.n):
            terms[vk[a(k)] + vk[b(k)]] = ONE
        return terms

    def _scale_up(self, target: tuple) -> dict:
        num = self.num
        for i in range(4):
            for _ in range(target[i] - self.den[i]):
                num = sparse.tmul(num, self._den_poly(i), self.nvars)
        return num

    def __add__(self, other):
        assert self.n == other.n
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        return ChartElem(
            self.n, sparse.tadd(self._scale_up(target), other._scale_up(target)), target
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChartElem(self.n, sparse.tneg(self.num), self.den)

    def __mul__(self, other):
        assert self.n == other.n
        return ChartElem(
            self.n,
            sparse.tmul(self.num, other.num, self.nvars),
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    def scale(self, c):
        return ChartElem(self.n, sparse.tscale(self.num, GaussianRational.coerce(c)), self.den)

    def mul_poly(self, terms: dict) -> "ChartElem":
        return ChartElem(self.n, sparse.tmul(self.num, terms, self.nvars), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def diff(self, block: str, k: int) -> "ChartElem":
        """d/du^k or d/dub^k with the quotient rule on the D factors."""
        var = self.iu(k) if block == "u" else self.iub(k)
        # which denominator factors depend on the variable, and their derivative
        if block == "u":
            affected = [(0, self.ivb(k)), (2, self.iub(k))]
        else:
            affected = [(1, self.iv(k)), (2, self.iu(k))]
        affected = [(i, partner) for i, partner in affected if self.den[i] > 0]
        dnum = sparse.tdiff(self.num, var, self.nvars)
        if not affected:
            return ChartElem(self.n, dnum, self.den)
        num_total = dnum
        for i, _ in affected:
            num_total = sparse.tmul(num_total, self._den_poly(i), self.nvars)
        for i, partner in affected:
            dD = {self.var_keys[partner]: ONE}
            t = sparse.tscale(sparse.tmul(self.num, dD, self.nvars), GaussianRational.coerce(-self.den[i]))
            for j, _ in affected:
                if j != i:
                    t = sparse.tmul(t, self._den_poly(j), self.nvars)
            num_total = sparse.tadd(num_total, t)
        den = list(self.den)
        for i, _ in affected:
            den[i] += 1
        return ChartElem(self.n, num_total, tuple(den))

    def restrict_diagonal(self) -> "ChartElem":
        """u -> v, ub -> vb; all denominator factors collapse onto D4."""
        out = sparse.rekey(self.num, self.var_keys[2 * self.n:] * 2, self.nvars)
        return ChartElem(self.n, out, (0, 0, 0, sum(self.den)))

    def __eq__(self, other):
        return (self - other).is_zero()

    def __repr__(self):
        return f"ChartElem(n={self.n}, {len(self.num)} terms, den={self.den})"


def laplacian(elem: ChartElem) -> ChartElem:
    """Delta_{u ub} = (1 + u.ub) sum_{k,l} (u^k ub^l + delta^kl) d/du^k d/dub^l."""
    n = elem.n
    acc = None
    dub = [elem.diff("ub", l) for l in range(n)]
    for l in range(n):
        for k in range(n):
            second = dub[l].diff("u", k)
            if second.is_zero():
                continue
            factor = {elem.var_keys[elem.iu(k)] + elem.var_keys[elem.iub(l)]: ONE}
            if k == l:
                factor = sparse.tadd(factor, {0: ONE})
            t = second.mul_poly(factor)
            acc = t if acc is None else acc + t
    if acc is None:
        return ChartElem.constant(n, 0)
    return acc.mul_poly(acc._den_poly(2))


def hom_to_chart(f: LaurentElem, mode: str) -> ChartElem:
    """Map a degree-(0,0) element to the chart z0 = 1.

    mode 'vv' is the honest chart image; 'uv' and 'vu' are the separate
    holomorphic/antiholomorphic continuations phi(u, vb) and psi(v, ub)
    used by the two-point Laplacian formula.
    """
    space = f.space
    if space.two_point:
        raise ValueError("chart map wants a one-point element")
    if any(s != 1 for s in space.metric):
        raise ValueError("the chart comparison is set up for the definite metric")
    if not f.is_homogeneous():
        raise ValueError("chart map wants a degree-(0,0) element")
    n = space.n
    d = f.mz
    if d < 0:
        raise ValueError("degree-(0,0) elements have nonnegative x power")
    # chart blocks u, ub, v, vb of n slots each; z0 and zb0 are set to 1
    try:
        zblock, zbblock, den_idx = {"vv": (2, 3, 3), "uv": (0, 3, 0), "vu": (2, 1, 1)}[mode]
    except KeyError:
        raise ValueError(mode) from None
    vk = sparse.var_keys(4 * n)
    images = (0,) + vk[zblock * n:(zblock + 1) * n] + (0,) + vk[zbblock * n:(zbblock + 1) * n]
    out = sparse.rekey(f.num.terms, images, space.nvars)
    den = [0, 0, 0, 0]
    den[den_idx] = d
    return ChartElem(n, out, tuple(den))


def chart_cross_check(phi: LaurentElem, psi: LaurentElem, r: int, ctx: StarContext) -> ChartElem:
    """prod_{k<r} (Delta_{u ub} + k(k-n)) applied to phi(u, vb) psi(v, ub),
    restricted to the diagonal, minus the chart image of M_r(phi, psi)
    computed in homogeneous coordinates; must vanish."""
    n = ctx.n
    T = hom_to_chart(phi, "uv") * hom_to_chart(psi, "vu")
    for k in range(r):
        T2 = laplacian(T)
        shift = k * (k - n)
        T = T2 + T.scale(shift) if shift else T2
    lhs = T.restrict_diagonal()
    rhs = hom_to_chart(m_op(phi, psi, r, ctx), "vv")
    return lhs - rhs
