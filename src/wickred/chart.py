"""The inhomogeneous-chart cross-check of the local expression for the
reduced bidifferential operators.

Chart calculus: inhomogeneous coordinates v = z/z0 with a second copy u
for the two-point continuation, and the four irreducible factors

    D1 = 1 + u.vb    D2 = 1 + v.ub    D3 = 1 + u.ub    D4 = 1 + v.vb

A denominator is a product of powers of D1 and D2 (the two-point
continuations) or a power of D4 (the diagonal); D3 only multiplies a
numerator, in the chart Laplacian.  D1 depends on u alone among u and ub,
D2 on ub alone, and D4 on neither, so each derivative touches one factor
and the class is closed under the Laplacian; restriction to the diagonal
(u -> v) merges the factors into D4.  Equality is decided on
cross-multiplied numerators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import sparse
from .scalar import ONE, GaussianRational

if TYPE_CHECKING:
    from .poly import LaurentElem


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
        """d/du^k or d/dub^k, with the quotient rule on the one factor that
        depends on it: D1 for u^k (dD1/du^k = vb^k), D2 for ub^k
        (dD2/dub^k = v^k)."""
        if self.den[2]:
            raise ValueError("D3 = 1 + u.ub does not occur in a denominator")
        var, i, partner = (self.iu(k), 0, self.ivb(k)) if block == "u" else (self.iub(k), 1, self.iv(k))
        dnum = sparse.tdiff(self.num, var, self.nvars)
        m = self.den[i]
        if not m:
            return ChartElem(self.n, dnum, self.den)
        # (num / D^m)' = (num' D - m num D') / D^(m+1)
        t = sparse.tscale(sparse.tmul(self.num, {self.var_keys[partner]: ONE}, self.nvars),
                          GaussianRational.coerce(-m))
        num = sparse.tadd(sparse.tmul(dnum, self._den_poly(i), self.nvars), t)
        den = list(self.den)
        den[i] += 1
        return ChartElem(self.n, num, tuple(den))

    def restrict_diagonal(self) -> "ChartElem":
        """u -> v, ub -> vb; all denominator factors collapse onto D4."""
        out = sparse.rekey(self.num, self.var_keys[2 * self.n:] * 2)
        return ChartElem(self.n, out, (0, 0, 0, sum(self.den)))

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
    out = sparse.rekey(f.num.terms, images)
    den = [0, 0, 0, 0]
    den[den_idx] = d
    return ChartElem(n, out, tuple(den))


def chart_cross_check(phi: LaurentElem, psi: LaurentElem, r: int) -> ChartElem:
    """prod_{k<r} (Delta_{u ub} + k(k-n)) applied to phi(u, vb) psi(v, ub),
    restricted to the diagonal, minus the chart image of M_r(phi, psi)
    computed in homogeneous coordinates; must vanish."""
    from .wick import m_op

    n = phi.space.n
    T = hom_to_chart(phi, "uv") * hom_to_chart(psi, "vu")
    for k in range(r):
        T2 = laplacian(T)
        shift = k * (k - n)
        T = T2 + T.scale(shift) if shift else T2
    lhs = T.restrict_diagonal()
    rhs = hom_to_chart(m_op(phi, psi, r), "vv")
    return lhs - rhs
