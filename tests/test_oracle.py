"""A second decision procedure for the Wick product, M_r and the reduced
product.

sympy re-derives them from their definitions,

    order r of F * G      =  sum_{|beta| = r} g^beta / beta!  d_z^beta F  d_zb^beta G,
    M_r(F, G)             =  x^r r!  (the same sum),
    order r of phi *mu psi =  (-2 mu)^-r  sum_{s=1..r} (-1)^(r-s) S(r, s) / s!  M_s(phi, psi),

as rational functions of z and zb taken independent, and decides each
order only by exact cancellation: ``together``, then the numerator, then
``Poly(expand(numerator)).is_zero``.  It shares nothing with the sparse
kernel, the Laurent class, the derivative tables or the coefficient
tables: an element enters through ``LaurentElem.to_obj``, the JSON form
the CLI prints, and S(r, s), the Stirling numbers of the second kind,
come from sympy.

The two-point operators are re-derived the same way on f(z, zb) g(w, wb),
with z, zb, w and wb independent:

    calM_r(F)  =  (g_kk z^k wb^k)^r  sum_{|beta| = r} r! g^beta / beta!  d_z^beta d_wb^beta F,

N = calM_1, against the tensor symbol expanded into sympy; so the symbol
gets a check that does not run through its restriction to the diagonal.
"""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest

from wickred.poly import LaurentElem, VarSpace
from wickred.sampling import rand_homogeneous, rand_invariant, rand_poly
from wickred.series import Series
from wickred.wick import StarContext, m_op, op_calm, tensor, wick_product, wick_product_elems

sympy = pytest.importorskip("sympy")

K = 3
PAIRS = 3


class Oracle:
    """The symbols of one space, its metric and its quadratic x."""

    def __init__(self, space):
        self.metric = space.metric
        self.zs = sympy.symbols(f"z0:{space.nv}")
        self.zbs = sympy.symbols(f"zb0:{space.nv}")
        self.gens = self.zs + self.zbs
        self.ws = sympy.symbols(f"w0:{space.nv}")
        self.wbs = sympy.symbols(f"wb0:{space.nv}")
        self.x = sum(g * z * zb for g, z, zb in zip(self.metric, self.zs, self.zbs))

    def expr(self, elem):
        """The element as a sympy rational function, read from its JSON form."""
        obj = elem.to_obj()
        num = sum((sympy.sympify(t["c"].replace("*i", "*I"))
                   * sympy.Mul(*(v ** e for v, e in zip(self.gens, t["e"])))
                   for t in obj["terms"]), sympy.Integer(0))
        return num / self.x ** obj["xpow"]

    def at_w(self, expr):
        """expr with z -> w and zb -> wb, a function of the second point."""
        return expr.subs(dict(zip(self.gens, self.ws + self.wbs)), simultaneous=True)

    def two_point(self, T, fs, gs):
        """A tensor symbol as a sympy function of z, zb, w, wb: sum of
        P(z, wb) d_z^alpha f(z, zb) d_wb^beta g(w, wb), P's zb slots
        becoming wb.  P enters through ``LaurentElem.to_obj`` too."""
        total = sympy.Integer(0)
        for (alpha, beta), p in T.terms.items():
            ps = self.expr(LaurentElem(p, canonical=True)).subs(
                dict(zip(self.zbs, self.wbs)), simultaneous=True)
            total += ps * self.partial(fs, self.zs, alpha) * self.partial(gs, self.wbs, beta)
        return total

    def calm(self, F, r):
        """calM_r F from its definition, F a function of z, zb, w, wb."""
        total = sympy.Integer(0)
        for beta in itertools.product(range(r + 1), repeat=len(self.zs)):
            if sum(beta) != r:
                continue
            weight = sympy.Rational(math.factorial(r) * math.prod(s ** b for s, b in zip(self.metric, beta)),
                                    math.prod(map(math.factorial, beta)))
            total += weight * self.partial(self.partial(F, self.zs, beta), self.wbs, beta)
        zwb = sum(g * z * wb for g, z, wb in zip(self.metric, self.zs, self.wbs))
        return zwb ** r * total

    def pairing(self, f, g, r):
        """sum over |beta| = r of g^beta / beta! d_z^beta f d_zb^beta g."""
        total = sympy.Integer(0)
        for beta in itertools.product(range(r + 1), repeat=len(self.zs)):
            if sum(beta) != r:
                continue
            weight = sympy.Rational(math.prod(s ** b for s, b in zip(self.metric, beta)),
                                    math.prod(map(math.factorial, beta)))
            total += weight * self.partial(f, self.zs, beta) * self.partial(g, self.zbs, beta)
        return total

    @staticmethod
    def partial(f, variables, beta):
        """d^beta f along ``variables``."""
        for v, b in zip(variables, beta):
            if b:
                f = sympy.diff(f, v, b)
        return f

    def vanishes(self, expr):
        num, _ = sympy.fraction(sympy.together(expr))
        return sympy.Poly(sympy.expand(num), *self.gens, *self.ws, *self.wbs).is_zero


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1)],
                         ids=["CP1", "CP2", "D1"])
def test_wick_product_and_m_op_match_their_definitions(space):
    ctx = StarContext(space=space, K=K)
    oracle = Oracle(space)
    rng = Random(20240811)
    wrong = []
    for pair in range(PAIRS):
        f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
        fs, gs = oracle.expr(f), oracle.expr(g)
        product = wick_product_elems(f, g, ctx)
        for r in range(K + 1):
            want = oracle.pairing(fs, gs, r)
            if not oracle.vanishes(oracle.expr(product.coeffs[r]) - want):
                wrong.append(f"pair {pair}: order {r} of the Wick product")
            got = oracle.expr(m_op(f, g, r))
            if not oracle.vanishes(got - oracle.x ** r * math.factorial(r) * want):
                wrong.append(f"pair {pair}: M_{r}")
    assert wrong == []



def test_wick_product_and_m_op_match_their_definitions_off_degree_zero():
    # the Wick product of f + l*g with g: order r sums the pairings of f
    # with g at r and of g with g at r - 1, which sit over different powers
    # of x; a polynomial pair has a top derivative order, past which every
    # pairing is zero.  The seed keeps the invariant pair small (each of f
    # and g over x^1 or x^0), which keeps sympy's cancellation quick
    space = VarSpace.cpn(1)
    ctx = StarContext(space=space, K=K)
    oracle = Oracle(space)
    rng = Random(20240822)
    wrong = []
    for label, draw in (("invariant", rand_invariant), ("polynomial", rand_poly)):
        f, g = draw(space, rng), draw(space, rng)
        fs, gs = oracle.expr(f), oracle.expr(g)
        product = wick_product(Series([f, g] + [f.zero()] * (K - 1)), Series.const(g, K), ctx)
        for r in range(K + 1):
            want = oracle.pairing(fs, gs, r)
            lam_g = oracle.pairing(gs, gs, r - 1) if r else 0
            if not oracle.vanishes(oracle.expr(product.coeffs[r]) - want - lam_g):
                wrong.append(f"{label} pair: order {r} of the Wick product")
            if not oracle.vanishes(oracle.expr(m_op(f, g, r)) - oracle.x ** r * math.factorial(r) * want):
                wrong.append(f"{label} pair: M_{r}")
    assert wrong == []


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.dn(1)], ids=["CP1", "D1"])
def test_mu_star_matches_its_stirling_expansion(space):
    # at mu = -1/2 the factor -2 mu is 1, so a wrong power of it would pass
    from wickred.reduction import mu_star_elems

    stirling = sympy.functions.combinatorial.numbers.stirling
    mu = Fraction(-2, 5)
    ctx = StarContext(space=space, K=K, mu=mu)
    oracle = Oracle(space)
    rng = Random(20240812)
    wrong = []
    for pair in range(PAIRS):
        f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
        fs, gs = oracle.expr(f), oracle.expr(g)
        ms = [oracle.x ** s * math.factorial(s) * oracle.pairing(fs, gs, s) for s in range(K + 1)]
        product = mu_star_elems(f, g, ctx)
        for r in range(K + 1):
            want = fs * gs if r == 0 else sympy.Rational(-2 * mu) ** -r * sum(
                (-1) ** (r - s) * stirling(r, s) / sympy.factorial(s) * ms[s] for s in range(1, r + 1))
            if not oracle.vanishes(oracle.expr(product.coeffs[r]) - want):
                wrong.append(f"pair {pair}: order {r} of the reduced product")
    assert wrong == []


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.dn(1)], ids=["CP1", "D1"])
def test_two_point_operators_match_their_definitions(space):
    oracle = Oracle(space)
    rng = Random(20240813)
    wrong = []
    for pair in range(PAIRS):
        f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
        fs, gs = oracle.expr(f), oracle.expr(g)
        F = fs * oracle.at_w(gs)
        T = tensor(f, g)
        for label, got, want in (("N", op_calm(T, 1), oracle.calm(F, 1)),
                                 ("calM_2", op_calm(T, 2), oracle.calm(F, 2))):
            if not oracle.vanishes(oracle.two_point(got, fs, oracle.at_w(gs)) - want):
                wrong.append(f"pair {pair}: {label}")
    assert wrong == []
