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
"""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest

from wickred.poly import VarSpace
from wickred.sampling import rand_homogeneous
from wickred.wick import StarContext, m_op, wick_product_elems

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
        self.x = sum(g * z * zb for g, z, zb in zip(self.metric, self.zs, self.zbs))

    def expr(self, elem):
        """The element as a sympy rational function, read from its JSON form."""
        obj = elem.to_obj()
        num = sum((sympy.sympify(t["c"].replace("*i", "*I"))
                   * sympy.Mul(*(v ** e for v, e in zip(self.gens, t["e"])))
                   for t in obj["terms"]), sympy.Integer(0))
        return num / self.x ** obj["xpow"]

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
        return sympy.Poly(sympy.expand(num), *self.gens).is_zero


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
